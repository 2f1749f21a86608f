"""Convergence diagnostics over completed transcripts.

Plain (non-split) Gelman-Rubin potential scale reduction factor, scalar
summary extraction, empirical marginals, and the iterations-to-threshold
protocol: run several parallel chains and take the first point of the
monitored statistic's PSRF curve at or below a threshold (default 1.05),
``first_crossing(psrf_curve(extract_summary(...)))``. A crossing at the
first checkpoint is flagged as censored.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

DEGENERATE_VAR = 1e-300
DEFAULT_THRESHOLD = 1.05
DEFAULT_CHAINS = 10


def psrf(series) -> float:
    """Gelman-Rubin R-hat for an (m chains x n values) array.

    B = n * var of chain means, W = mean of per-chain variances,
    Vhat = (n-1)/n W + B/n, R-hat = sqrt(Vhat / W). Degenerate cases: zero
    within-chain variance with disagreeing chains is +inf (stuck chains must
    not read as converged); all-constant identical chains give 1.0.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 2:
        raise ValueError("series must be an (m, n) array")
    m, n = x.shape
    if m < 2 or n < 2:
        raise ValueError("need at least 2 chains and 2 values per chain")
    chain_means = x.mean(axis=1)
    B = n * chain_means.var(ddof=1)
    W = x.var(axis=1, ddof=1).mean()
    if W < DEGENERATE_VAR:
        return 1.0 if B < DEGENERATE_VAR else math.inf
    vhat = (n - 1) / n * W + B / n
    return math.sqrt(vhat / W)


def extract_summary(transcripts, statistic):
    """Aligned (m, n) array of a scalar statistic across transcripts.

    ``statistic`` is "cardinality", "log_weight", or ("indicator", i).
    """
    if len(transcripts) < 2:
        raise ValueError("need at least 2 transcripts")
    lengths = {len(t) for t in transcripts}
    if len(lengths) != 1:
        raise ValueError(f"transcripts have unequal lengths: {sorted(lengths)}")
    check_statistic(statistic, transcripts[0].n)
    if statistic == "cardinality":
        return np.vstack([t.cardinalities() for t in transcripts])
    if statistic == "log_weight":
        return np.vstack([np.asarray(t.log_weights, dtype=float)
                          for t in transcripts])
    return np.vstack([t.indicator(statistic[1]) for t in transcripts])


def check_statistic(statistic, n):
    """Raise ValueError unless ``statistic`` is a summary of an n-element
    chain: "cardinality", "log_weight", or ("indicator", i) with 0 <= i < n."""
    if statistic in ("cardinality", "log_weight"):
        return
    if (isinstance(statistic, tuple) and len(statistic) == 2
            and statistic[0] == "indicator"
            and isinstance(statistic[1], (int, np.integer))
            and 0 <= statistic[1] < n):
        return
    raise ValueError(
        f"statistic must be 'cardinality', 'log_weight' or ('indicator', i) "
        f"with 0 <= i < {n}, got {statistic!r}")


def psrf_curve(series, stride=None):
    """(prefix length, R-hat) pairs at stride multiples over growing prefixes.

    Equal to :func:`psrf` on every prefix, computed in one pass from per-chain
    cumulative sums of x - x[:, :1], so that a constant prefix has W = 0
    exactly and gets the same 1.0 / inf sentinels.
    """
    x = np.asarray(series, dtype=float)
    m, n = x.shape
    if m < 2:
        raise ValueError("need at least 2 chains")
    if stride is None:
        stride = max(1, n // 200)
    stops = np.arange(stride, n + 1, stride)
    stops = stops[stops >= 2]
    y = x - x[:, :1]
    s1 = np.cumsum(y, axis=1)[:, stops - 1]
    s2 = np.cumsum(y * y, axis=1)[:, stops - 1]
    means = s1 / stops
    W = np.maximum(s2 - s1 * means, 0.0).mean(axis=0) / (stops - 1)
    B = stops * (x[:, :1] - x[:1, :1] + means).var(axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(((stops - 1) / stops * W + B / stops) / W)
    r = np.where(W < DEGENERATE_VAR,
                 np.where(B < DEGENERATE_VAR, 1.0, math.inf), r)
    return [(int(stop), float(v)) for stop, v in zip(stops, r)]


def first_crossing(curve, threshold=DEFAULT_THRESHOLD):
    """(stop, censored) at the first point of a :func:`psrf_curve` with R-hat
    <= threshold, or None if there is none.

    ``censored`` is True when that point is the curve's first checkpoint: R-hat
    was already below the threshold there, so the stop only bounds the
    crossing from above and says nothing about how fast the chains mixed.
    """
    check_threshold(threshold)
    for k, (stop, r) in enumerate(curve):
        if r <= threshold:
            return stop, k == 0
    return None


def check_threshold(threshold):
    """Raise ValueError unless ``threshold`` exceeds 1, the value R-hat tends
    to as chains converge."""
    if not threshold > 1.0:
        raise ValueError(f"threshold must exceed 1, got {threshold!r}")


def empirical_marginals(transcripts):
    """Pooled per-element inclusion frequencies with naive standard errors.

    The standard errors assume independent draws and are not corrected for
    autocorrelation.
    """
    if not transcripts:
        raise ValueError("need at least one transcript")
    n = transcripts[0].n
    counts = Counter(itertools.chain.from_iterable(
        itertools.chain.from_iterable(t.states for t in transcripts)))
    total = sum(map(len, transcripts))
    est = np.array([counts[i] for i in range(n)], dtype=float) / total
    se = np.sqrt(est * (1.0 - est) / total)
    return est, se
