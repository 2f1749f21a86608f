"""The benchmark's four workloads: inputs from a seed, a timed run, output checks.

Each workload is a closed loop with one caller. ``setup`` builds and validates
the kernel and finds the chains' start states; ``run`` is the timed part (the
first sampler or oracle call to the finished diagnostic or oracle result);
``check`` judges the outputs of one run, outside the timing, and returns one
verdict per operation (a chain run or an oracle call).

The library is imported from ``src/`` of the checkout this file sits in, and
only through its modules (``chains.run_chains``, ``exact.transition_matrix``
...), so that the tracer in ``spans.py`` can wrap those attributes.
"""
from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import srmcmc  # noqa: E402
from srmcmc import chains, diagnostics, dpp, exact, measures  # noqa: E402

if Path(srmcmc.__file__).resolve().parent != SRC / "srmcmc":
    raise ImportError(f"srmcmc was imported from {srmcmc.__file__}, "
                      f"not from {SRC}")

# Criterion 7's relative bound on log-determinant agreement.
LOG_WEIGHT_RTOL = 1e-6
EXACT_TOL = 1e-10
LUMP_TOL = 1e-12
# Sampled checks. A pooled estimate may sit Z_TOL standard errors from its
# target; the mean absolute error over elements, whose expectation is about
# 0.8 standard errors when unbiased, may reach MEAN_ERR_TOL of them.
Z_TOL = 5.0
MEAN_ERR_TOL = 2.0


def input_rng(seed, tag):
    """Generator for one workload input, derived from the benchmark seed."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


@dataclass
class RunOutput:
    """What one timed run returns to the runner."""
    sampling_s: float = 0.0   # seconds inside chain runs
    steps: int = 0            # chain steps over all chains, holds included
    transcripts: list = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def log_weight_series(self):
        """(chains, retained) array of recorded log weights, or None."""
        if not self.transcripts:
            return None
        return np.array([t.log_weights for t in self.transcripts])


def geyer_ess(series) -> float:
    """Multi-chain effective sample size of an (m, n) array.

    Autocorrelations are pooled over chains as in Vehtari et al. 2021
    (arXiv:1903.08008, eq. 10, without rank normalization or splitting) and
    summed with Geyer's initial monotone sequence. Returns m * n / tau.
    """
    x = np.asarray(series, dtype=float)
    m, n = x.shape
    if n < 4:
        raise ValueError("need at least 4 draws per chain")
    xc = x - x.mean(axis=1, keepdims=True)
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(xc, nfft, axis=1)
    acov = np.fft.irfft(f * np.conj(f), nfft, axis=1)[:, :n] / n
    w = acov[:, 0].mean() * n / (n - 1)
    b_over_n = x.mean(axis=1).var(ddof=1) if m > 1 else 0.0
    var_plus = (n - 1) / n * w + b_over_n
    if var_plus <= 0.0:
        raise ValueError("constant series has no effective sample size")
    rho = 1.0 - (w - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    total, prev, t = 0.0, math.inf, 0
    while t + 1 < n:
        pair = rho[t] + rho[t + 1]
        if pair < 0.0:
            break
        prev = min(pair, prev)
        total += prev
        t += 2
    tau = max(-1.0 + 2.0 * total, 1.0 / math.log10(m * n))
    return m * n / tau


def _timed_chains(measure, spec, n_chains, out):
    t0 = time.perf_counter()
    trs = chains.run_chains(measure, spec, n_chains)
    out.sampling_s += time.perf_counter() - t0
    out.steps += n_chains * (spec.burn_in + spec.steps)
    out.transcripts.extend(trs)
    return trs


def _setup_starts(measure, specs, n_chains):
    for spec in specs:
        for c in range(n_chains):
            chains.initial_state(measure, spec, chains.chain_rng(spec.seed, c))


def _batch_marginals(transcripts, batches_per_chain):
    """Inclusion frequencies over contiguous batches of each chain's draws,
    (chains * batches_per_chain, n). Batches must be long against the
    chain's autocorrelation time for their spread to give a standard error."""
    rows = []
    for t in transcripts:
        for batch in np.array_split(np.arange(len(t)), batches_per_chain):
            m = np.zeros(t.n)
            for j in batch:
                m[list(t.states[j])] += 1.0
            rows.append(m / len(batch))
    return np.array(rows)


def _pooled_marginals_ok(est, batches, target):
    """Pooled marginals against the target, standard errors from batches.

    Two statistics, in batch standard errors: the expected cardinality (sum
    of marginals) and the mean absolute marginal error.
    """
    m = batches.shape[0]
    card = batches.sum(axis=1)
    card_se = card.std(ddof=1) / math.sqrt(m)
    card_ok = abs(est.sum() - target.sum()) <= Z_TOL * card_se + 1e-9
    elem_se = batches.std(axis=0, ddof=1) / math.sqrt(m)
    mean_err = float(np.mean(np.abs(est - target)))
    mean_ok = mean_err <= MEAN_ERR_TOL * float(np.mean(elem_se)) + 1e-9
    return bool(card_ok and mean_ok)


class Workload:
    name = ""

    def __init__(self, seed):
        self.seed = int(seed)

    def op_names(self):
        """Every operation one run attempts."""
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def run(self) -> RunOutput:
        raise NotImplementedError

    def check(self, out: RunOutput) -> dict:
        """{operation: passed} for every name in ``op_names()``."""
        raise NotImplementedError


class RbfCompare(Workload):
    """The fig1b-like preset: RBF kernel on 200 points in [0,1]^5, bw 0.5.

    Ten chains each of add-delete and projection at thin 10, then the
    compare diagnostics. A burn-in brings the slow-climbing projection
    chains to |S| near its mean (about 31), where the cache cost sits.
    """
    name = "rbf-compare"
    kinds = ("add-delete", "projection")

    def __init__(self, seed, tiny=False):
        super().__init__(seed)
        self.n_chains = 3 if tiny else 10
        self.burn_in = 6000 if tiny else 8000
        self.steps = 1500 if tiny else 2000
        self.points = input_rng(seed, 1).random((200, 5))

    def op_names(self):
        return [f"{k}/chain{c}" for k in self.kinds
                for c in range(self.n_chains)]

    def setup(self):
        self.measure = dpp.rbf_kernel(self.points, 0.5)
        self.specs = [chains.ChainSpec(k, steps=self.steps,
                                       burn_in=self.burn_in, thin=10,
                                       seed=self.seed) for k in self.kinds]
        _setup_starts(self.measure, self.specs, self.n_chains)

    def run(self):
        out = RunOutput()
        for spec in self.specs:
            trs = _timed_chains(self.measure, spec, self.n_chains, out)
            series = diagnostics.extract_summary(trs, "cardinality")
            diagnostics.psrf_curve(series)
        out.data["marginals"], _ = diagnostics.empirical_marginals(
            out.transcripts)
        return out

    def check(self, out):
        target = np.diag(dpp.l_to_marginal(self.measure))
        ok = _pooled_marginals_ok(out.data["marginals"],
                                  _batch_marginals(out.transcripts, 1),
                                  target)
        return {op: ok for op in self.op_names()}


class KdppExchange(Workload):
    """Exchange chain on a k-DPP: the spectrum-step kernel (N=60, 30
    eigenvalues at 500, 30 at 1/500) conditioned on |S| = 30.

    The default heaviest-singleton init fails on every k-homogeneous
    measure, so the chains start from random-positive sets.
    """
    name = "kdpp-exchange"

    def __init__(self, seed, tiny=False):
        super().__init__(seed)
        self.n_chains = 2 if tiny else 4
        self.steps = 1000 if tiny else 6000
        self.k = 30

    def op_names(self):
        return [f"exchange/chain{c}" for c in range(self.n_chains)]

    def setup(self):
        base = dpp.spectrum_step_kernel(60, 30, 500.0, 1.0 / 500.0,
                                        input_rng(self.seed, 2))
        self.measure = measures.CardinalityConditionedMeasure(base, self.k)
        self.spec = chains.ChainSpec("exchange", steps=self.steps, thin=10,
                                     seed=self.seed, init="random-positive")
        _setup_starts(self.measure, [self.spec], self.n_chains)

    def run(self):
        out = RunOutput()
        _timed_chains(self.measure, self.spec, self.n_chains, out)
        return out

    def check(self, out):
        L = self.measure.base.L
        verdicts = {}
        for op, t in zip(self.op_names(), out.transcripts):
            ok = len(t) > 0
            for state, lw in zip(t.states, t.log_weights):
                st = measures.SubsetState.from_indices(state, self.measure.n)
                ref = dpp.dpp_log_weight(L, st)
                if (st.cardinality != self.k
                        or abs(lw - ref) > LOG_WEIGHT_RTOL * abs(ref)):
                    ok = False
                    break
            verdicts[op] = ok
        return verdicts


class ProductTrace(Workload):
    """Add-delete on a product measure (N=100, q uniform in [0.25, 0.75]) at
    thin 1, then the diagnostics over every retained draw. The burn-in is
    about ten relaxation times of the climb from the heaviest singleton."""
    name = "product-trace"

    def __init__(self, seed, tiny=False):
        super().__init__(seed)
        self.n_chains = 4
        self.burn_in = 2000
        self.steps = 10000 if tiny else 25000
        self.q = input_rng(seed, 3).uniform(0.25, 0.75, 100)

    def op_names(self):
        return [f"add-delete/chain{c}" for c in range(self.n_chains)]

    def setup(self):
        self.measure = measures.ProductMeasure(self.q)
        self.spec = chains.ChainSpec("add-delete", steps=self.steps,
                                     burn_in=self.burn_in, thin=1,
                                     seed=self.seed)
        _setup_starts(self.measure, [self.spec], self.n_chains)

    def run(self):
        out = RunOutput()
        trs = _timed_chains(self.measure, self.spec, self.n_chains, out)
        out.data["marginals"], _ = diagnostics.empirical_marginals(trs)
        for stat in ("cardinality", "log_weight"):
            diagnostics.psrf_curve(diagnostics.extract_summary(trs, stat))
        return out

    def check(self, out):
        ok = _pooled_marginals_ok(out.data["marginals"],
                                  _batch_marginals(out.transcripts, 5),
                                  self.q)
        return {op: ok for op in self.op_names()}


def _fixture_suite(n, rng):
    """The `srmcmc check` fixtures at ground set size n."""
    A = rng.standard_normal((n, n))
    q = [0.3, 0.8, 0.5, 0.6, 0.4, 0.7, 0.55, 0.35]
    d = [2.0, 3.0, 1.5, 0.7, 2.5, 0.9, 1.2, 3.5]
    return [
        ("product", measures.ProductMeasure([q[i % 8] for i in range(n)])),
        ("diag-dpp", dpp.LEnsemble(np.diag([d[i % 8] for i in range(n)]))),
        ("k-conditioned-uniform", measures.CardinalityConditionedMeasure(
            measures.ProductMeasure([0.5] * n), n // 2)),
        ("random-psd-dpp", dpp.LEnsemble(A @ A.T / n)),
    ]


class ExactN16(Workload):
    """Exact oracles and the spectral sampler; no chain runs.

    Enumeration and exact marginals of a random-PSD L-ensemble at N=16,
    spectral draws checked against them, and the `srmcmc check` fixture
    suite: projection matrices, stationarity, detailed balance and TV mixing
    times against the theorem bound at N=8, lumping at N=6.
    """
    name = "exact-n16"
    eps_list = (0.05, 0.01)

    def __init__(self, seed, tiny=False):
        super().__init__(seed)
        self.n = 10 if tiny else 16
        self.mix_n = 6 if tiny else 8
        self.lump_n = 4 if tiny else 6
        self.draws = 1000 if tiny else 4000
        A = input_rng(seed, 4).standard_normal((self.n, self.n))
        self.psd = A @ A.T / self.n

    def op_names(self):
        names = ["enumerate+marginals", "spectral"]
        for fname in ("product", "diag-dpp", "k-conditioned-uniform",
                      "random-psd-dpp"):
            names += [f"{fname}/stationarity", f"{fname}/mixing",
                      f"{fname}/lumping"]
        return names

    def setup(self):
        self.measure = dpp.LEnsemble(self.psd)
        self.sampler = dpp.SpectralSampler(self.measure)
        seeds = input_rng(self.seed, 5)
        self.mix_fixtures = _fixture_suite(self.mix_n, seeds)
        self.lump_fixtures = _fixture_suite(self.lump_n, seeds)

    def run(self):
        out = RunOutput()
        dist = exact.enumerate_distribution(self.measure)
        out.data["exact_marginals"] = exact.exact_marginals(dist)
        rng = input_rng(self.seed, 6)
        counts = np.zeros(self.n)
        for _ in range(self.draws):
            counts += self.sampler.sample(rng).membership
        out.data["spectral_marginals"] = counts / self.draws
        fixtures = {}
        for name, m in self.mix_fixtures:
            fdist = exact.enumerate_distribution(m)
            tm = exact.transition_matrix(m, "projection")
            res = {"stationarity": exact.stationarity_check(tm, fdist),
                   "detailed_balance": exact.detailed_balance_check(tm, fdist)}
            mix = exact.tv_mixing_times_all(tm, fdist, list(self.eps_list))
            pi = exact.restrict_distribution(fdist, tm.states)
            res["mixing_slack"] = min(
                chains.theorem_bound(m.n, bin(mask).count("1"),
                                     math.log(pi[i]), eps) - mix[eps][i]
                for eps in self.eps_list for i, mask in enumerate(tm.states))
            fixtures[name] = res
        for name, m in self.lump_fixtures:
            try:
                lumped = exact.lumped_exchange_matrix(m)
            except ArithmeticError:
                fixtures[name]["lumping_diff"] = math.inf
                continue
            proj = exact.transition_matrix(m, "projection")
            fixtures[name]["lumping_diff"] = float(
                np.max(np.abs(lumped.P - proj.P)))
        out.data["fixtures"] = fixtures
        return out

    def check(self, out):
        target = np.diag(dpp.l_to_marginal(self.measure))
        exact_m = out.data["exact_marginals"]
        spec_m = out.data["spectral_marginals"]
        se = np.sqrt(exact_m * (1.0 - exact_m) / self.draws)
        verdicts = {
            "enumerate+marginals":
                float(np.max(np.abs(exact_m - target))) <= EXACT_TOL,
            "spectral": bool(np.all(np.abs(spec_m - exact_m)
                                    <= Z_TOL * se + 1e-12)),
        }
        for name, res in out.data["fixtures"].items():
            verdicts[f"{name}/stationarity"] = (
                res["stationarity"] <= EXACT_TOL
                and res["detailed_balance"] <= EXACT_TOL)
            verdicts[f"{name}/mixing"] = res["mixing_slack"] >= 0.0
            verdicts[f"{name}/lumping"] = res["lumping_diff"] <= LUMP_TOL
        return verdicts


WORKLOADS = {w.name: w for w in (RbfCompare, KdppExchange, ProductTrace,
                                 ExactN16)}
