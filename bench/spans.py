"""Span tracer that wraps the library's public functions from outside.

``installed(tracer)`` replaces each target in ``TARGETS`` (a module function
or a class method) with a wrapper that records one span (name, start, end,
parent) per call on an in-memory stack, and restores the originals on exit.
Self time is a span's duration minus the time its child spans cover.

Two pieces of the chain loop cannot be wrapped: the ``record`` closure inside
``chains.run_chain`` and the private ``_CachedDppOracle`` that forwards ratio
calls to the Cholesky cache. Their time lands in the self time of
``chains.run_chain``, as does the tracer's own bookkeeping between spans.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time
from array import array

import numpy as np

from workloads import chains, diagnostics, dpp, exact, measures

CACHE = dpp.CholeskyCache
TARGETS = [
    ("dpp.add_ratio", CACHE, "add_ratio"),
    ("dpp.delete_ratio", CACHE, "delete_ratio"),
    ("dpp.swap_ratio", CACHE, "swap_ratio"),
    ("dpp.apply_add", CACHE, "apply_add"),
    ("dpp.apply_delete", CACHE, "apply_delete"),
    ("dpp.apply_swap", CACHE, "apply_swap"),
    ("dpp.log_weight", dpp.LEnsemble, "log_weight"),
    ("dpp.spectral_sample", dpp.SpectralSampler, "sample"),
    ("measures.log_weight", measures.ProductMeasure, "log_weight"),
    ("measures.log_weight", measures.CardinalityConditionedMeasure,
     "log_weight"),
    ("measures.log_weight", measures.TableMeasure, "log_weight"),
    ("measures.log_weight", measures.SymmetricHomogenization, "log_weight"),
    ("measures.add_ratio", measures.MeasureOracle, "add_ratio"),
    ("measures.add_ratio", measures.ProductMeasure, "add_ratio"),
    ("measures.delete_ratio", measures.MeasureOracle, "delete_ratio"),
    ("measures.delete_ratio", measures.ProductMeasure, "delete_ratio"),
    ("measures.swap_ratio", measures.MeasureOracle, "swap_ratio"),
    ("measures.state_update", measures.SubsetState, "with_added"),
    ("measures.state_update", measures.SubsetState, "with_deleted"),
    ("measures.state_update", measures.SubsetState, "with_swapped"),
    ("chains.step_add_delete", chains, "step_add_delete"),
    ("chains.step_exchange", chains, "step_exchange"),
    ("chains.step_projection", chains, "step_projection"),
    ("chains.run_chain", chains, "run_chain"),
    ("chains.initial_state", chains, "initial_state"),
    ("diagnostics.extract_summary", diagnostics, "extract_summary"),
    ("diagnostics.psrf_curve", diagnostics, "psrf_curve"),
    ("diagnostics.empirical_marginals", diagnostics, "empirical_marginals"),
    ("exact.enumerate_distribution", exact, "enumerate_distribution"),
    ("exact.exact_marginals", exact, "exact_marginals"),
    ("exact.transition_matrix", exact, "transition_matrix"),
    ("exact.tv_mixing_times_all", exact, "tv_mixing_times_all"),
    ("exact.lumped_exchange_matrix", exact, "lumped_exchange_matrix"),
]
LAYER_FUNCS = list(dict.fromkeys(name for name, _, _ in TARGETS))
# Functions that make at least 1000 calls in a run of some workload; these
# also report per-call self-time percentiles.
PERCENTILE_FUNCS = [name for name in LAYER_FUNCS
                    if name.split(".")[0] in ("dpp", "measures")
                    or name.startswith("chains.step_")]
COUNT_METRICS = {
    "chains.accept_rate.add": "ratio",
    "chains.accept_rate.delete": "ratio",
    "chains.accept_rate.swap": "ratio",
    "chains.hold_share": "ratio",
    "dpp.cache.size_mean": "count",
    "dpp.cache.flagged": "count",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}


class Tracer:
    """In-memory span store plus the move and cache counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self.proposed = {"add": 0, "delete": 0, "swap": 0}
        self.accepted = {"add": 0, "delete": 0, "swap": 0}
        self.steps = 0
        self.holds = 0
        self.cache_size_sum = 0
        self.cache_size_n = 0
        self.flagged_caches = {}

    def wrap(self, name, fn, hook=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                hook(self, idx, args, result)
            return result

        return traced

    def _called_from_outside_cache(self, idx):
        """False for the nested cache calls a swap makes on its temporary copy."""
        parent = self.span_parent[idx]
        return parent < 0 or not self.names[
            self.span_name[parent]].startswith("dpp.")

    def arrays(self):
        return (np.frombuffer(self.span_name, dtype=np.uint16),
                np.frombuffer(self.span_parent, dtype=np.int64),
                np.frombuffer(self.span_start, dtype=np.int64),
                np.frombuffer(self.span_end, dtype=np.int64))

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, name=name, parent=parent, start=start,
                            end=end, name_table=json.dumps(self.names))


def _count_step(tracer, idx, args, result):
    outcome = result[1]
    tracer.steps += 1
    if outcome.kind == "hold":
        tracer.holds += 1
        return
    tracer.proposed[outcome.kind] += 1
    if outcome.accepted:
        tracer.accepted[outcome.kind] += 1


def _cache_size(tracer, idx, args, result):
    if tracer._called_from_outside_cache(idx):
        tracer.cache_size_sum += args[0].size
        tracer.cache_size_n += 1


def _cache_flag(tracer, idx, args, result):
    cache = args[0]
    if cache.flagged and tracer._called_from_outside_cache(idx):
        tracer.flagged_caches[id(cache)] = cache


HOOKS = {
    "chains.step_add_delete": _count_step,
    "chains.step_exchange": _count_step,
    "chains.step_projection": _count_step,
    "dpp.add_ratio": _cache_size,
    "dpp.delete_ratio": _cache_size,
    "dpp.swap_ratio": _cache_size,
    "dpp.apply_add": _cache_flag,
    "dpp.apply_delete": _cache_flag,
    "dpp.apply_swap": _cache_flag,
}


@contextlib.contextmanager
def installed(tracer):
    """Wrap every target for the duration of the block."""
    saved = []
    try:
        for name, owner, attr in TARGETS:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, HOOKS.get(name)))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _rate(num, den):
    return num / den if den else 0.0


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for func in LAYER_FUNCS:
        units[f"{func}.calls"] = "count"
        units[f"{func}.self_s"] = "s"
        if func in PERCENTILE_FUNCS:
            units[f"{func}.self_us_p50"] = "us"
            units[f"{func}.self_us_p99"] = "us"
    units.update(COUNT_METRICS)
    return units


def layer_metrics(tracer, traced_wall_s, untraced_wall_s):
    """{metric name: value} for every name in ``metric_units()``."""
    name, parent, start, end = tracer.arrays()
    dur = (end - start).astype(np.float64)
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested],
                          minlength=len(dur))
    self_ns = dur - covered
    out = {}
    for func in LAYER_FUNCS:
        nid = tracer._ids.get(func)
        sel = self_ns[name == nid] if nid is not None else self_ns[:0]
        out[f"{func}.calls"] = int(sel.size)
        out[f"{func}.self_s"] = float(sel.sum()) / 1e9
        if func in PERCENTILE_FUNCS:
            p50, p99 = (np.percentile(sel, [50, 99]) / 1e3 if sel.size
                        else (0.0, 0.0))
            out[f"{func}.self_us_p50"] = float(p50)
            out[f"{func}.self_us_p99"] = float(p99)
    for kind in ("add", "delete", "swap"):
        out[f"chains.accept_rate.{kind}"] = _rate(tracer.accepted[kind],
                                                  tracer.proposed[kind])
    out["chains.hold_share"] = _rate(tracer.holds, tracer.steps)
    out["dpp.cache.size_mean"] = _rate(tracer.cache_size_sum,
                                       tracer.cache_size_n)
    out["dpp.cache.flagged"] = len(tracer.flagged_caches)
    out["trace.overhead"] = traced_wall_s / untraced_wall_s
    out["trace.coverage"] = float(dur[~nested].sum()) / 1e9 / traced_wall_s
    return out
