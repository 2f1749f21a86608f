"""Command-line surface: sample, exact, check, bound, compare.

All commands take a JSON config (``--config``) and an output directory
(``--out``). Each runs in one pass: :func:`main` reads the config and the
seed (``--seed``, else ``chain.seed``, else 0), the command checks every input
and then does its work, and the output directory is made at the first write,
so a rejected config leaves nothing behind. An ``--out`` that is a file or
lies under one is refused before any of that. Unknown config keys are rejected
so that misspelled knobs cannot be silently ignored.

Exit codes: 0 success, 1 invalid config, size limits or a file that cannot
be read or written, 2 numeric or validation failure (including failed
checks).
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import chains, diagnostics, dpp, exact, measures

DPP_KEYS = {"kind", "kernel_path", "rbf", "spectrum_step", "preset"}
MEASURE_KEYS = {"dpp-L": DPP_KEYS, "dpp-K": DPP_KEYS,
                "product": {"kind", "q"}, "product-k": {"kind", "q", "k"},
                "table": {"kind", "weights"}}
MEASURE_KINDS = tuple(MEASURE_KEYS)
CHAIN_KEYS = {"kind", "steps", "burn_in", "thin", "chains", "seed", "init",
              "init_set"}
SECTION_KEYS = {"measure": set().union(*MEASURE_KEYS.values()),
                "chain": CHAIN_KEYS,
                "bound": {"S0", "eps", "log_pi_S0"},
                "compare": {"threshold", "stride", "statistics"}}


class ConfigError(ValueError):
    pass


def _require_keys(obj, allowed, context):
    if not isinstance(obj, dict):
        raise ConfigError(f"{context} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(unknown)}")


def _required(cfg, key, prefix=""):
    """``cfg[key]``; a missing key is a ConfigError naming ``prefix`` + key,
    such as ``measure.q``."""
    if key not in cfg:
        raise ConfigError(f"{prefix}{key} is required")
    return cfg[key]


def _read_csv(path, what):
    """Read a matrix from headerless CSV with per-cell diagnostics."""
    rows = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            vals = []
            for col, cell in enumerate(row, start=1):
                try:
                    v = float(cell)
                except ValueError:
                    raise ConfigError(
                        f"{path}:{lineno}:{col}: not a number: {cell!r}")
                if not math.isfinite(v):
                    raise ConfigError(
                        f"{path}:{lineno}:{col}: non-finite entry {v}")
                vals.append(v)
            rows.append(vals)
    if not rows:
        raise ConfigError(f"{path}: empty {what} file")
    if len({len(r) for r in rows}) != 1:
        raise ConfigError(f"{path}: {what} rows differ in length")
    return np.array(rows)


def load_kernel_csv(path):
    """Read an N x N kernel from headerless CSV; it must pass the kernel
    layer's square and symmetry checks."""
    M = _read_csv(path, "kernel")
    try:
        dpp._check_symmetric(M, "kernel")
    except dpp.KernelValidationError as e:
        raise ConfigError(f"{path}: {e}") from None
    return M


def _preset_measure(name, seed):
    rng = chains.chain_rng(seed, stream=10_000)
    if name == "fig1b-like":
        # Stand-in data: 200 points i.i.d. uniform in [0,1]^5, bandwidth 0.5.
        pts = rng.random((200, 5))
        return dpp.rbf_kernel(pts, 0.5)
    if name == "fig1c-like":
        return dpp.spectrum_step_kernel(200, 100, 500.0, 1.0 / 500.0, rng)
    raise ConfigError(f"unknown preset {name!r}")


def build_measure(mcfg, seed):
    kind = mcfg.get("kind")
    if kind not in MEASURE_KINDS:
        raise ConfigError(f"measure.kind must be one of {MEASURE_KINDS}")
    _require_keys(mcfg, MEASURE_KEYS[kind], f"{kind} measure")
    if kind in ("dpp-L", "dpp-K"):
        sources = [key for key in mcfg if key != "kind"]
        if len(sources) != 1:
            raise ConfigError(
                "dpp measures need exactly one of kernel_path / rbf / "
                "spectrum_step / preset")
        src = sources[0]
        if src == "kernel_path":
            M = load_kernel_csv(mcfg["kernel_path"])
            if kind == "dpp-K":
                return dpp.marginal_to_l(M)
            return dpp.LEnsemble(M)
        if kind == "dpp-K":
            raise ConfigError("synthetic kernels are L-ensembles; use dpp-L")
        if src == "preset":
            return _preset_measure(mcfg["preset"], seed)
        if src == "rbf":
            r = mcfg["rbf"]
            _require_keys(r, {"points_path", "bandwidth"}, "rbf")
            bandwidth = _scalar(r, "rbf", "bandwidth", float)
            pts = _read_csv(_required(r, "points_path", "rbf."), "points")
            return dpp.rbf_kernel(pts, bandwidth)
        s = mcfg["spectrum_step"]
        _require_keys(s, {"N", "k", "hi", "lo", "seed"}, "spectrum_step")
        rng = chains.chain_rng(
            _scalar(s, "spectrum_step", "seed", int, seed), stream=10_001)
        return dpp.spectrum_step_kernel(
            _scalar(s, "spectrum_step", "N"), _scalar(s, "spectrum_step", "k"),
            _scalar(s, "spectrum_step", "hi", float),
            _scalar(s, "spectrum_step", "lo", float), rng)
    if kind == "product":
        return measures.ProductMeasure(_numbers(mcfg, "q"))
    if kind == "product-k":
        return measures.CardinalityConditionedMeasure(
            measures.ProductMeasure(_numbers(mcfg, "q")),
            _scalar(mcfg, "measure", "k"))
    return measures.TableMeasure(_numbers(mcfg, "weights"))


def _numbers(mcfg, key):
    """``measure.<key>``; it must be a list of JSON numbers, not bools."""
    value = _required(mcfg, key, "measure.")
    if type(value) is not list or {type(v) for v in value} - {int, float}:
        raise ConfigError(f"measure.{key} must be a list of numbers")
    return value


def _scalar(cfg, section, key, kind=int, default=None):
    """``<section>.<key>`` (``default`` when absent; required without one)
    as ``kind``: int takes only a JSON integer, float any JSON number, and
    neither takes a bool."""
    value = (cfg.get(key, default) if default is not None
             else _required(cfg, key, f"{section}."))
    if type(value) not in ((int,) if kind is int else (int, float)):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{section}.{key} must be {what}, got {value!r}")
    return kind(value)


def _elements(cfg, section, key, n):
    """``<section>.<key>`` as a tuple; it must list distinct ints in [0, n)."""
    value = cfg[key]
    if (type(value) is not list
            or any(type(i) is not int or not 0 <= i < n for i in value)
            or len(set(value)) != len(value)):
        raise ConfigError(
            f"{section}.{key} must be a list of distinct ints in [0, {n})")
    return tuple(value)


def build_chain_spec(ccfg, seed, n, kind=None):
    return chains.ChainSpec(
        kind=kind or ccfg.get("kind", "projection"),
        steps=_scalar(ccfg, "chain", "steps"),
        burn_in=_scalar(ccfg, "chain", "burn_in", int, 0),
        thin=_scalar(ccfg, "chain", "thin", int, 1),
        seed=seed,
        init=ccfg.get("init", "heaviest-singleton"),
        init_set=(_elements(ccfg, "chain", "init_set", n)
                  if "init_set" in ccfg else None),
    )


def load_config(path):
    with open(path) as fh:
        cfg = json.load(fh)
    _require_keys(cfg, {"eps", *SECTION_KEYS}, "config")
    for key, allowed in SECTION_KEYS.items():
        _require_keys(cfg.get(key, {}), allowed, key)
    return cfg


def _create(path):
    """Open ``path`` for writing, making its directory first."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", newline="")


def _write_report(path, report, text=None):
    """Write ``report`` as JSON to ``path`` and print ``text``, by default
    the JSON itself."""
    body = json.dumps(report, indent=2)
    with _create(path) as fh:
        fh.write(body)
    print(body if text is None else text)


def _write_csv(path, header, rows):
    with _create(path) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_transcript(path, tr):
    with _create(path) as fh:
        for step, state, logw, move in zip(tr.steps, tr.states,
                                           tr.log_weights, tr.moves):
            fh.write(json.dumps({
                "step": step, "set": list(state), "logw": logw,
                "move": "del" if move.kind == "delete" else move.kind,
                "accepted": bool(move.accepted)}) + "\n")


def cmd_sample(args, cfg, seed, out):
    ccfg = cfg.get("chain", {})
    n_chains = _scalar(ccfg, "chain", "chains", int, 1)
    if n_chains < 1:
        raise ConfigError(f"chain.chains must be >= 1, got {n_chains}")
    measure = build_measure(_required(cfg, "measure"), seed)
    spec = build_chain_spec(ccfg, seed, measure.n)
    for c in range(n_chains):
        tr = chains.run_chain(measure, spec, stream=c)
        write_transcript(out / f"chain_{c:02d}.jsonl", tr)
    return 0


def cmd_exact(args, cfg, seed, out):
    measure = build_measure(_required(cfg, "measure"), seed)
    dist = exact.enumerate_distribution(measure)
    report = {"n": measure.n,
              "marginals": exact.exact_marginals(dist).tolist()}
    if measure.n <= 12:
        report["distribution"] = dist.probs.tolist()
        holds, worst, witness = exact.check_log_submodular(measure)
        report["log_submodular"] = {
            "holds": bool(holds),
            "worst_slack": worst if math.isfinite(worst) else None,
            "witness": list(witness) if witness else None,
        }
    _write_report(out / "exact_report.json", report)
    return 0


def _fixture_suite(seed):
    rng = chains.chain_rng(seed, stream=20_000)
    suite = [("product", measures.ProductMeasure([0.3, 0.8, 0.5, 0.6])),
             ("diag-dpp", dpp.LEnsemble(np.diag([2.0, 3.0]))),
             ("k-conditioned-uniform",
              measures.CardinalityConditionedMeasure(
                  measures.ProductMeasure([0.5] * 4), 2))]
    A = rng.standard_normal((4, 4))
    suite.append(("random-psd-dpp", dpp.LEnsemble(A @ A.T / 4.0)))
    return suite


def _is_eps(e):
    """True for one number in (0, 1]; booleans are not numbers here."""
    return type(e) in (int, float) and 0.0 < e <= 1.0


def cmd_check(args, cfg, seed, out):
    eps_list = cfg.get("eps", [0.05, 0.01])
    if not isinstance(eps_list, list):
        eps_list = [eps_list]
    if not eps_list or not all(map(_is_eps, eps_list)):
        raise ConfigError(
            f"eps must be a nonempty list of numbers in (0, 1], got "
            f"{cfg['eps']!r}")
    literal = bool(args.paper_literal_delete)

    if "measure" in cfg:
        measure = build_measure(cfg["measure"], seed)
        if measure.n > 8:
            raise ConfigError(f"check needs N <= 8, got N = {measure.n}")
        fixtures = [("configured", measure)]
    else:
        fixtures = _fixture_suite(seed)

    report = {"paper_literal_delete": literal, "fixtures": []}
    ok = True
    for name, measure in fixtures:
        n = measure.n
        dist = exact.enumerate_distribution(measure)
        entry = {"name": name, "n": n}
        tm_corr = exact.transition_matrix(measure, "projection")
        tm = (exact.transition_matrix(measure, "projection",
                                      paper_literal_delete=True)
              if literal else tm_corr)
        entry["stationarity_residual"] = exact.stationarity_check(tm, dist)
        entry["detailed_balance_residual"] = exact.detailed_balance_check(tm, dist)
        entry["stationary"] = entry["stationarity_residual"] <= 1e-10
        if n <= 6:
            try:
                lum = exact.lumped_exchange_matrix(measure)
                diff = float(np.max(np.abs(lum.P - tm_corr.P)))
                entry["lumping_max_diff"] = diff
                entry["lumping_ok"] = diff <= exact.LUMP_TOL
            except ArithmeticError as e:
                entry["lumping_ok"] = False
                entry["lumping_error"] = str(e)
        mix = exact.tv_mixing_times_all(tm_corr, dist, eps_list)
        pi = exact.restrict_distribution(dist, tm_corr.states)
        dominated = all(
            mix[eps][i] <= chains.theorem_bound(n, bin(mask).count("1"),
                                                math.log(pi[i]), eps)
            for eps in eps_list for i, mask in enumerate(tm_corr.states))
        entry["bound_dominates"] = dominated
        report["fixtures"].append(entry)
        ok = ok and entry["stationary"] and entry.get("lumping_ok", True) \
            and dominated
    report["pass"] = ok
    _write_report(out / "check_report.json", report)
    return 0 if ok else 2


def cmd_bound(args, cfg, seed, out):
    bcfg = cfg.get("bound", {})
    eps = bcfg.get("eps", cfg.get("eps", 0.05))
    if not _is_eps(eps):
        raise ConfigError(f"eps must be one number in (0, 1], got {eps!r}")
    eps = float(eps)
    measure = build_measure(_required(cfg, "measure"), seed)
    n = measure.n
    s0 = _elements(bcfg, "bound", "S0", n) if "S0" in bcfg else None
    if s0 is None:
        # No chain runs here, so chain.steps is not needed.
        spec = build_chain_spec({"steps": 0, **cfg.get("chain", {})}, seed, n)
        s0 = chains.initial_state(
            measure, spec, chains.chain_rng(seed)).indices().tolist()
    S0 = measures.SubsetState.from_indices(s0, n)
    if "log_pi_S0" in bcfg:
        log_pi = _scalar(bcfg, "bound", "log_pi_S0", float)
    else:
        log_pi = exact.enumerate_distribution(measure).log_prob(S0.bitmask())
    if log_pi == measures.NEG_INF:
        print("error: start set has zero probability", file=sys.stderr)
        return 2
    if eps == 1.0:
        print("warning: eps = 1 makes the bound degenerate", file=sys.stderr)
    k0 = S0.cardinality
    log_choose = measures.log_binomial(n, k0)
    tb = chains.theorem_bound(n, k0, log_pi, eps)
    lines = [
        f"N = {n}, |S0| = {k0}, log pi(S0) = {log_pi:.6f}, eps = {eps}",
        f"  term log C(N,|S0|)   = {log_choose:.6f}",
        f"  term log 1/pi(S0)    = {-log_pi:.6f}",
        f"  term log 1/eps       = {math.log(1.0 / eps):.6f}",
        f"projection-chain bound  = {tb:.4f}",
    ]
    _write_report(out / "bound.json", {
        "n": n, "s0": sorted(s0), "log_pi_s0": log_pi, "eps": eps,
        "theorem_bound": tb,
    }, "\n".join(lines))
    return 0


def cmd_compare(args, cfg, seed, out):
    ccfg = cfg.get("chain", {})
    n_chains = _scalar(ccfg, "chain", "chains", int, diagnostics.DEFAULT_CHAINS)
    if n_chains < 2:
        raise ConfigError("compare needs at least 2 chains for PSRF")
    pcfg = cfg.get("compare", {})
    threshold = pcfg.get("threshold", diagnostics.DEFAULT_THRESHOLD)
    diagnostics.check_threshold(threshold)
    stride = pcfg.get("stride")
    diagnostics.check_stride(stride)
    stats = pcfg.get("statistics", ["cardinality"])
    if type(stats) is not list or not stats:
        raise ConfigError("compare.statistics must be a nonempty list")
    stats = [tuple(s) if isinstance(s, list) else s for s in stats]
    measure = build_measure(_required(cfg, "measure"), seed)
    specs = [build_chain_spec(ccfg, seed, measure.n, kind)
             for kind in ("add-delete", "projection")]
    draws = specs[0].steps // specs[0].thin
    if draws < 2:
        raise ConfigError("compare needs chain.steps >= 2 * chain.thin, so "
                          "that each chain keeps at least 2 draws for PSRF")
    if stride is not None and stride > draws:
        raise ConfigError(f"compare.stride {stride} exceeds the {draws} "
                          "draws each chain keeps")
    for stat in stats:
        diagnostics.check_statistic(stat, measure.n)

    rows = []
    curves = []
    for spec in specs:
        transcripts = chains.run_chains(measure, spec, n_chains)
        for stat in stats:
            name = f"indicator_{stat[1]}" if isinstance(stat, tuple) else stat
            curve = diagnostics.psrf_curve(
                diagnostics.extract_summary(transcripts, stat), stride=stride)
            curves.extend((spec.kind, name, stop * spec.thin,
                           r if math.isfinite(r) else "inf")
                          for stop, r in curve)
            hit = diagnostics.first_crossing(curve, threshold)
            rows.append((spec.kind, name, hit[0] * spec.thin if hit else "",
                         "true" if hit and hit[1] else "false"))

    _write_csv(out / "comparison.csv",
               ["chain", "statistic", "iterations_to_threshold", "censored"],
               rows)
    _write_csv(out / "psrf_curves.csv",
               ["chain", "statistic", "iteration", "psrf"], curves)
    for row in rows:
        print(",".join(map(str, row)))
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="srmcmc",
                                description="Subset-measure MCMC toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn in (("sample", cmd_sample), ("exact", cmd_exact),
                     ("check", cmd_check), ("bound", cmd_bound),
                     ("compare", cmd_compare)):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", required=True)
        sp.add_argument("--seed", type=int, default=None)
        if name == "check":
            sp.add_argument("--paper-literal-delete", action="store_true")
        sp.set_defaults(fn=fn)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        out = Path(args.out)
        # Refuse an --out that could not be made, before any work.
        near = next((p for p in (out, *out.parents) if p.exists()), out)
        if not near.is_dir():
            raise NotADirectoryError(f"--out {out}: {near} is not a directory")
        cfg = load_config(args.config)
        seed = (args.seed if args.seed is not None
                else _scalar(cfg.get("chain", {}), "chain", "seed", int, 0))
        return args.fn(args, cfg, seed, out)
    except (ArithmeticError, np.linalg.LinAlgError,
            dpp.KernelValidationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ConfigError, OSError, json.JSONDecodeError, KeyError,
            ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
