"""Command-line surface: sample, exact, check, bound, compare.

All commands take a JSON config (``--config``) and an output directory
(``--out``). Each runs in one pass: :func:`main` reads the config and the
seed (``--seed``, else ``chain.seed``, else 0), the command checks every input
and then does its work, and the output directory is made at the first write,
so a rejected config leaves nothing behind. Unknown config keys are rejected
so that misspelled knobs cannot be silently ignored.

Exit codes: 0 success, 1 invalid config or size limits, 2 numeric or
validation failure (including failed checks).
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

MEASURE_KINDS = ("dpp-L", "dpp-K", "product", "product-k", "table")
MEASURE_KEYS = {
    "kind", "kernel_path", "rbf", "spectrum_step", "preset", "q", "k",
    "weights",
}
CHAIN_KEYS = {"kind", "steps", "burn_in", "thin", "chains", "seed", "init",
              "init_set"}
TOP_KEYS = {"measure", "chain", "eps", "bound", "compare"}


class ConfigError(ValueError):
    pass


def _require_keys(obj, allowed, context):
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(unknown)}")


def load_kernel_csv(path):
    """Read an N x N kernel from headerless CSV with per-cell diagnostics."""
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
        raise ConfigError(f"{path}: empty kernel file")
    widths = {len(r) for r in rows}
    if len(widths) != 1 or widths.pop() != len(rows):
        raise ConfigError(f"{path}: kernel must be square")
    M = np.array(rows)
    asym = float(np.max(np.abs(M - M.T)))
    if asym > dpp.SYMMETRY_TOL:
        i, j = np.unravel_index(np.argmax(np.abs(M - M.T)), M.shape)
        raise ConfigError(
            f"{path}: asymmetric at row {i + 1}, col {j + 1} (|diff|={asym:.3e})")
    return M


def write_kernel_csv(path, M):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        for row in np.asarray(M):
            w.writerow([repr(float(v)) for v in row])


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
    _require_keys(mcfg, MEASURE_KEYS, "measure")
    kind = mcfg.get("kind")
    if kind not in MEASURE_KINDS:
        raise ConfigError(f"measure.kind must be one of {MEASURE_KINDS}")
    if kind in ("dpp-L", "dpp-K"):
        sources = [key for key in ("kernel_path", "rbf", "spectrum_step",
                                   "preset") if key in mcfg]
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
            pts = np.loadtxt(r["points_path"], delimiter=",", ndmin=2)
            return dpp.rbf_kernel(pts, float(r["bandwidth"]))
        s = mcfg["spectrum_step"]
        _require_keys(s, {"N", "k", "hi", "lo", "seed"}, "spectrum_step")
        rng = chains.chain_rng(s.get("seed", seed), stream=10_001)
        return dpp.spectrum_step_kernel(int(s["N"]), int(s["k"]),
                                        float(s["hi"]), float(s["lo"]), rng)
    if kind == "product":
        return measures.ProductMeasure(mcfg["q"])
    if kind == "product-k":
        return measures.CardinalityConditionedMeasure(
            measures.ProductMeasure(mcfg["q"]), int(mcfg["k"]))
    return measures.TableMeasure(mcfg["weights"])


def build_chain_spec(ccfg, seed, kind=None):
    _require_keys(ccfg, CHAIN_KEYS, "chain")
    return chains.ChainSpec(
        kind=kind or ccfg.get("kind", "projection"),
        steps=int(ccfg["steps"]),
        burn_in=int(ccfg.get("burn_in", 0)),
        thin=int(ccfg.get("thin", 1)),
        seed=seed,
        init=ccfg.get("init", "heaviest-singleton"),
        init_set=tuple(ccfg["init_set"]) if "init_set" in ccfg else None,
    )


def load_config(path):
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(cfg, TOP_KEYS, "config")
    for key in TOP_KEYS - {"eps"}:
        if not isinstance(cfg.get(key, {}), dict):
            raise ConfigError(f"{key} must be a JSON object")
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
                "step": step, "set": sorted(state), "logw": logw,
                "move": "del" if move.kind == "delete" else move.kind,
                "accepted": bool(move.accepted)}) + "\n")


def cmd_sample(args, cfg, seed, out):
    measure = build_measure(cfg["measure"], seed)
    ccfg = cfg.get("chain", {})
    spec = build_chain_spec(ccfg, seed)
    for c in range(int(ccfg.get("chains", 1))):
        tr = chains.run_chain(measure, spec, stream=c)
        write_transcript(out / f"chain_{c:02d}.jsonl", tr)
    return 0


def cmd_exact(args, cfg, seed, out):
    measure = build_measure(cfg["measure"], seed)
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
    return (isinstance(e, (int, float)) and not isinstance(e, bool)
            and 0.0 < e <= 1.0)


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
                entry["lumping_ok"] = diff <= 1e-12
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
    _require_keys(bcfg, {"S0", "eps", "log_pi_S0"}, "bound")
    eps = bcfg.get("eps", cfg.get("eps", 0.05))
    if not _is_eps(eps):
        raise ConfigError(f"eps must be one number in (0, 1], got {eps!r}")
    eps = float(eps)
    measure = build_measure(cfg["measure"], seed)
    n = measure.n
    s0 = bcfg.get("S0")
    if s0 is None:
        spec = build_chain_spec(cfg.get("chain", {"steps": 1}), seed)
        s0 = [int(i) for i in chains.initial_state(
            measure, spec, chains.chain_rng(seed)).indices()]
    S0 = measures.SubsetState.from_indices(s0, n)
    if "log_pi_S0" in bcfg:
        log_pi = float(bcfg["log_pi_S0"])
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
    # The lift R0 of S0 to the symmetric homogenization (2N elements, N-
    # homogeneous) has pi_sh(R0) = pi(S0) / C(N, |S0|).
    eb = chains.exchange_bound(n, 2 * n, log_pi - log_choose, eps)
    lines = [
        f"N = {n}, |S0| = {k0}, log pi(S0) = {log_pi:.6f}, eps = {eps}",
        f"  term log C(N,|S0|)   = {log_choose:.6f}",
        f"  term log 1/pi(S0)    = {-log_pi:.6f}",
        f"  term log 1/eps       = {math.log(1.0 / eps):.6f}",
        f"projection-chain bound  = {tb:.4f}",
        f"exchange bound (M=2N,k=N) = {eb:.4f}",
    ]
    _write_report(out / "bound.json", {
        "n": n, "s0": sorted(s0), "log_pi_s0": log_pi, "eps": eps,
        "theorem_bound": tb, "exchange_bound": eb,
    }, "\n".join(lines))
    return 0


def cmd_compare(args, cfg, seed, out):
    ccfg = cfg.get("chain", {})
    n_chains = int(ccfg.get("chains", diagnostics.DEFAULT_CHAINS))
    if n_chains < 2:
        raise ConfigError("compare needs at least 2 chains for PSRF")
    pcfg = cfg.get("compare", {})
    _require_keys(pcfg, {"threshold", "stride", "statistics"}, "compare")
    threshold = float(pcfg.get("threshold", diagnostics.DEFAULT_THRESHOLD))
    diagnostics.check_threshold(threshold)
    stride = pcfg.get("stride")
    stats = [tuple(s) if isinstance(s, list) else s
             for s in pcfg.get("statistics", ["cardinality"])]
    if not stats:
        raise ConfigError("compare.statistics must not be empty")
    measure = build_measure(cfg["measure"], seed)
    for stat in stats:
        diagnostics.check_statistic(stat, measure.n)
    specs = [build_chain_spec(ccfg, seed, kind)
             for kind in ("add-delete", "projection")]

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
        cfg = load_config(args.config)
        seed = (args.seed if args.seed is not None
                else int(cfg.get("chain", {}).get("seed", 0)))
        return args.fn(args, cfg, seed, Path(args.out))
    except (ConfigError, FileNotFoundError, json.JSONDecodeError, KeyError,
            ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        # Kernel validation is a numeric failure, not a config problem.
        return 2 if isinstance(e, dpp.KernelValidationError) else 1
    except (ArithmeticError, np.linalg.LinAlgError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
