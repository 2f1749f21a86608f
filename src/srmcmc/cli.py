"""Command-line surface: sample, exact, check, bound, compare.

All commands take a JSON config (``--config``) and an output directory
(``--out``). Unknown config keys are rejected so that misspelled knobs cannot
be silently ignored. Seed precedence: ``--seed`` flag, then the SR_MCMC_SEED
environment variable, then the config value.

Exit codes: 0 success, 1 invalid config or size limits, 2 numeric or
validation failure (including failed checks).
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import chains, diagnostics, dpp, exact, measures

ENV_SEED = "SR_MCMC_SEED"

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
    if asym > 1e-8:
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


def build_chain_spec(ccfg, kind=None, seed=None):
    _require_keys(ccfg, CHAIN_KEYS, "chain")
    return chains.ChainSpec(
        kind=kind or ccfg.get("kind", "projection"),
        steps=int(ccfg["steps"]),
        burn_in=int(ccfg.get("burn_in", 0)),
        thin=int(ccfg.get("thin", 1)),
        seed=int(seed if seed is not None else ccfg.get("seed", 0)),
        init=ccfg.get("init", "heaviest-singleton"),
        init_set=tuple(ccfg["init_set"]) if "init_set" in ccfg else None,
    )


def load_config(path):
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(cfg, TOP_KEYS, "config")
    return cfg


def resolve_seed(args, cfg):
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    env = os.environ.get(ENV_SEED)
    if env is not None:
        return int(env)
    return int(cfg.get("chain", {}).get("seed", 0))


def transcript_records(tr):
    for step, state, logw, move in zip(tr.steps, tr.states, tr.log_weights,
                                       tr.moves):
        kind = {"add": "add", "delete": "del", "swap": "swap",
                "hold": "hold"}[move.kind]
        yield {"step": step, "set": sorted(state), "logw": logw,
               "move": kind, "accepted": bool(move.accepted)}


def write_transcript(path, tr):
    with open(path, "w") as fh:
        for rec in transcript_records(tr):
            fh.write(json.dumps(rec) + "\n")


def cmd_sample(args):
    cfg = load_config(args.config)
    seed = resolve_seed(args, cfg)
    measure = build_measure(cfg["measure"], seed)
    ccfg = cfg.get("chain", {})
    spec = build_chain_spec(ccfg, seed=seed)
    n_chains = int(ccfg.get("chains", 1))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for c in range(n_chains):
        tr = chains.run_chain(measure, spec, stream=c)
        write_transcript(out / f"chain_{c:02d}.jsonl", tr)
    return 0


def cmd_exact(args):
    cfg = load_config(args.config)
    seed = resolve_seed(args, cfg)
    measure = build_measure(cfg["measure"], seed)
    if measure.n > exact.MAX_ENUM_N:
        print(f"error: exact enumeration needs N <= {exact.MAX_ENUM_N}, "
              f"got {measure.n}; use sampling instead", file=sys.stderr)
        return 1
    dist = exact.enumerate_distribution(measure)
    report = {
        "n": measure.n,
        "marginals": exact_list(exact.exact_marginals(dist)),
    }
    if measure.n <= 12:
        report["distribution"] = exact_list(dist.probs)
        holds, worst, witness = exact.check_log_submodular(measure)
        report["log_submodular"] = {
            "holds": bool(holds),
            "worst_slack": worst if math.isfinite(worst) else None,
            "witness": list(witness) if witness else None,
        }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "exact_report.json").write_text(json.dumps(report, indent=2))
    print(json.dumps(report, indent=2))
    return 0


def exact_list(a):
    return [float(v) for v in np.asarray(a)]


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


def cmd_check(args):
    cfg = load_config(args.config)
    seed = resolve_seed(args, cfg)
    eps_list = cfg.get("eps", [0.05, 0.01])
    if not isinstance(eps_list, list):
        eps_list = [eps_list]
    if not eps_list or not all(map(_is_eps, eps_list)):
        raise ConfigError(
            f"eps must be a nonempty list of numbers in (0, 1], got "
            f"{cfg['eps']!r}")
    literal = bool(args.paper_literal_delete)

    if "measure" in cfg:
        fixtures = [("configured", build_measure(cfg["measure"], seed))]
    else:
        fixtures = _fixture_suite(seed)

    report = {"paper_literal_delete": literal, "fixtures": []}
    ok = True
    for name, measure in fixtures:
        n = measure.n
        if n > 8:
            print(f"error: check needs N <= 8, fixture {name} has N = {n}",
                  file=sys.stderr)
            return 1
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
        dominated = True
        for eps in eps_list:
            for i, mask in enumerate(tm_corr.states):
                bound = chains.theorem_bound(n, bin(mask).count("1"),
                                             math.log(pi[i]), eps)
                if mix[eps][i] > bound:
                    dominated = False
        entry["bound_dominates"] = dominated
        report["fixtures"].append(entry)
        ok = ok and entry["stationary"] and entry.get("lumping_ok", True) \
            and dominated
    report["pass"] = ok
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "check_report.json").write_text(json.dumps(report, indent=2))
    print(json.dumps(report, indent=2))
    return 0 if ok else 2


def cmd_bound(args):
    cfg = load_config(args.config)
    seed = resolve_seed(args, cfg)
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
        spec = build_chain_spec(cfg.get("chain", {"steps": 1}), seed=seed)
        s0 = [int(i) for i in chains.initial_state(
            measure, spec, chains.chain_rng(seed)).indices()]
    S0 = measures.SubsetState.from_indices(s0, n)
    if "log_pi_S0" in bcfg:
        log_pi = float(bcfg["log_pi_S0"])
    else:
        dist = exact.enumerate_distribution(measure)
        log_pi = dist.log_prob(S0.bitmask())
    if log_pi == measures.NEG_INF:
        print("error: start set has zero probability", file=sys.stderr)
        return 2
    if eps == 1.0:
        print("warning: eps = 1 makes the bound degenerate", file=sys.stderr)
    k0 = S0.cardinality
    log_choose = measures.log_binomial(n, k0)
    tb = chains.theorem_bound(n, k0, log_pi, eps)
    eb = chains.exchange_bound(n, 2 * n, log_pi, eps)
    lines = [
        f"N = {n}, |S0| = {k0}, log pi(S0) = {log_pi:.6f}, eps = {eps}",
        f"  term log C(N,|S0|)   = {log_choose:.6f}",
        f"  term log 1/pi(S0)    = {-log_pi:.6f}",
        f"  term log 1/eps       = {math.log(1.0 / eps):.6f}",
        f"projection-chain bound  = {tb:.4f}",
        f"exchange bound (M=2N,k=N) = {eb:.4f}",
    ]
    print("\n".join(lines))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "bound.json").write_text(json.dumps({
        "n": n, "s0": sorted(s0), "log_pi_s0": log_pi, "eps": eps,
        "theorem_bound": tb, "exchange_bound": eb,
    }, indent=2))
    return 0


def cmd_compare(args):
    cfg = load_config(args.config)
    seed = resolve_seed(args, cfg)
    ccfg = cfg.get("chain", {})
    n_chains = int(ccfg.get("chains", diagnostics.DEFAULT_CHAINS))
    if n_chains < 2:
        print("error: compare needs at least 2 chains for PSRF",
              file=sys.stderr)
        return 1
    ccfg2 = dict(cfg.get("compare", {}))
    _require_keys(ccfg2, {"threshold", "stride", "statistics"}, "compare")
    threshold = float(ccfg2.get("threshold", diagnostics.DEFAULT_THRESHOLD))
    stride = ccfg2.get("stride")
    stats = ccfg2.get("statistics", ["cardinality"])
    measure = build_measure(cfg["measure"], seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    curves = []
    for kind in ("add-delete", "projection"):
        spec = build_chain_spec(ccfg, kind=kind, seed=seed)
        transcripts = chains.run_chains(measure, spec, n_chains)
        for stat in stats:
            key = tuple(stat) if isinstance(stat, list) else stat
            series = diagnostics.extract_summary(transcripts, key)
            curve = diagnostics.psrf_curve(series, stride=stride)
            curves.extend((kind, _stat_name(key), stop * spec.thin,
                           r if math.isfinite(r) else "inf")
                          for stop, r in curve)
            hit = diagnostics.first_crossing(curve, threshold)
            rows.append((kind, _stat_name(key),
                         hit[0] * spec.thin if hit else "",
                         "true" if hit and hit[1] else "false"))

    with open(out / "comparison.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["chain", "statistic", "iterations_to_threshold",
                    "censored"])
        w.writerows(rows)
    with open(out / "psrf_curves.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["chain", "statistic", "iteration", "psrf"])
        w.writerows(curves)
    for row in rows:
        print(",".join(map(str, row)))
    return 0


def _stat_name(stat):
    if isinstance(stat, tuple):
        return f"indicator_{stat[1]}"
    return stat


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
        return args.fn(args)
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
