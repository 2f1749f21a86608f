"""Benchmark runner: repeated set-up and timed runs of one workload, checks,
metrics, and the combined report over every workload.

``measure`` runs one workload in this process as a closed loop with one
caller. ``run_all`` runs every workload, untraced then traced, each in a
fresh child process so that peak memory is per workload.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans
from workloads import ROOT, WORKLOADS, geyer_ess

RUN_PY = Path(__file__).resolve().parent / "run.py"
MIN_REPS = 3
MIN_SETUPS = 5
SETUP_SHARE = 0.1  # of --seconds spent repeating the set-up
# A set-up sample times enough consecutive set-ups to last this long, so
# that sub-millisecond set-ups are not timed one by one.
SETUP_SAMPLE_S = 0.02

# Metrics printed for every workload, with units. Only those that are
# defined and nonzero on every workload are gated end-to-end metrics.
REPORTED = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s",
            "ess_per_s": "1/s", "peak_rss_mb": "MB", "error_rate": "ratio"}
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
# Untraced throughput, also reported by the traced run (0 on exact-n16).
THROUGHPUT = {"chains.steps_per_s": "steps_per_s",
              "chains.ess_per_s": "ess_per_s"}


@dataclass
class Rep:
    wall_s: float
    sampling_s: float
    steps: int
    ess: float | None


class Tally:
    """Operations attempted and failed across every run of a workload."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run_once(self, workload):
        """One timed run plus its checks; None if the run raised."""
        ops = workload.op_names()
        self.attempted += len(ops)
        t0 = time.perf_counter()
        try:
            out = workload.run()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += len(ops)
            return None
        wall = time.perf_counter() - t0
        try:
            verdicts = workload.check(out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            verdicts = {}
        bad = [op for op in ops if not verdicts.get(op, False)]
        if bad:
            print(f"check failed: {workload.name}: {', '.join(bad)}",
                  file=sys.stderr)
        self.failed += len(bad)
        series = out.log_weight_series()
        ess = geyer_ess(series) if series is not None else None
        return Rep(wall, out.sampling_s, out.steps, ess)


def _repeat(fn, deadline, min_count):
    """Call fn until min_count results and the next call would overrun."""
    results = []
    durations = []
    while True:
        t0 = time.perf_counter()
        results.append(fn())
        durations.append(time.perf_counter() - t0)
        if (len(results) >= min_count and time.perf_counter()
                + statistics.median(durations) > deadline):
            return results


def _setup_times(workload, budget_s):
    """Per-set-up seconds, one value per sample of consecutive set-ups."""
    t0 = time.perf_counter()
    workload.setup()
    first = time.perf_counter() - t0
    batch = max(1, math.ceil(SETUP_SAMPLE_S / max(first, 1e-9)))
    deadline = t0 + budget_s
    times = []
    while len(times) < MIN_SETUPS or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        for _ in range(batch):
            workload.setup()
        times.append((time.perf_counter() - t0) / batch)
    return times


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(name, seed, seconds, trace, tiny=False, spans_path=None):
    """Run one workload for about ``seconds``; returns the full result."""
    workload = WORKLOADS[name](seed, tiny=tiny)
    start = time.perf_counter()
    setup_times = _setup_times(workload, SETUP_SHARE * seconds)

    tally = Tally()
    timed_until = start + (seconds / 2 if trace else seconds)
    reps = [r for r in _repeat(lambda: tally.run_once(workload), timed_until,
                               1 if trace else MIN_REPS) if r is not None]
    if not reps:
        raise RuntimeError(f"every run of {name} raised")
    wall = _median([r.wall_s for r in reps])
    rates = [r.steps / r.sampling_s for r in reps if r.sampling_s > 0]
    ess_rates = [r.ess / r.wall_s for r in reps if r.ess is not None]
    values = {"wall_s": wall, "setup_s": _median(setup_times),
              "steps_per_s": _median(rates), "ess_per_s": _median(ess_rates)}
    layers = None
    if trace:
        tracer = spans.Tracer()
        with spans.installed(tracer):
            traced = tally.run_once(workload)
        if traced is None:
            raise RuntimeError(f"the traced run of {name} raised")
        layers = spans.layer_metrics(tracer, traced.wall_s, wall)
        for layer_name, e2e in THROUGHPUT.items():
            layers[layer_name] = values[e2e]
        if spans_path is not None:
            tracer.save(spans_path)
    values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0)
    values["error_rate"] = tally.failed / tally.attempted
    samples = {"wall_s": len(reps), "setup_s": len(setup_times),
               "steps_per_s": len(rates), "ess_per_s": len(ess_rates),
               "peak_rss_mb": 1, "error_rate": tally.attempted}
    return {"workload": name, "seed": seed, "seconds": seconds,
            "trace": trace, "attempted": tally.attempted,
            "failed": tally.failed, "values": values, "samples": samples,
            "layers": layers}


def layer_units():
    units = spans.metric_units()
    units.update({k: "1/s" for k in THROUGHPUT})
    return units


def result_line(result):
    """The one-line JSON result: end-to-end metrics, or per-layer if traced."""
    if result["trace"]:
        metrics = {k: {"value": result["layers"][k], "unit": u}
                   for k, u in layer_units().items()}
    else:
        metrics = {k: {"value": result["values"][k], "unit": REPORTED[k]}
                   for k in END_TO_END}
    return json.dumps({"correct": result["failed"] == 0,
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def report_lines(result):
    name = result["workload"]
    lines = [f"{name} {metric} {result['values'][metric]:.6g} {unit} "
             f"n={result['samples'][metric]}"
             for metric, unit in REPORTED.items()]
    layers = result["layers"]
    if layers is not None:
        units = layer_units()
        for key, value in layers.items():
            line = f"{name} {key} {value:.6g} {units[key]}"
            func, _, stat = key.rpartition(".")
            if stat in ("self_us_p50", "self_us_p99"):
                line += f" n={layers[func + '.calls']}"
            lines.append(line)
    return lines


def _git_commit():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas():
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def environment():
    import numpy
    import scipy
    return {"git_commit": _git_commit(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": _blas(),
            "threads": {var: value for var, value in os.environ.items()
                        if var.endswith("_NUM_THREADS")}}


def run_all(seed, seconds, out_dir, label):
    """Every workload untraced then traced, each in a child process.

    Writes ``BENCH_<label>.json`` (and the span files) to ``out_dir`` when
    given; prints every reported metric. Returns the exit code.
    """
    out = Path(out_dir) if out_dir else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    results = []
    failed = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(RUN_PY), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace), "--detail"]
            if out is not None and trace:
                cmd += ["--spans", str(out / f"spans_{name}.npz")]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exit {proc.returncode}")
                failed += 1
                continue
            detail = json.loads(proc.stdout.splitlines()[-2])
            results.append(detail)
            for line in report_lines(detail):
                print(line)
    bench = {"label": label, "seed": seed, "seconds": seconds,
             "environment": environment(), "results": results}
    if out is not None:
        path = out / f"BENCH_{label}.json"
        path.write_text(json.dumps(bench, indent=1) + "\n")
        print(f"wrote {path}")
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: directory for "
                        "BENCH_<label>.json and the span files")
    parser.add_argument("--label", help="with --workload all: result label "
                        "(default: short git commit)")
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    parser.add_argument("--detail", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        label = args.label or _git_commit()[:7]
        return run_all(args.seed, args.seconds, args.out, label)
    result = measure(args.workload, args.seed, args.seconds, args.trace,
                     spans_path=args.spans)
    for line in report_lines(result):
        print(line)
    if args.detail:
        print(json.dumps(result))
    print(result_line(result))
    return 0
