"""soundloc benchmark: one workload per process, one thread, a closed loop.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> [--seconds <s>]

Run from the repository root; see perfbench/README.md. A workload makes its
inputs from the seed in a child process, then repeats rounds of set-up and
operations until ``--seconds`` have passed, checks every output and prints
one JSON line: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``. Details go to
``perfbench/out/results/``.

``--workload all`` runs every workload untraced and then traced, one process
at a time, and prints every metric with its unit and every traced report.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:   # must precede the first numpy import
    os.environ[_var] = "1"

import argparse
import fcntl
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from laps import CpuPicker, LapClock, best as best_of_laps

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
RESULTS = OUT / "results"

# Workload-specific names for the generic end-to-end metrics.
NAMES = {
    "train_desk": ("train_videos_per_s", "train_step_ms"),
    "predict_short": ("predict_timesteps_per_s", "predict_ms"),
    "predict_long": ("predict_timesteps_per_s", "predict_ms"),
    "eval_dense": ("eval_detections_per_s", "eval_ms"),
}


def fail(message: str, code: int = 2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def import_soundloc():
    """Import soundloc from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "soundloc" / "__init__.py").is_file():
        fail(f"no soundloc sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import soundloc
    if Path(soundloc.__file__).resolve().parent != (SRC / "soundloc").resolve():
        fail(f"imported soundloc from {soundloc.__file__}, not {SRC}")


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def result_path(args, trace: int) -> Path:
    return RESULTS / f"{args.workload}.{args.size}.seed{args.seed}.trace{trace}.json"


def best_of_rounds(samples) -> dict:
    """Each unit of work's time with the least interference.

    On a shared machine a neighbour can slow every instruction by a third or
    more for stretches of up to a few hundred milliseconds. A unit's time is
    the sum over its laps of each lap's fastest repeat (see laps.py), so a
    run reports the median over units of these times, and throughput from
    their sum; the medians and tail over whole samples are kept beside them.
    """
    repeats: dict = {}
    for unit, laps, _ in samples:
        repeats.setdefault(unit, []).append(laps)
    return {unit: best_of_laps(r) for unit, r in repeats.items()}


def tail(samples: list[float]):
    """Highest percentile with at least 10 samples beyond it.

    None unless that percentile lies above the median (21 samples or more).
    """
    n = len(samples)
    if n < 21:
        return None
    return {"value": sorted(samples)[n - 11], "percentile": 100.0 * (n - 10) / n,
            "samples_beyond": 10, "samples": n}


def run_context(args, picker_stats: dict) -> dict:
    import numpy
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "cpu_picker": picker_stats,
    }


def trace_report(tracer, units: dict, coverage: float,
                 overhead: dict | None) -> dict:
    """Self time per module and phase, coverage, and tracing overhead."""
    self_ns, _, root_ns, root_self_ns = tracer.aggregate()
    phases = {}
    for phase, unit_count in units.items():
        modules: dict[str, float] = {}
        for (p, name), ns in self_ns.items():
            if p == phase:
                module = name.split(".", 1)[0]
                modules[module] = modules.get(module, 0.0) + ns / 1e6 / unit_count
        modules["(no span)"] = root_self_ns[phase] / 1e6 / unit_count
        phases[phase] = {"units": unit_count,
                         "wall_ms_per_unit": root_ns[phase] / 1e6 / unit_count,
                         "self_ms_per_unit": dict(sorted(
                             modules.items(), key=lambda kv: -kv[1]))}
    return {"phases": phases, "coverage": coverage, "coverage_ok": coverage >= 0.9,
            "overhead": overhead}


def print_trace_report(workload: str, report: dict, file) -> None:
    print(f"trace report: {workload}", file=file)
    for phase, info in report["phases"].items():
        wall = info["wall_ms_per_unit"]
        print(f"  {phase}: {info['units']} units, {wall:.3f} ms traced per unit",
              file=file)
        for module, ms in info["self_ms_per_unit"].items():
            share = 100.0 * ms / wall if wall else 0.0
            print(f"    {module:<12} {ms:12.3f} ms  {share:5.1f}%", file=file)
    verdict = "ok" if report["coverage_ok"] else "BELOW 90%"
    print(f"  spans cover {100.0 * report['coverage']:.1f}% of traced wall time "
          f"({verdict})", file=file)
    over = report["overhead"]
    if over:
        print(f"  tracing overhead against the untraced run of this seed: "
              f"{100.0 * over['latency_p50']:+.1f}% median latency, "
              f"{100.0 * over['throughput']:+.1f}% time per item", file=file)
    else:
        print("  tracing overhead: no untraced result for this seed and size; "
              "run --trace 0 first", file=file)


def measure(args):
    """Make the inputs in a child process, then run the workload here.

    Returns the outcome, the tracer and the CPU picker's counts.
    """
    import workloads
    from spans import NullTracer, Tracer

    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else NullTracer()
    clock = LapClock(CpuPicker(os.sched_getaffinity(0)), tracer)
    try:
        work.mkdir(parents=True)
        subprocess.run([sys.executable, __file__, "--make-inputs", "--workload",
                        args.workload, "--seed", str(args.seed), "--size", args.size,
                        "--work", str(work)], check=True, timeout=150)
        if args.trace:
            tracer.install()
        clock.install()   # over the tracer's wrappers, so laps include spans
        try:
            out = workloads.run(args.workload, work, args.seed, args.size,
                                args.seconds, tracer, clock)
        finally:
            clock.uninstall()
            if args.trace:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return out, tracer, clock.picker.stats


def summarize(args, out, peak_rss_mb: float, picker_stats: dict) -> dict:
    """The results-file record: metrics under their workload-specific names."""
    best = best_of_rounds(out.samples)
    op_units = dict.fromkeys(u for u, _, is_op in out.samples if is_op)
    rounds = len(out.samples) / len(best)
    totals = [(u, sum(laps), is_op) for u, laps, is_op in out.samples]
    raw_ms = [1000.0 * s for _, s, is_op in totals if is_op]
    throughput, latency = NAMES[args.workload]
    return {
        "workload": args.workload,
        "trace": args.trace,
        "context": run_context(args, picker_stats),
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            "setup_s": statistics.median(out.setup_s),
            "peak_rss_mb": peak_rss_mb,
            "error_rate": out.failed / out.attempted,
            f"{latency}_p50": 1000.0 * statistics.median(best[u] for u in op_units),
            throughput: out.items_per_round / sum(best.values()),
            f"{latency}_p50_all_samples": statistics.median(raw_ms),
            f"{latency}_tail_all_samples": tail(raw_ms),
            f"{throughput}_all_samples": (
                out.items_per_round * rounds / sum(s for _, s, _ in totals)),
            **out.extra,
        },
        "setup_samples_s": out.setup_s,
        "samples": totals,
        "laps_per_unit": {str(u): len(laps) for u, laps, _ in out.samples},
        "rounds": rounds,
        "operations": out.ops,
        "checks": out.checks,
        "digests": out.digests,
    }


def tracing_overhead(args, named: dict) -> dict | None:
    """Traced against untraced best-of-rounds times, same seed and length."""
    path = result_path(args, 0)
    if not path.is_file():
        return None
    base = json.loads(path.read_text(encoding="utf-8"))
    if base["context"]["seconds"] != args.seconds:
        return None
    throughput, latency = NAMES[args.workload]
    return {
        "latency_p50": named[f"{latency}_p50"] / base["metrics"][f"{latency}_p50"] - 1.0,
        "throughput": base["metrics"][throughput] / named[throughput] - 1.0,
    }


def run_workload(args) -> int:
    import_soundloc()
    spec = load_spec()
    RESULTS.mkdir(parents=True, exist_ok=True)
    # one workload process at a time per checkout: the machine has no swap
    with open(OUT / "run.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        out, tracer, picker_stats = measure(args)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = summarize(args, out, peak_rss_mb, picker_stats)
    named = detail["metrics"]
    throughput, latency = NAMES[args.workload]
    measured = {"setup_s": named["setup_s"], "peak_rss_mb": peak_rss_mb,
                "op_ms_p50": named[f"{latency}_p50"], "items_per_s": named[throughput]}

    if args.trace:
        units = {"setup": len(out.setup_s), "op": out.ops}
        measured = detail["per_layer"] = tracer.summary(units)
        report = detail["trace_report"] = trace_report(
            tracer, units, measured["trace.coverage"], tracing_overhead(args, named))
        print_trace_report(args.workload, report, sys.stderr)
        tracer.write(RESULTS / f"{args.workload}.{args.size}.seed{args.seed}.spans.json")

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": float(measured[m["name"]]), "unit": m["unit"]}
               for m in spec[kind]}
    result_path(args, args.trace).write_text(json.dumps(detail, indent=2) + "\n",
                                             encoding="utf-8")
    print(json.dumps({"correct": detail["correct"], "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


def unit_of(metric: str) -> str:
    """Unit of a workload-specific metric in the results file."""
    if "_ms_" in metric:
        return "ms"
    if "_per_s" in metric:
        return metric.split("_")[1] + "/s"
    return {"setup_s": "s", "peak_rss_mb": "MB", "train_loss_final": "loss"}.get(
        metric, "ratio")


def run_all(args) -> int:
    """Every workload, untraced then traced, strictly one process at a time."""
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    lines = []
    ok = True
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace",
                   str(trace), "--size", args.size]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                fail(f"{name} --trace {trace} exited with {proc.returncode}", 1)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            if trace == 0:
                lines.append((name, result))

    print(f"\n{'workload':<14} {'metric':<34} {'value':>14}  unit")
    for name, result in lines:
        args.workload = name
        detail = json.loads(result_path(args, 0).read_text(encoding="utf-8"))
        traced = json.loads(result_path(args, 1).read_text(encoding="utf-8"))
        for metric, m in result["metrics"].items():
            print(f"{name:<14} {metric:<34} {m['value']:>14.4f}  {m['unit']}")
        for metric, value in detail["metrics"].items():
            if metric in result["metrics"]:
                continue
            if metric.endswith("_tail_all_samples"):
                text = "fewer than 21 samples" if value is None else (
                    f"{value['value']:>14.4f}  ms (p{value['percentile']:.1f}, "
                    f"{value['samples_beyond']} of {value['samples']} beyond)")
                print(f"{name:<14} {metric:<34} {text}")
            elif isinstance(value, (int, float)):
                print(f"{name:<14} {metric:<34} {value:>14.4f}  {unit_of(metric)}")
        report = traced["trace_report"]
        ok &= report["coverage_ok"]
        print(f"{name:<14} {'trace coverage':<34} {report['coverage']:>14.4f}  ratio")
        if report["overhead"]:
            print(f"{name:<14} {'trace overhead (latency p50)':<34} "
                  f"{report['overhead']['latency_p50']:>14.4f}  ratio")
        for key, digest in detail["digests"].items():
            print(f"{name:<14} {key:<34} {digest}")
    print(json.dumps({"correct": ok, "workloads": dict(lines)}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured run length; default from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the smoke-test size")
    parser.add_argument("--make-inputs", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "BENCHMARK.json").is_file():
        fail(f"BENCHMARK.json not found in {ROOT}")
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if args.make_inputs:
        import_soundloc()
        import workloads
        workloads.make_inputs(args.workload, args.work, args.seed, args.size)
        return 0
    if args.workload == "all":
        return run_all(args)
    if args.workload not in NAMES:
        fail(f"unknown workload {args.workload!r}; choose from "
             f"{', '.join(NAMES)} or all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
