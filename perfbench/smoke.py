"""Smoke run of the benchmark at tiny size: every workload, untraced and traced.

    python3 perfbench/smoke.py

Takes about a minute. Checks that each run exits 0, that its last line has
exactly the keys and metrics BENCHMARK.json promises, that every correctness
check passed, and that the benchmark refuses to run, without printing a
result, in a copy that holds only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cmd, cwd) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=180)


def check_result(spec: dict, line: str, trace: int) -> list[str]:
    problems = []
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted={result.get('attempted')}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, m in metrics.items():
        if m.get("unit") != expected.get(name) or not isinstance(m.get("value"), float):
            problems.append(f"{name}: {m}")
    if not trace and any(m["value"] <= 0 for m in metrics.values()):
        problems.append("an end-to-end metric is not positive")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", "7",
                                     "--seconds", "1", "--trace", str(trace),
                                     "--size", "tiny"]
            proc = run(cmd, ROOT)
            lines = proc.stdout.strip().splitlines()
            problems = ([f"exit {proc.returncode}: {proc.stderr[-500:]}"]
                        if proc.returncode or not lines
                        else check_result(spec, lines[-1], trace))
            failures += bool(problems)
            print(f"{workload:<14} trace={trace}  {'ok' if not problems else problems}")

    bare = HERE / "out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                      "--seed", "7", "--seconds", "1", "--trace", "0"],
                   bare)
        refused = proc.returncode != 0 and "{" not in proc.stdout
        failures += not refused
        print(f"{'without src/':<14} {'refused' if refused else 'RAN'}: "
              f"{proc.stderr.strip()[-200:]}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke run ok" if not failures else f"{failures} smoke check(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
