"""Smoke test for the benchmark.

Run from the repository root:

    python3 perfbench/smoke.py [--seconds S]

For every workload it makes one untraced and one traced run and checks that
each prints every metric BENCHMARK.json names for that mode, with its unit,
and that every output passed its check. It then flips one verify-mixed
label and checks that the run reports the failure (fail_ratio above 0), so
the output checks are known to bite, and that the benchmark refuses to run
without the otcpki sources. Last, it prints the tracing overhead: traced
ops/s against untraced ops/s per workload. Short runs make that ratio
rough; pass --seconds 25 for the benchmark's own window.
"""

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def expect(condition: bool, message: str):
    if not condition:
        raise AssertionError(message)


def run(workload: str, trace: int, seconds: float, *extra: str) -> dict:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    expect(completed.returncode == 0,
           f"{workload} trace={trace} exited {completed.returncode}:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def check_result(label: str, result: dict, specs: list):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result keys {sorted(result)}")
    expect(result["attempted"] >= 1, f"{label}: nothing attempted")
    metrics = result["metrics"]
    expect(list(metrics) == [spec["name"] for spec in specs],
           f"{label}: metrics {list(metrics)} differ from BENCHMARK.json")
    for spec in specs:
        metric = metrics[spec["name"]]
        expect(metric["unit"] == spec["unit"],
               f"{label}: {spec['name']} unit {metric['unit']!r}, want {spec['unit']!r}")
        value = metric["value"]
        expect(isinstance(value, (int, float)) and not isinstance(value, bool),
               f"{label}: {spec['name']} value {value!r} is not a number")


def check_refuses_without_sources():
    """Given only BENCHMARK.json and perfbench/, the run must fail without
    printing a result."""
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_tmp-smoke-") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify-mixed",
             "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    expect(completed.returncode != 0, "run without sources exited 0")
    expect('"metrics"' not in completed.stdout, "run without sources printed a result")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Smoke-test the benchmark.")
    parser.add_argument("--seconds", type=float, default=2.0,
                        help="timed window per run (default: %(default)s)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    overhead = []
    for workload in (w["name"] for w in spec["workloads"]):
        plain = run(workload, 0, args.seconds)
        check_result(f"{workload} trace=0", plain, spec["end_to_end"])
        traced = run(workload, 1, args.seconds)
        check_result(f"{workload} trace=1", traced, spec["per_layer"])
        for mode, result in (("trace=0", plain), ("trace=1", traced)):
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} {mode}: {result['failed']} of {result['attempted']} failed")
        expect(traced["metrics"]["fail_ratio"]["value"] == 0,
               f"{workload}: fail_ratio is not 0")
        overhead.append((workload, plain["metrics"]["ops_per_s"]["value"],
                         traced["metrics"]["traced_ops_per_s"]["value"]))
        print(f"ok  {workload}", flush=True)

    corrupted = run("verify-mixed", 1, args.seconds, "--corrupt-labels", "1")
    expect(not corrupted["correct"] and corrupted["failed"] >= 1,
           "a corrupted verify-mixed label went unnoticed")
    expect(corrupted["metrics"]["fail_ratio"]["value"] > 0,
           "fail_ratio did not rise with a corrupted label")
    print("ok  corrupted label raises fail_ratio", flush=True)

    check_refuses_without_sources()
    print("ok  refuses to run without src/otcpki", flush=True)

    print(f"\ntracing overhead ({args.seconds:g} s windows, seed {SEED})")
    print(f"{'workload':18s} {'ops/s':>9s} {'traced':>9s} {'traced/plain':>13s}")
    for workload, plain_rate, traced_rate in overhead:
        ratio = traced_rate / plain_rate
        print(f"{workload:18s} {plain_rate:9.1f} {traced_rate:9.1f} {ratio:13.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
