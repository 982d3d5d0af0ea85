#!/usr/bin/env python3
"""Smoke test of the benchmark binary: every workload, untraced and
traced, on --smoke streams. Passes when every run exits 0, its last line
is a correct result, and every metric BENCHMARK.json names is printed
(end-to-end metrics untraced, per-layer metrics traced).

    python3 bench_e2e/smoke.py path/to/dlacep_bench
"""

import json
import pathlib
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    binary = pathlib.Path(argv[1]).resolve()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = {0: [m["name"] for m in spec["end_to_end"]],
                1: [m["name"] for m in spec["per_layer"]]}
    failures = []
    with tempfile.TemporaryDirectory(dir=binary.parent) as scratch:
        for workload in [w["name"] for w in spec["workloads"]]:
            for trace in (0, 1):
                command = [str(binary), "--workload", workload, "--seed", "1",
                           "--seconds", "0.2", "--smoke"]
                if trace:
                    command += ["--trace", f"{scratch}/{workload}.json"]
                done = subprocess.run(command, stdout=subprocess.PIPE,
                                      text=True, timeout=60)
                lines = done.stdout.splitlines()
                label = f"{workload} trace={trace}"
                if done.returncode != 0 or not lines:
                    failures.append(f"{label}: exit {done.returncode}")
                    continue
                result = json.loads(lines[-1])
                printed = {line.split()[1] for line in lines[:-1]}
                missing = [name for name in expected[trace]
                           if name not in printed or
                           name not in result["metrics"]]
                if not result["correct"] or missing:
                    failures.append(f"{label}: correct={result['correct']} "
                                    f"missing={missing}")
                print(f"{label}: ok", flush=True)
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
