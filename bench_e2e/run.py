#!/usr/bin/env python3
"""Builds and runs the DLACEP end-to-end benchmark (see README.md).

    python3 bench_e2e/run.py --workload NAME|all --seed N \
        [--seconds S] [--trace 0|1] [--out DIR]

Run it from the root of the source tree. It configures and builds the
benchmark package (bench_e2e/CMakeLists.txt, which compiles the library
from the tree around it) into $CARGO_TARGET_DIR/bench_e2e, default
.bench_build/bench_e2e, then runs one benchmark process per workload.
Build output goes to stderr; the benchmark's metric lines and its final
JSON line go to stdout, so the last line of stdout is the result of the
last workload run. With --trace 1 the spans are written to
<build dir>/traces/<workload>-<seed>.json and the per-layer metrics are
reported instead of the end-to-end ones. --out DIR appends each result,
tagged with workload, seed and trace, to DIR/results.jsonl for
compare.py.

Exits non-zero when the build fails, a run fails or an output check
fails.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["filter_online", "filter_paced", "cep_batch", "serve8"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return pathlib.Path.cwd() / base / "bench_e2e"


def build(out):
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"run.py: {ROOT} is not a DLACEP source tree (no src/)")
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "dlacep_bench",
                  "-j", "4"])
    for step in steps:
        try:
            subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, timeout=BUILD_TIMEOUT_S)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
                OSError) as error:
            sys.exit(f"run.py: build failed: {error}")
    return out / "dlacep_bench"


def run(binary, out, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)]
    if trace:
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace", str(traces / f"{workload}-{seed}.json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, []
    return done.returncode, done.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=pathlib.Path,
                        help="append results to OUT/results.jsonl")
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        code, lines = run(binary, out, workload, args.seed, args.seconds,
                          args.trace)
        if code != 0 or not lines:
            print("\n".join(lines), file=sys.stderr)
            print(f"run.py: {workload} exited with {code}", file=sys.stderr)
            status = 1
            continue
        print("\n".join(lines), flush=True)
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            record = {"workload": workload, "seed": args.seed,
                      "trace": args.trace, "result": json.loads(lines[-1])}
            with open(args.out / "results.jsonl", "a") as f:
                f.write(json.dumps(record) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
