#!/usr/bin/env python3
"""Builds the rodb benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <scan_sweep|served_mix|ingest_live> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset; later runs rebuild
only what changed. The workload's readable report goes to stderr and the
last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). The exit status is 0 only when every
result was correct; 1 means a wrong or failed result, 2 a failed build
or missing sources, and 4 a run that did not end within run_timeout()
of its --seconds (too slow to measure, which is not a wrong result).
--corrupt-reference exists for the benchmark's own tests
(perfbench/tests).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = ROOT / "perfbench"
EXIT_TIMEOUT = 4
# A run must end within 180 s; this leaves time to report and clean up.
MAX_RUN_S = 170


def run_timeout(seconds):
    """Wall-time limit of one run: the timed phase may run whole rounds
    past --seconds, and set-up, reference answers and probes come on top.
    At --seconds 40 a run takes about 50 s."""
    return min(4 * seconds + 90, MAX_RUN_S)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(out_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out_dir), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return out_dir / "rodb_perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    """Returns a list of problems with the result line, empty if none."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    want = expected_metrics(trace)
    got = result["metrics"]
    for name, unit in want.items():
        if name not in got:
            problems.append(f"metric {name} missing")
        elif got[name].get("unit") != unit:
            problems.append(f"metric {name} has unit {got[name].get('unit')}")
    problems += [f"metric {name} not in BENCHMARK.json"
                 for name in got if name not in want]
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["scan_sweep", "served_mix", "ingest_live"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--corrupt-reference", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"rodb sources not found under {ROOT / 'src'}")
        return 2

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", str(out_dir / "runs")]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    env = dict(os.environ, PERFBENCH_SOURCE_ID=source_id())
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=run_timeout(args.seconds))
    except subprocess.TimeoutExpired:
        log(f"run exceeded {run_timeout(args.seconds):g} s and was stopped")
        return EXIT_TIMEOUT
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"no result (exit status {proc.returncode})")
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"last line is not JSON: {lines[-1][:200]}")
        return 1
    problems = check_result(result, args.trace == "1")
    if problems:
        log("malformed result: " + "; ".join(problems))
        return 1
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
