#!/usr/bin/env python3
"""Build and run the repository benchmark (dopebench).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, Release, together with the
simulator libraries from src/) under .bench_build/; later calls only check
that the build is up to date. The benchmark binary then measures the
workload (with --trace 0: set-up time in five fresh processes, two before
and three after the one that makes the measured runs); this script adds the host context (CPU, core
count, build type, compiler, commit or source digest), writes the full
result to .bench_build/results/, and prints the benchmark's JSON result
as the last line of standard output.

Exit codes: 0 on a measured result (its "correct" field says whether
every output check passed), 1 when the build or the benchmark binary
fails, 2 on bad arguments or a checkout without the simulator sources.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "dopebench"
WORKLOADS = ("cluster64_flood", "site8x64_zoneflood", "paper8_obs", "fig_grid")
BUILD_JOBS = 4  # bounded: the build shares the host with other work
SETUP_PROCESSES = 5


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; raises on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no simulator sources under {ROOT / 'src'}")
        sys.exit(2)
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    build_log = BUILD_ROOT / "build.log"
    with open(build_log, "a") as out:
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                           check=True)
        jobs = str(min(BUILD_JOBS, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                        "dopebench", "-j", jobs],
                       stdout=out, stderr=subprocess.STDOUT, check=True)


def cache_value(key):
    cache = BUILD_DIR / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return "unknown"


def source_digest():
    """sha256 over src/ and perfbench/, for checkouts without git."""
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none (not a git checkout)"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_context(compiler):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "build_dir": str(BUILD_DIR.relative_to(ROOT)),
        "compiler": compiler,
        "commit": commit(),
        "source_sha256": source_digest(),
    }


def merge(results):
    """One result from the parts: counts add up, setup_s is the median
    of the parts' figures, other metrics come from the part that has them.
    """
    if len(results) == 1:
        return results[0]
    setup = [r["metrics"]["setup_s"]["value"] for r in results
             if "setup_s" in r["metrics"]]
    metrics = {}
    for r in results:
        metrics.update(r["metrics"])
    metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    order = ("sim_rps_norm", "setup_s", "peak_rss_mb")
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: metrics[k] for k in order if k in metrics},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--window-s", type=float, default=0.0,
                        help="shorten the simulated window (tests only)")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in [1, 60]")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed ({err}); see {BUILD_ROOT / 'build.log'}")
        return 1

    cmd = [str(BINARY), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    if args.window_s > 0:
        cmd += ["--window-s", str(args.window_s)]
    # Set-up time varies more between processes than within one, so with
    # --trace 0 it is measured in SETUP_PROCESSES fresh processes, some
    # before the measured runs and the rest after them so that they sample
    # the host at two moments, and the median of their figures is reported.
    setup = [["--part", "setup"]]
    parts = (setup * (SETUP_PROCESSES // 2) + [["--part", "runs"]] +
             setup * (SETUP_PROCESSES - SETUP_PROCESSES // 2))
    if args.trace:
        parts = [[]]
    lines, results = [], []
    with tempfile.TemporaryDirectory(dir=BUILD_ROOT,
                                     prefix="outputs-") as out_dir:
        for part in parts:
            proc = subprocess.run(cmd + part + ["--out-dir", out_dir],
                                  capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            out = proc.stdout.splitlines()
            if proc.returncode != 0 or not out:
                sys.stdout.write(proc.stdout)
                log(f"benchmark exited with {proc.returncode}")
                return 1
            lines += out[:-1]
            results.append(json.loads(out[-1]))
    result = merge(results)
    for line in lines:
        print(line)

    compiler = "unknown"
    for line in lines:
        m = re.match(r"dopebench: build \S+, compiler (.*)$", line)
        if m:
            compiler = m.group(1)
    host = host_context(compiler)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host, "detail": lines, "parts": results,
              "result": result}
    results_dir = BUILD_ROOT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / (f"{args.workload}-seed{args.seed}-"
                          f"trace{args.trace}.json")
    path.write_text(json.dumps(record, indent=2) + "\n")
    print("host " + json.dumps(host, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
