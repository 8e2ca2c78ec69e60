#!/usr/bin/env python3
"""PALMED repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first run builds the palmed
library (Release, the root project's own flags) and perfbench/workload.cpp
into $CARGO_TARGET_DIR (default .bench_build); later runs rebuild
incrementally. One run of perfbench_workload then maps, predicts and serves
as the workload (see WORKLOADS in BENCHMARK.json and WorkloadSpec in
workload.cpp) prescribes, and this script checks its outputs:

  * every check the workload program counts (map work repeats exactly across cold
    rounds, batch == scalar predictions, served == batch-engine answers,
    server totals == client totals) passed;
  * every mapping digest and resource count equals perfbench/goldens.json
    (machines are fixed per profile, so the goldens hold for every seed);
  * with --trace 1, the work counts of the traced run equal those of an
    untraced run of the same seed, which is run first; the difference of
    their headline metric is reported as trace.overhead_pct.

The last line of stdout is the result object: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Host, flags and all
metrics of a run are echoed to stderr and kept in the build directory
(run/report-*.json; run/trace-*.json holds the spans of traced runs).
Exits nonzero when a check fails or the benchmark cannot build.
"""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("map_huge", "small_end_to_end")
# Headline metric per workload and whether higher is better; its traced
# vs untraced difference is the reported tracing overhead.
HEADLINE = {
    "map_huge": ("map_s", False),
    "small_end_to_end": ("serve_kernels_per_s", True),
}
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 700


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def sh(cmd, deadline, cwd=None):
    """Runs cmd with its output on stderr; False on failure or timeout."""
    try:
        return subprocess.run(cmd, cwd=cwd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=max(1, deadline - time.monotonic())
                              ).returncode == 0
    except subprocess.TimeoutExpired:
        log(f"error: timed out: {' '.join(cmd)}")
        return False


def build(build_dir, deadline):
    """Builds the library and the workload program; returns its path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    lib, bench = build_dir / "palmed", build_dir / "perfbench"
    if not (lib / "CMakeCache.txt").exists() and not sh(
            ["cmake", "-S", str(ROOT), "-B", str(lib),
             "-DCMAKE_BUILD_TYPE=Release", "-DPALMED_BUILD_TESTS=OFF",
             "-DPALMED_BUILD_BENCHES=OFF", "-DPALMED_BUILD_EXAMPLES=OFF",
             "-DPALMED_BUILD_TOOLS=OFF"], deadline):
        return None
    if not sh(["cmake", "--build", str(lib), "--target", "palmed", "-j", jobs],
              deadline):
        return None
    if not (bench / "CMakeCache.txt").exists() and not sh(
            ["cmake", "-S", str(HERE), "-B", str(bench),
             "-DCMAKE_BUILD_TYPE=Release", f"-DPALMED_BUILD_DIR={lib}"],
            deadline):
        return None
    if not sh(["cmake", "--build", str(bench), "-j", jobs], deadline):
        return None
    return bench / "perfbench_workload"


def library_build_info(lib_dir):
    """Build type and the code-generation flags the library was compiled with."""
    cache = (lib_dir / "CMakeCache.txt").read_text()
    m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    flags = []
    for entry in json.loads((lib_dir / "compile_commands.json").read_text()):
        if entry["file"].endswith("Pipeline.cpp"):
            cmd = entry.get("command") or " ".join(entry.get("arguments", []))
            flags = [f for f in shlex.split(cmd) if re.match(
                r"-(O\w*$|march=|mtune=|ffp-contract=|ffast-math|std=|DNDEBUG)", f)]

    def flag(prefix):
        return next((f.split("=", 1)[1] for f in flags if f.startswith(prefix)),
                    "compiler default")
    return {"lib_build_type": m.group(1) if m else "", "lib_flags": flags,
            "march": flag("-march="), "fp_contract": flag("-ffp-contract=")}


def run_workload(program, work_dir, args, trace, deadline):
    report = work_dir / f"report-{args.workload}-{args.seed}-t{trace}.json"
    report.unlink(missing_ok=True)
    cmd = [str(program), args.workload, str(args.seed), str(args.seconds),
           str(trace), str(report)]
    if not sh(cmd, deadline, cwd=work_dir) or not report.exists():
        return None
    return json.loads(report.read_text())


def check_goldens(report, failures):
    goldens = json.loads((HERE / "goldens.json").read_text())
    checked = 0
    for name, got in report["profiles"].items():
        want = goldens.get(name)
        checked += 1
        if want is None or (want["digest"], want["resources"]) != (
                got["digest"], got["resources"]):
            failures.append(f"{name} mapping digest {got['digest']} with "
                            f"{got['resources']} resources, golden {want}")
    return checked


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        log(f"error: {ROOT} holds no palmed source tree to build")
        return 1

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    work_dir = build_dir / "run"
    work_dir.mkdir(parents=True, exist_ok=True)
    # Compiler and program temporaries stay inside the build directory too.
    (build_dir / "tmp").mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(build_dir / "tmp")
    program = build(build_dir, time.monotonic() + BUILD_LIMIT_S)
    if program is None:
        log("error: benchmark build failed")
        return 1
    lib = library_build_info(build_dir / "palmed")
    deadline = time.monotonic() + RUN_LIMIT_S

    reports = [run_workload(program, work_dir, args, 0, deadline)]
    if args.trace:
        reports.append(run_workload(program, work_dir, args, 1, deadline))
    if any(r is None for r in reports):
        log("error: perfbench_workload failed")
        return 1
    report = reports[-1]

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    failures = []  # Checks made here, on top of the workload program's own.
    attempted += check_goldens(report, failures)
    build_types = {lib["lib_build_type"], report["host"]["build_type"]}
    attempted += 1
    if build_types != {"Release"}:
        failures.append(f"refusing a non-Release build: {sorted(build_types)}")
    metrics = report["end_to_end"]
    if args.trace:
        untraced = reports[0]
        attempted += 1
        if any(prof["counts"] != untraced["profiles"][name]["counts"]
               for name, prof in report["profiles"].items()):
            failures.append("work counts differ between the traced and the "
                            "untraced run")
        metric, higher = HEADLINE[args.workload]
        base = untraced["end_to_end"][metric]["value"]
        got = report["end_to_end"][metric]["value"]
        overhead = 100.0 * ((base - got) if higher else (got - base)) / base
        metrics = dict(report["per_layer"])
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    failed += len(failures)

    host = dict(report["host"], **lib)
    if any(f in ("-ffast-math", "-Ofast") for f in lib["lib_flags"]):
        log("warning: library built with fast-math; mappings may drift")
    log(f"perfbench {args.workload} seed={args.seed} host={json.dumps(host)}")
    for name, m in metrics.items():
        log(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    for f in [f for r in reports for f in r["failures"]] + failures:
        log(f"FAILED: {f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
