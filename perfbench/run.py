#!/usr/bin/env python3
"""Repository benchmark: build the driver from source, run one workload,
check its outputs and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  The build tree, work files and span
dumps go under $CARGO_TARGET_DIR (default .bench_build).  See README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
# Every invocation must end inside 180 s, not counting the build.
RUN_TIMEOUT_S = 170.0
# The first invocation in a fresh checkout compiles the libraries.
BUILD_TIMEOUT_S = 700.0
# shard.outside_s + shard.exec_s must equal shard.run_s to within this share.
SPAN_TILE_TOLERANCE = 1e-3


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    """BENCHMARK.json, checked: every metric has a unit and a direction."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            if not m.get("unit") or m.get("better") not in ("lower", "higher"):
                fail(f"BENCHMARK.json: {group} metric {m.get('name')} lacks a unit or direction", 1)
    return spec


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(REPO, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/; nothing to build", 2)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench_driver", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(f"build step failed: {' '.join(cmd)}", 3)
    return os.path.join(out_dir, "perfbench_driver")


def cache_value(out_dir, key):
    try:
        with open(os.path.join(out_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def dispatch_arm():
    """The SIMD batch-sampling arm the libraries would pick on this host:
    the best of avx512/avx2/scalar the CPU flags allow, capped by
    PARADYN_BATCH_DISPATCH."""
    flags = set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    flags = set(line.split(":", 1)[1].split())
                    break
    except OSError:
        pass
    arm = "scalar"
    if {"avx512f", "avx512dq"} <= flags:
        arm = "avx512"
    elif "avx2" in flags:
        arm = "avx2"
    env = os.environ.get("PARADYN_BATCH_DISPATCH")
    if env == "scalar":
        arm = "scalar"
    elif env == "avx2" and arm == "avx512":
        arm = "avx2"
    return f"{arm} (PARADYN_BATCH_DISPATCH={env if env is not None else 'unset'})"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit():
    if not os.path.exists(os.path.join(REPO, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def source_digest():
    """sha256 over the simulator sources, so a non-git checkout still names
    the code it measured."""
    h = hashlib.sha256()
    src = os.path.join(REPO, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, REPO).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def self_check(spec, args, result):
    """The printed metrics must be exactly the ones BENCHMARK.json declares
    for this mode, with the same units."""
    declared = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    printed = result["metrics"]
    problems = []
    for name, m in printed.items():
        if name not in declared:
            problems.append(f"printed metric {name} is not declared in BENCHMARK.json")
        elif m["unit"] != declared[name]["unit"]:
            problems.append(f"{name} printed in {m['unit']}, declared in {declared[name]['unit']}")
    for name in declared:
        if name not in printed:
            problems.append(f"declared metric {name} was not printed")
    if args.trace and printed.get("shard.windows", {}).get("value", 0) > 0:
        run_s = printed["shard.run_s"]["value"]
        tiled = printed["shard.outside_s"]["value"] + printed["shard.exec_s"]["value"]
        if abs(tiled - run_s) > SPAN_TILE_TOLERANCE * run_s:
            problems.append(f"shard.outside_s + shard.exec_s = {tiled} s does not match "
                            f"shard.run_s = {run_s} s")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"workload {args.workload} is not declared in BENCHMARK.json", 1)

    out_dir = build_dir()
    driver = build(out_dir)
    work_dir = os.path.join(out_dir, "work")
    os.makedirs(work_dir, exist_ok=True)

    provenance = {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "build_type": cache_value(out_dir, "CMAKE_BUILD_TYPE"),
        "compiler": cache_value(out_dir, "CMAKE_CXX_COMPILER"),
        "commit": commit(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "dispatch_arm": dispatch_arm(),
    }
    provenance_json = json.dumps(provenance, sort_keys=True)
    print(f"# provenance {provenance_json}", flush=True)

    spans = os.path.join(out_dir, "spans", f"{args.workload}-seed{args.seed}.json")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work-dir", work_dir,
           "--spans", spans, "--provenance", provenance_json]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver did not finish in time", 4)
    sys.stdout.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"driver exited with {proc.returncode}", 5)
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    problems = self_check(spec, args, result)
    for p in problems:
        print(f"perfbench: self-check: {p}", file=sys.stderr)
    if problems:
        sys.exit(6)

    attempted, failed = result["attempted"], result["failed"]
    for name, m in sorted(result["metrics"].items()):
        print(f"{args.workload}  {name:<28} {m['value']:.6g} {m['unit']}")
    # error_rate is carried by the attempted/failed fields of the result:
    # BENCHMARK.json declares no metric that is 0 on a correct run.
    print(f"{args.workload}  {'error_rate':<28} {failed / attempted:.6g} "
          f"({failed} of {attempted} runs failed)")
    final = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }
    print(json.dumps(final), flush=True)


if __name__ == "__main__":
    main()
