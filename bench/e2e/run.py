#!/usr/bin/env python3
"""End-to-end benchmark: builds bench/e2e in Release and runs its workloads.

One run, from the repository root:

  python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 runs three measuring processes one after another, each with its own
set-up and a third of the S seconds, and pools their timed queries into the
end-to-end metrics. --trace 1 runs one traced process and reports the per-layer
metrics; its Chrome trace lands in .bench_build/e2e-traces/. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

The whole set (what run.sh calls):

  python3 bench/e2e/run.py --all [--seed N] [--seconds S] [--trace]
                           [--repeat-check] [--smoke]

runs every workload, prints every metric by name with its unit, and writes the
results with a header describing the machine and build to
.bench_build/BENCH_e2e.json (smoke runs write nothing). --repeat-check runs the
set twice and reports, per (metric, workload), whether the two agree within the
bounds in BENCHMARK.json.

Everything the benchmark writes stays under .bench_build/ in the repository.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent.parent
OUT_DIR = ROOT / ".bench_build"
BUILD_DIR = OUT_DIR / "e2e"
BINARY = BUILD_DIR / "conclave_e2e"
# Results of a whole set; bench/e2e/results/ holds the committed baseline copy.
RESULTS = OUT_DIR / "BENCH_e2e.json"
WORKLOADS = ["hhi_pushdown", "hhi_mpc_only", "credit_hybrid", "comorbidity_csv_spill"]
# Separate processes per measured run: set-up is paid, and reported, once each.
PROCESSES = 3
PROCESS_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def build():
    """Configures (once) and builds the benchmark binary; the log stays on disk."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    log_path = OUT_DIR / "e2e-build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", "4",
                  "--target", "conclave_e2e"])
    with open(log_path, "w") as log:
        for step in steps:
            result = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                    env=child_env(), timeout=800)
            if result.returncode != 0:
                tail = log_path.read_text().splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))


def run_process(workload, seed, seconds, smoke, tag, trace_path=None):
    """Runs one benchmark process in a fresh work directory; returns its record."""
    work = OUT_DIR / "work" / f"{workload}-{seed}-{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--work-dir", str(work)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    if smoke:
        cmd.append("--smoke")
    try:
        result = subprocess.run(cmd, capture_output=True, text=True,
                                env=child_env(), timeout=PROCESS_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(result.stderr)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        raise BenchError(f"{workload}: process exited with {result.returncode}")
    return json.loads(lines[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, seed, seconds, smoke):
    """End-to-end metrics, pooled over PROCESSES measuring processes."""
    records = [run_process(workload, seed, seconds / PROCESSES, smoke, f"m{i}")
               for i in range(PROCESSES)]
    samples = [s for r in records for s in r["query_s"]]
    # Virtual time and network bytes are modelled, so every process must agree.
    consistent = all(r["virtual_s"] == records[0]["virtual_s"] and
                     r["network_mb"] == records[0]["network_mb"] for r in records)
    p75 = statistics.quantiles(samples, n=4)[2] if len(samples) > 1 else samples[0]
    metrics = {
        "query_p50_s": metric(statistics.median(samples), "s"),
        "query_p75_s": metric(p75, "s"),
        "setup_s": metric(statistics.median(r["setup_s"] for r in records), "s"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in records),
                              "MB"),
        "virtual_s": metric(records[0]["virtual_s"], "virtual_s"),
        "network_mb": metric(records[0]["network_mb"], "MB"),
    }
    check_names(metrics, "end_to_end")
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return {"correct": failed == 0 and consistent, "attempted": attempted,
            "failed": failed, "metrics": metrics,
            "samples": len(samples), "build": build_info(records[0])}


def trace(workload, seed, seconds, smoke):
    """Per-layer metrics from one traced process."""
    trace_dir = OUT_DIR / "e2e-traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    path = trace_dir / f"{workload}-seed{seed}.json"
    record = run_process(workload, seed, seconds, smoke, "t", trace_path=path)
    check_names(record["metrics"], "per_layer")
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": record["metrics"],
            "trace_file": str(path.relative_to(ROOT)), "build": build_info(record)}


def build_info(record):
    return {k: record[k] for k in ("build_type", "compiler", "simd", "pool_threads")}


def contract_line(result):
    return json.dumps({k: result[k] for k in ("correct", "attempted", "failed",
                                              "metrics")})


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def check_names(metrics, kind):
    """The reported metrics must be exactly those BENCHMARK.json lists."""
    want = [m["name"] for m in spec()[kind]]
    if list(metrics) != want:
        raise BenchError(f"metrics differ from BENCHMARK.json {kind}: "
                         f"{sorted(set(metrics) ^ set(want))}")


def bounds():
    return {m["name"]: m["bound"] for m in spec()["end_to_end"]}


def header(build):
    def git_sha():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "describe", "--always",
                                  "--dirty", "--abbrev=40"],
                                 capture_output=True, text=True, timeout=30)
            return out.stdout.strip() if out.returncode == 0 else "unknown"
        except OSError:
            return "unknown"

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_sha": git_sha(), "cpu_model": cpu, "nproc": os.cpu_count(),
            **build}


def run_set(args):
    results = {}
    for workload in WORKLOADS:
        entry = {"measure": measure(workload, args.seed, args.seconds, args.smoke)}
        if args.trace:
            entry["trace"] = trace(workload, args.seed, args.seconds, args.smoke)
        results[workload] = entry
        for kind, result in entry.items():
            print(f"== {workload} ({kind}): attempted={result['attempted']} "
                  f"failed={result['failed']} correct={result['correct']}")
            for name, m in result["metrics"].items():
                print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    return results


def repeat_check(first, second):
    """Prints per-(metric, workload) agreement of two sets; True if all agree."""
    ok = True
    print("== repeat check: |second - first| / first against BENCHMARK.json bounds")
    for metric_name, bound in bounds().items():
        for workload in WORKLOADS:
            a = first[workload]["measure"]["metrics"][metric_name]["value"]
            b = second[workload]["measure"]["metrics"][metric_name]["value"]
            rel = abs(b - a) / a if a else float(b != a)
            agree = rel <= bound
            ok &= agree
            print(f"  {metric_name:14s} {workload:22s} {a:>12.6g} {b:>12.6g} "
                  f"{rel:8.2%} (bound {bound:.0%}) {'agree' if agree else 'DIFFER'}")
    for results in (first, second):
        ok &= all(r["correct"] for entry in results.values() for r in entry.values())
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=["0", "1"])
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    args.trace = args.trace == "1"
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    try:
        build()
        if args.workload is not None:
            run = trace if args.trace else measure
            print(contract_line(run(args.workload, args.seed, args.seconds,
                                    args.smoke)))
            return 0
        sets = [run_set(args) for _ in range(2 if args.repeat_check else 1)]
        first = sets[0][WORKLOADS[0]]["measure"]
        doc = {"header": {**header(first["build"]), "seed": args.seed,
                          "seconds": args.seconds, "processes": PROCESSES,
                          "smoke": args.smoke},
               "results": sets[0]}
        if args.repeat_check:
            doc["repeat"] = sets[1]
        if not args.smoke:
            RESULTS.write_text(json.dumps(doc, indent=1) + "\n")
            print(f"wrote {RESULTS.relative_to(ROOT)}")
        if args.repeat_check:
            return 0 if repeat_check(sets[0], sets[1]) else 1
        return 0 if all(r["correct"] for e in sets[0].values()
                        for r in e.values()) else 1
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
