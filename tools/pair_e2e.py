#!/usr/bin/env python3
"""Paired end-to-end comparison of two built conclave_e2e binaries.

Usage: pair_e2e.py --parent BIN --change BIN --workload NAME
                   [--pairs N] [--seed S] [--seconds S]
       pair_e2e.py --self-test

Wall-clock metrics on a shared host drift by 2x within minutes, so absolute
numbers measured at different times do not compare. This tool runs N pairs of
measurements back to back, alternating which binary runs first, and compares
the two sides pair by pair. Each measurement is exactly one
`bench/e2e/run.py --workload NAME --trace 0` measurement of the given binary
(run.py's PROCESSES processes with fresh work directories under .bench_build/,
their timed queries pooled), so query_p50_s, query_p75_s, setup_s and
peak_rss_mb mean what they mean there.

Output: every pair's four metrics on both sides; then, per metric, each side's
median and [q1, q3] over the pairs, the change/parent ratio of the medians, and
"change lower in k/N".

Exit status: 0 when every run succeeded and answered correctly and virtual_s and
network_mb (modelled, so deterministic) agree across every run of both sides;
1 otherwise.
"""

import argparse
import importlib.util
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WALL_METRICS = ["query_p50_s", "query_p75_s", "setup_s", "peak_rss_mb"]
MODELLED_METRICS = ["virtual_s", "network_mb"]


def load_run_py():
    """bench/e2e/run.py as a module: its measure() defines every metric."""
    sys.dont_write_bytecode = True  # Leave no __pycache__ in bench/e2e/.
    spec = importlib.util.spec_from_file_location("e2e_run",
                                                  ROOT / "bench/e2e/run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def measure(run_py, binary, workload, seed, seconds):
    """One run.py measurement of `binary`; returns {"ok", "metrics"}."""
    run_py.BINARY = Path(binary).resolve()
    try:
        result = run_py.measure(workload, seed, seconds, smoke=False)
    except (run_py.BenchError, OSError, ValueError) as error:
        print(f"  run failed: {error}", file=sys.stderr)
        return {"ok": False, "metrics": {}}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"ok": result["correct"] and result["failed"] == 0, "metrics": metrics}


def quartiles(values):
    """(q1, median, q3) with statistics.quantiles' default (exclusive) method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(pairs):
    """Report lines and the exit status for a list of {"parent", "change"} runs."""
    lines = []
    ok = all(p[side]["ok"] for p in pairs for side in ("parent", "change"))
    if not ok:
        lines.append("FAIL: at least one run failed or answered incorrectly")
    runs = [p[side] for p in pairs for side in ("parent", "change") if p[side]["ok"]]
    for name in MODELLED_METRICS:
        values = sorted({repr(r["metrics"][name]) for r in runs})
        if len(values) > 1:
            ok = False
            lines.append(f"FAIL: {name} differs between runs: {', '.join(values)}")
    good = [p for p in pairs if p["parent"]["ok"] and p["change"]["ok"]]
    lines.append("pair first   " + "  ".join(f"{name:>25s}" for name in WALL_METRICS))
    for index, pair in enumerate(pairs):
        cells = []
        for name in WALL_METRICS:
            a = pair["parent"]["metrics"].get(name, float("nan"))
            b = pair["change"]["metrics"].get(name, float("nan"))
            cells.append(f"{a:>11.4g} -> {b:<11.4g}")
        lines.append(f"{index + 1:>4d} {pair['first']:<7s} " + "  ".join(cells))
    if not good:
        return lines, 1
    n = len(good)
    for name in WALL_METRICS:
        parent = [p["parent"]["metrics"][name] for p in good]
        change = [p["change"]["metrics"][name] for p in good]
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        lower = sum(1 for a, b in zip(parent, change) if b < a)
        ratio = cmed / pmed if pmed else float("nan")
        lines.append(f"{name:12s} parent {pmed:.4g} [{pq1:.4g}, {pq3:.4g}]  "
                     f"change {cmed:.4g} [{cq1:.4g}, {cq3:.4g}]  "
                     f"change/parent {ratio:.3f}  change lower in {lower}/{n}")
    for name in MODELLED_METRICS:
        values = {repr(r["metrics"][name]) for r in runs}
        lines.append(f"{name:12s} {' '.join(sorted(values))} on every run"
                     if len(values) == 1 else f"{name:12s} DIFFERS")
    return lines, 0 if ok else 1


def self_test():
    """Regression cases for the summary and the exit status, on canned runs."""
    def run(p50, p75, setup, rss, virtual=503.04835, network=60980.0, ok=True):
        return {"ok": ok, "metrics": {
            "query_p50_s": p50, "query_p75_s": p75, "setup_s": setup,
            "peak_rss_mb": rss, "virtual_s": virtual, "network_mb": network}}

    def pair(first, parent, change):
        return {"first": first, "parent": parent, "change": change}

    failures = []
    base = [pair("parent", run(0.40, 0.45, 0.60, 27.0), run(0.10, 0.12, 0.40, 21.0)),
            pair("change", run(0.50, 0.55, 0.70, 28.0), run(0.20, 0.22, 0.80, 21.5)),
            pair("parent", run(0.45, 0.50, 0.65, 27.5), run(0.15, 0.17, 0.50, 21.2))]
    lines, status = summarize(base)
    text = "\n".join(lines)
    if status != 0:
        failures.append(f"clean runs exit {status}")
    for want in ["query_p50_s  parent 0.45 [0.4, 0.5]  change 0.15 [0.1, 0.2]",
                 "change/parent 0.333  change lower in 3/3",
                 "setup_s      parent 0.65 [0.6, 0.7]  change 0.5 [0.4, 0.8]",
                 "change lower in 2/3",
                 "virtual_s    503.04835 on every run"]:
        if want not in text:
            failures.append(f"summary lacks {want!r}:\n{text}")

    drifted = base[:2] + [pair("parent", run(0.45, 0.5, 0.65, 27.5),
                               run(0.15, 0.17, 0.5, 21.2, virtual=503.1))]
    lines, status = summarize(drifted)
    if status != 1 or not any("virtual_s differs" in line for line in lines):
        failures.append("a virtual_s difference must fail")

    broken = base[:2] + [pair("change", run(0.45, 0.5, 0.65, 27.5),
                              run(0, 0, 0, 0, ok=False))]
    lines, status = summarize(broken)
    if status != 1 or "change lower in 2/2" not in "\n".join(lines):
        failures.append("a failed run must fail and drop its pair from the summary")

    lines, status = summarize([pair("parent", run(1, 1, 1, 1), run(2, 2, 2, 2))])
    if status != 0 or "change lower in 0/1" not in "\n".join(lines):
        failures.append("a single pair must summarize")

    for failure in failures:
        print(f"self-test FAILED: {failure}", file=sys.stderr)
    if not failures:
        print("self-test passed")
    return 1 if failures else 0


def main():
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent conclave_e2e")
    parser.add_argument("--change", required=True, help="change conclave_e2e")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()
    run_py = load_run_py()
    if args.workload not in run_py.WORKLOADS:
        parser.error(f"unknown workload {args.workload}; one of {run_py.WORKLOADS}")
    binaries = {"parent": args.parent, "change": args.change}
    pairs = []
    for index in range(args.pairs):
        order = ["parent", "change"] if index % 2 == 0 else ["change", "parent"]
        pair = {"first": order[0]}
        for side in order:
            pair[side] = measure(run_py, binaries[side], args.workload, args.seed,
                                 args.seconds)
        pairs.append(pair)
        p50 = {side: pair[side]["metrics"].get("query_p50_s") for side in order}
        print(f"pair {index + 1}/{args.pairs} ({order[0]} first): "
              f"p50 parent {p50['parent']} change {p50['change']}", flush=True)
    print(f"== {args.workload} seed {args.seed}, {args.pairs} pairs, "
          f"{args.seconds:g} s per run")
    lines, status = summarize(pairs)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
