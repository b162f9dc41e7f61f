#!/usr/bin/env python3
"""Alternating-pairs A/B comparison of perfbench: a base revision against
the working tree.

    python3 tools/perf_ab.py --base REV --workload W [--pairs N] \
        [--seconds S] [--gate] [--layers]

Run it from the root of the repository.  It clones REV into a fresh
directory under the system's temporary directory (a plain `git clone`,
never a worktree) and runs

    python3 perfbench/run.py --workload W --seed SEED --seconds S --trace 0

alternately in the clone and in the working tree, N pairs per workload.
Pair i (counting from 0) runs seed i + 1 on both sides; the base runs
first in even pairs and the change first in odd ones, so a drift in host
speed over the comparison favours neither side.  W is a workload named in
BENCHMARK.json, or `all` for each of them in turn.  Each run.py builds its
own tree before it measures.

For every end-to-end metric in BENCHMARK.json it prints the base's and
the change's median and quartiles over the pairs, the change/base ratio
of the medians, and the number of pairs in which the change was better.

With --layers, each pair also runs run.py once more per side with
--trace 1 (same seed, same order), and a second table gives the same
columns for every per-layer metric in BENCHMARK.json that is non-zero on
either side.  A claim about a layer then comes from the same alternating
pairs as the end-to-end one.  The traced runs never enter the gate.

Exit status: 0 when every run succeeded and, with --gate, no change median
is worse than the base's by more than that metric's BENCHMARK.json bound
(as a fraction of the base's median); 1 when a run exits non-zero or
prints "correct": false (any failed op makes it false), or when the gate
fails; 2 on a usage error, or when perfbench/ or BENCHMARK.json differ
between REV and the working tree, because the two sides would then run
different decks.  The clone is deleted on exit.

It reads perfbench/ and BENCHMARK.json and writes nothing in the checkout
apart from what run.py itself writes there.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

BENCH_PATHS = ["perfbench", "BENCHMARK.json"]


def git(*args, cwd=".", check=True):
    return subprocess.run(
        ["git", *args], cwd=cwd, check=check, capture_output=True, text=True
    )


def benchmark_differs(rev):
    """True when the deck or the metric table differs between REV and the
    working tree (tracked changes, or untracked files in those paths)."""
    changed = git("diff", "--quiet", rev, "--", *BENCH_PATHS, check=False)
    if changed.returncode not in (0, 1):
        sys.exit("perf_ab: git diff failed: " + changed.stderr.strip())
    untracked = git("ls-files", "--others", "--exclude-standard", "--", *BENCH_PATHS)
    return changed.returncode == 1 or untracked.stdout.strip() != ""


def run_once(tree, workload, seed, seconds, trace=0):
    """One run.py result, or None (after printing why) when the run exits
    non-zero or is not correct.  A failed op makes "correct" false, so a
    result returned here has no failed op."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(
        cmd, cwd=tree, capture_output=True, text=True, timeout=600 + 20 * seconds
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is None or result.get("correct") is not True:
        why = "exit %d" % proc.returncode if result is None else '"correct": false'
        sys.stderr.write(
            "perf_ab: %s, seed %d in %s: %s\n" % (workload, seed, tree, why)
        )
        sys.stderr.write("".join((proc.stderr + proc.stdout).splitlines(True)[-40:]))
        return None
    return result


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def better(metric, a, b):
    """a is strictly better than b for this metric."""
    return a > b if metric["better"] == "higher" else a < b


def worse_by(metric, base, change):
    """How much worse the change's median is, as a fraction of the base's
    (negative when it is better)."""
    if base == 0:
        return 0.0
    d = (base - change) if metric["better"] == "higher" else (change - base)
    return d / abs(base)


def compare(workload, pairs, metrics, out, title="", gate=True):
    """Print one workload's table; return the names of gate failures.
    Without [gate], metrics whose values are all zero are left out and no
    bound is checked (the per-layer table)."""
    out.write("\n%s%s: %d pairs\n" % (workload, title, len(pairs)))
    width = max([12] + [len(m["name"]) for m in metrics])
    out.write(
        "%-*s %-5s %28s %28s %12s %6s\n"
        % (width, "metric", "unit", "base median [q1, q3]",
           "change median [q1, q3]", "change/base", "wins")
    )
    failures = []
    for m in metrics:
        name = m["name"]
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        if not gate and not any(base + change):
            continue
        bq, cq = quartiles(base), quartiles(change)
        wins = sum(1 for b, c in zip(base, change) if better(m, c, b))
        ratio = cq[1] / bq[1] if bq[1] else float("nan")
        out.write(
            "%-*s %-5s %28s %28s %12.3f %6s\n"
            % (width, name, m["unit"],
               "%.4g [%.4g, %.4g]" % (bq[1], bq[0], bq[2]),
               "%.4g [%.4g, %.4g]" % (cq[1], cq[0], cq[2]),
               ratio, "%d/%d" % (wins, len(pairs)))
        )
        if gate and worse_by(m, bq[1], cq[1]) > m["bound"]:
            failures.append(
                "%s %s: change median %.4g is worse than the base's %.4g by "
                "more than %g" % (workload, name, cq[1], bq[1], m["bound"])
            )
    return failures


def main():
    ap = argparse.ArgumentParser(
        description="Alternating-pairs perfbench A/B run: REV against the working tree."
    )
    ap.add_argument("--base", required=True, help="the base revision")
    ap.add_argument("--workload", required=True, help="a BENCHMARK.json workload, or all")
    ap.add_argument("--pairs", type=int, default=6)
    ap.add_argument("--seconds", type=float, default=5)
    ap.add_argument(
        "--gate", action="store_true",
        help="exit 1 when a change median is worse than its BENCHMARK.json bound allows",
    )
    ap.add_argument(
        "--layers", action="store_true",
        help="also run one --trace 1 run per side per pair and print per-layer "
        "medians and ratios",
    )
    args = ap.parse_args()
    if not all(os.path.exists(p) for p in ["dune-project", "perfbench/run.py", "BENCHMARK.json"]):
        sys.stderr.write("perf_ab: run from the root of the repository\n")
        return 2
    if args.pairs < 1 or args.seconds <= 0:
        sys.stderr.write("perf_ab: --pairs and --seconds must be positive\n")
        return 2
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload == "all":
        workloads = names
    elif args.workload in names:
        workloads = [args.workload]
    else:
        sys.stderr.write("perf_ab: unknown workload %s (one of %s, all)\n"
                         % (args.workload, ", ".join(names)))
        return 2
    rev = git("rev-parse", "--verify", "--quiet", args.base + "^{commit}", check=False)
    if rev.returncode != 0:
        sys.stderr.write("perf_ab: unknown revision %s\n" % args.base)
        return 2
    sha = rev.stdout.strip()
    if benchmark_differs(sha):
        sys.stderr.write(
            "perf_ab: perfbench/ or BENCHMARK.json differ between %s and the "
            "working tree; the decks would differ, so the runs do not compare\n"
            % args.base
        )
        return 2

    root = os.getcwd()
    scratch = tempfile.mkdtemp(prefix="perf_ab-")
    base_tree = os.path.join(scratch, "base")
    try:
        git("clone", "--quiet", "--no-checkout", root, base_tree)
        git("checkout", "--quiet", "--detach", sha, cwd=base_tree)
        print("base: %s (%s), cloned into %s; change: the working tree"
              % (args.base, sha[:12], base_tree))
        failures = []
        for workload in workloads:
            pairs = []
            layer_pairs = []
            for i in range(args.pairs):
                seed = i + 1
                order = [("base", base_tree), ("change", root)]
                if i % 2 == 1:
                    order.reverse()
                got = {}
                for side, tree in order:
                    res = run_once(tree, workload, seed, args.seconds)
                    if res is None:
                        return 1
                    got[side] = res
                    print("  %s pair %d (seed %d) %-6s ops_per_s %.4g"
                          % (workload, i, seed, side,
                             res["metrics"]["ops_per_s"]["value"]), flush=True)
                pairs.append((got["base"], got["change"]))
                if args.layers:
                    traced = {}
                    for side, tree in order:
                        res = run_once(tree, workload, seed, args.seconds, trace=1)
                        if res is None:
                            return 1
                        traced[side] = res
                    layer_pairs.append((traced["base"], traced["change"]))
            failures += compare(workload, pairs, bench["end_to_end"], sys.stdout)
            if args.layers:
                compare(workload, layer_pairs, bench["per_layer"], sys.stdout,
                        title=" per layer (--trace 1)", gate=False)
        if args.gate and failures:
            print()
            for f in failures:
                print("GATE: " + f)
            return 1
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
