#!/usr/bin/env python3
"""Build the benchmark and the shackled daemon from source, then run one
workload:

    python3 perfbench/run.py --workload compile|simulate|tune|serve \
        --seed N --seconds S --trace 0|1

With --workload all it runs the four workloads one after another, each in
its own process, and ends with a table: one row per workload with its
end-to-end metrics and its share of failed ops.

Run it from the root of the repository.  The last line of standard output
is the run's JSON result; build output goes to standard error.  Exits
non-zero, printing no result, when the repository's sources are missing or
do not build.

The benchmark runs pinned to one CPU, and the shackled daemon it starts
inherits the pin.  Every workload is single-threaded or, for serve, one
client with one request outstanding, so a second CPU would only add
cross-CPU wake-ups to each round trip and double the benchmark's exposure
to host steal.
"""

import glob
import json
import os
import shutil
import subprocess
import sys

TARGETS = ["perfbench/main.exe", "bin/shackled.exe"]
WORKLOADS = ["compile", "simulate", "tune", "serve"]


def dune():
    found = shutil.which("dune")
    if found:
        return [found]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    switches = sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    return [switches[-1]] if switches else None


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of the repository", file=sys.stderr)
        return 2
    cmd = dune()
    if cmd is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    build = subprocess.run(
        cmd + ["build", "--root", ".", "--display", "quiet"] + TARGETS,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    cpu = max(os.sched_getaffinity(0))

    def run(args, **kw):
        return subprocess.run(
            [exe] + args, preexec_fn=lambda: os.sched_setaffinity(0, {cpu}), **kw
        )

    args = sys.argv[1:]
    at = next((i + 1 for i, a in enumerate(args[:-1]) if a == "--workload"), None)
    if at is None or args[at] != "all":
        return run(args).returncode
    return run_all(run, args, at)


def run_all(run, args, at):
    rows = []
    for workload in WORKLOADS:
        proc = run(args[:at] + [workload] + args[at + 1 :], stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        rows.append((workload, json.loads(proc.stdout.strip().splitlines()[-1])))
    names = list(rows[0][1]["metrics"])
    print()
    print("%-9s" % "workload" + "".join("%16s" % n for n in names) + "%14s" % "failed_share")
    print("%-9s" % "" + "".join("%16s" % rows[0][1]["metrics"][n]["unit"] for n in names))
    for workload, res in rows:
        cells = "".join("%16.6g" % res["metrics"][n]["value"] for n in names)
        share = res["failed"] / max(1, res["attempted"])
        print("%-9s" % workload + cells + "%14.4f" % share)
    return 0 if all(res["correct"] for _, res in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
