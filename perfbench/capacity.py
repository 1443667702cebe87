#!/usr/bin/env python3
"""Measures the capacity of `hotg-serve --workers 2` on the serve-mix jobs.

    python3 perfbench/capacity.py --seed N [--seconds S] [--depth D]

Sends the serve-mix job list of one seed (S seconds of arrivals at
workloads.SERVE_RATE, default 30) as fast as the daemon answers, keeping D
jobs outstanding (default 4, twice the workers), and prints the jobs
answered per second. serve-mix offers a fixed rate below this figure; its
per-run `serve.busy_frac` shows how far below. Builds like run.py.
"""

import argparse
import os
import sys
import time

import run
import workloads


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--depth", type=int, default=2 * run.SERVE_WORKERS)
    args = parser.parse_args()

    exe = run.build(run.build_dir())
    out_dir = os.path.join(run.build_dir(), "perfbench-runs", "capacity")
    os.makedirs(out_dir, exist_ok=True)
    programs, jobs = workloads.serve_jobs(args.seed, args.seconds)
    daemon = run.Daemon(exe, os.path.join(out_dir, "stats.json"))
    try:
        daemon.ping()
        start = time.perf_counter()
        sent = answered = 0
        while answered < len(jobs):
            while sent < len(jobs) and sent - answered < args.depth:
                daemon.send(workloads.serve_request(programs, jobs[sent]))
                sent += 1
            answer = run.read_frame(daemon.proc.stdout)
            if answer is None or answer.get("status") not in ("ok", "bugs"):
                raise run.RunError("bad answer %r" % answer)
            answered += 1
        wall = time.perf_counter() - start
    except BaseException:
        daemon.kill()
        raise
    daemon.close()
    print("%d jobs in %.2f s at depth %d: %.2f jobs/s" %
          (len(jobs), wall, args.depth, len(jobs) / wall))
    return 0


if __name__ == "__main__":
    sys.exit(main())
