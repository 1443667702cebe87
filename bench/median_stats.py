#!/usr/bin/env python3
"""Median of repeated runs of one bench's telemetry stats.

    python3 bench/median_stats.py RUN1/BENCH_lexer.json RUN2/... > MEDIAN.json

Each input is a BENCH_<name>.json written with HOTG_BENCH_STATS_DIR set.
Counters and the sample counts of timers and histograms must agree across
the runs: every bench runs one search at a time, so they are a
deterministic function of the code. Every other number (the *_ns fields)
is the median over the runs, so one slow run on a shared host cannot move
a gate by itself.
"""

import json
import statistics
import sys


def median_stats(runs):
    out = {"counters": {}, "timers": {}, "histograms": {}}
    first = runs[0]
    for name, value in first["counters"].items():
        values = [r["counters"].get(name) for r in runs]
        if any(v != value for v in values):
            raise SystemExit("counter %s differs across runs: %s" %
                             (name, values))
        out["counters"][name] = value
    for section in ("timers", "histograms"):
        for name, fields in first[section].items():
            entries = [r[section][name] for r in runs]
            merged = {}
            for field, value in fields.items():
                values = [e[field] for e in entries]
                if field == "count":
                    if any(v != value for v in values):
                        raise SystemExit("%s %s count differs across runs: %s"
                                         % (section, name, values))
                    merged[field] = value
                else:
                    merged[field] = int(statistics.median_low(values))
            out[section][name] = merged
    return out


def main(paths):
    if not paths:
        raise SystemExit(__doc__)
    runs = [json.load(open(p)) for p in paths]
    json.dump(median_stats(runs), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
