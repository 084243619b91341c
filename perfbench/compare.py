#!/usr/bin/env python3
"""Compare two sets of perfbench runs, metric by metric.

    python3 perfbench/compare.py BASE.txt NEW.txt

Each file holds the standard output of one or more runs, concatenated.
For every (workload, trace) pair present in both, prints each metric's
median, quartiles and run count on both sides, and the change of the
medians. Wall-time metrics are only comparable between runs on the same
host and build: when the fingerprints (workers, nproc, rustc, profile,
cpu) of the two sides differ, the comparison is flagged.
"""

import json
import statistics
import sys

HOST_KEYS = ("workers", "nproc", "rustc", "profile", "cpu")


def load(path):
    """Return [(fingerprint, result)] for every complete run in `path`."""
    runs, fingerprint = [], None
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line.startswith('{"fingerprint"'):
                fingerprint = json.loads(line)["fingerprint"]
            elif line.startswith('{"correct"') and fingerprint is not None:
                runs.append((fingerprint, json.loads(line)))
                fingerprint = None
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    hosts = {
        side: {tuple((k, fp.get(k)) for k in HOST_KEYS) for fp, _ in runs}
        for side, runs in (("base", base), ("new", new))
    }
    if hosts["base"] != hosts["new"] or len(hosts["base"]) > 1:
        print("WARNING: host fingerprints differ; wall-time metrics are not comparable")
        for side in ("base", "new"):
            for h in sorted(hosts[side]):
                print(f"  {side}: " + ", ".join(f"{k}={v}" for k, v in h))
    groups = {}
    for side, runs in (("base", base), ("new", new)):
        for fp, res in runs:
            key = (fp["workload"], fp["trace"])
            slot = groups.setdefault(key, {"base": [], "new": []})[side]
            slot.append(res)
    for (workload, trace), sides in sorted(groups.items()):
        if not sides["base"] or not sides["new"]:
            continue
        print(f"\n{workload} (trace {trace}): {len(sides['base'])} base runs, "
              f"{len(sides['new'])} new runs")
        for side in ("base", "new"):
            bad = [r for r in sides[side] if not r["correct"]]
            if bad:
                print(f"  {side}: {len(bad)} run(s) not correct")
        names = list(sides["base"][0]["metrics"])
        for name in names:
            row = []
            for side in ("base", "new"):
                vals = [r["metrics"][name]["value"] for r in sides[side] if name in r["metrics"]]
                row.append((statistics.median(vals), *quartiles(vals)) if vals else None)
            if None in row:
                continue
            unit = sides["base"][0]["metrics"][name]["unit"]
            (bm, bq1, bq3), (nm, nq1, nq3) = row
            change = f"{(nm / bm - 1) * 100:+.1f}%" if bm else "n/a"
            print(f"  {name:<28} {bm:>12.6g} [{bq1:.4g}, {bq3:.4g}]  ->  "
                  f"{nm:>12.6g} [{nq1:.4g}, {nq3:.4g}] {unit:<6} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
