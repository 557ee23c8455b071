#!/usr/bin/env python3
"""Time the four-point report's kernels on seeded families of metrics.

For each family of the tests' ``helpers.FAMILIES`` and each size in
SIZES, at seeds SEEDS, the script times, in this process and best of
REPS:

- ``quad``: the C(n,4) quadruple scan, ``lspace._scan_quads_num``;
- ``masks``: one basepoint scan per point with every pair tested by level
  masks and no row-maximum test, then ``lspace._top_quad``: the sweep
  ``_four_point`` took from 64 points on before the row-maximum test;
- ``four_point``: ``lspace._four_point`` as it stands.

``parent_s`` is the time of the path taken before the row-maximum test:
the quadruple scan below 64 points, the mask sweep from there on, and
``ratio`` is ``four_point_s / parent_s``.  ``path`` is the way
``_four_point`` takes, read from the scans it makes in one more, untimed
run.  The metric check that ``_four_point`` makes is run once before
timing, as ``check`` and ``delta`` make it before the report.  The three
results must agree on the value, the first witness quadruple and every
basepoint constant, or the script exits 1.

    PYTHONPATH=src python3 scripts/bench_fourpoint.py --out BENCH_fourpoint.json
"""

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from random import Random
from statistics import median

from lhyp import lspace
from lhyp.ordgroup import QLexElem

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import FAMILIES, four_point_path  # noqa: E402

SIZES = (24, 32, 40, 48, 56, 64, 80, 100)
SEEDS = (0, 1)
REPS = 9
PARENT_SWEEP_FROM = 64


def mask_sweep(P):
    """(best, first maximizing quadruple, pm) from one mask-tested
    basepoint scan per point."""
    pm = [lspace._basepoint_scan(P, v, True, masks=True)[0] for v in range(len(P))]
    return (*lspace._top_quad(P, pm), pm)


def _best_of(reps, *calls):
    """The least time of each call over reps rounds, the calls taking
    turns so that a drift in host speed reaches each alike, and the
    results of the last round."""
    best = [float("inf")] * len(calls)
    for _ in range(reps):
        outs = []
        for t, f in enumerate(calls):
            t0 = time.perf_counter()
            outs.append(f())
            best[t] = min(best[t], time.perf_counter() - t0)
    return best, outs


def measure(family, n, seed, reps):
    X = FAMILIES[family](Random(1000 * n + seed), n)
    P = X.packed_table()
    if not lspace.validate_metric(X).ok:
        raise SystemExit("%s n=%d seed=%d is not a metric" % (family, n, seed))
    (quad_s, masks_s, new_s), (quad, masks, (value, witness, pm, _)) = _best_of(
        reps, lambda: lspace._scan_quads_num(P, range(n - 3), n),
        lambda: mask_sweep(P), lambda: lspace._four_point(X))
    best, first, per = quad
    agree = (masks == quad and value == QLexElem(X.unpack(best), 2)
             and sorted(map(X.index, witness)) == list(first) and pm == per)
    parent_s = quad_s if n < PARENT_SWEEP_FROM else masks_s
    return {"family": family, "n": n, "seed": seed, "path": four_point_path(X),
            "quad_s": round(quad_s, 5), "masks_s": round(masks_s, 5),
            "four_point_s": round(new_s, 5), "parent_s": round(parent_s, 5),
            "ratio": round(new_s / parent_s, 3), "agree": agree}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the rows and their summary here as JSON")
    args = ap.parse_args(argv)
    rows = []
    for family in FAMILIES:
        for n in SIZES:
            for seed in SEEDS:
                row = measure(family, n, seed, REPS)
                rows.append(row)
                print("%-7s n=%3d seed=%d path=%-5s quad=%.4fs masks=%.4fs "
                      "four_point=%.4fs ratio=%.3f%s"
                      % (family, n, seed, row["path"], row["quad_s"], row["masks_s"],
                         row["four_point_s"], row["ratio"], "" if row["agree"] else " DISAGREE"),
                      flush=True)
    summary = {f: {str(n): median(r["ratio"] for r in rows if r["family"] == f and r["n"] == n)
                   for n in SIZES} for f in FAMILIES}
    if args.out:
        report = {"machine": {"python": platform.python_version(),
                              "processor": platform.machine(),
                              "cores": os.cpu_count()},
                  "reps": REPS, "seeds": list(SEEDS),
                  "median_ratio": summary, "rows": rows}
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if all(r["agree"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
