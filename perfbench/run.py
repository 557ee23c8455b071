#!/usr/bin/env python3
"""Benchmark the lhyp CLI, end to end and per layer.

    python3 perfbench/run.py --workload spaces-z1 --seed 1 --seconds 30 --trace 0

Writes seeded input files, then runs the workload's jobs (one fresh
``lhyp`` process each, one job at a time) again and again for
``--seconds``, checking every job's exit code and stdout digest against
the recorded references.  Times are reported at a reference host speed
(see runner.CALIBRATION_REF_S).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  ``--workload all`` runs every workload in turn.
The last line of stdout is one JSON object; the lines before it are the
same numbers for people.  See perfbench/README.md.
"""

import argparse
import json
import math
import statistics
import sys
import time
from typing import Dict, List, NamedTuple

import inputs
import runner
from spans import SPANS

# No job of a workload starts after this many seconds, and one that is
# still running then is stopped; the run ends well within three minutes.
HARD_LIMIT_S = 150.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("main_s", "s"),
              ("peak_rss_mb", "MB"))

COMMAND_METRICS = {"check": "check_s", "delta": "delta_s",
                   "complete": "complete_s", "lenfun": "lenfun_s",
                   "relcayley": "relcayley_s", "sweep": "sweep_s"}

CALLS = ("lspace.min_delta_at_witness", "lspace.min_delta_4pt_witness",
         "ordgroup.parse_lex", "geodspace.is_geodesic",
         "smallgraphs.canonical_key")
COUNTS = ("lspace.triples", "lspace.quads", "completion.vertices",
          "catalog.elements", "relhyp.cosets")


def _self_metric(span: str) -> str:
    return span + (".self_s" if span in ("cli.main", "bench.job") else ".s")


PER_LAYER = tuple(
    [(_self_metric(span), "s") for span in SPANS]
    + [(name + ".calls", "count") for name in CALLS]
    + [(name, "count") for name in COUNTS]
    + [("lspace.min_delta_4pt_witness.speedup", "1"),
       ("lenfun.triples_useful", "1"), ("trace.overhead_ratio", "1")]
    + [(name, "s") for name in COMMAND_METRICS.values()]
    + [("fail_ratio", "1")])


class Pass(NamedTuple):
    traced: bool
    results: List[runner.Result]
    problems: List[List[str]]   # why each job failed; empty when it passed


def _median(values) -> float:
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else 0.0


def measure(wl: inputs.Workload, expected: Dict[str, str], refs: dict,
            seconds: float, trace: bool, deadline: float):
    """Run whole passes over the jobs until the next would overrun ``seconds``.

    Returns the passes and the factor that takes their times to the
    reference speed of the host (see runner.CALIBRATION_REF_S).
    """
    passes: List[Pass] = []
    calibration: List[float] = []
    start = time.monotonic()
    rounds = 0
    while True:
        for traced in ((False, True) if trace else (False,)):
            results, problems = [], []
            for job in wl.jobs:
                calibration.append(runner.calibrate())
                timeout = max(1.0, deadline - time.monotonic())
                res = runner.run_job(wl, job, traced, timeout)
                results.append(res)
                problems.append(runner.gate(res, expected.get(job.name), refs))
            passes.append(Pass(traced, results, problems))
        rounds += 1
        elapsed = time.monotonic() - start
        if elapsed * (rounds + 1) / rounds > seconds or time.monotonic() > deadline:
            return passes, runner.CALIBRATION_REF_S / statistics.mean(calibration)


def _per_job(passes: List[Pass], field: str) -> Dict[str, float]:
    """Median over the passes of one timing of each job."""
    samples: Dict[str, List[float]] = {}
    for p in passes:
        for r in p.results:
            samples.setdefault(r.job.name, []).append(getattr(r, field))
    return {name: _median(values) for name, values in samples.items()}


def end_to_end(passes: List[Pass], scale: float) -> Dict[str, float]:
    """Pass times as sums of per-job medians, which one slow pass cannot move."""
    plain = [p for p in passes if not p.traced]
    main_s = _per_job(plain, "main_s")
    out = {
        "setup_s": _median([r.setup_s for p in plain for r in p.results]) * scale,
        "wall_s": sum(_per_job(plain, "wall_s").values()) * scale,
        "main_s": sum(main_s.values()) * scale,
        "peak_rss_mb": max(r.maxrss_kb for p in plain for r in p.results) / 1024.0,
    }
    for kind, name in COMMAND_METRICS.items():
        jobs = [r.job.name for r in plain[0].results if r.job.kind == kind]
        if jobs:
            out[name] = sum(main_s[job] for job in jobs) * scale
    return out


def per_layer(passes: List[Pass], e2e: Dict[str, float], scale: float) -> Dict[str, float]:
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]

    def over_traced(section: str, key: str) -> float:
        """Median over the traced passes of a per-pass total."""
        return _median([sum(r.record.get(section, {}).get(key, 0.0)
                            for r in p.results) for p in traced])

    out = {}
    for span in SPANS:
        out[_self_metric(span)] = over_traced("self_s", span) * scale
    for name in CALLS:
        out[name + ".calls"] = over_traced("calls", name)
    for name in COUNTS:
        out[name] = over_traced("counts", name)
    ratios = [r.record["extra"]["scan_1_s"] / r.record["extra"]["scan_2_s"]
              for p in plain for r in p.results
              if r.job.kind == "agree" and r.record.get("extra")]
    out["lspace.min_delta_4pt_witness.speedup"] = _median(ratios)
    checked = over_traced("counts", "lenfun.triples_checked")
    skipped = over_traced("counts", "lenfun.triples_skipped")
    out["lenfun.triples_useful"] = checked / (checked + skipped) if checked + skipped else 0.0
    out["trace.overhead_ratio"] = (sum(_per_job(traced, "wall_s").values()) * scale
                                   / e2e["wall_s"])
    for name in list(COMMAND_METRICS.values()) + ["fail_ratio"]:
        out[name] = e2e.get(name, 0.0)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 refs: dict, deadline: float) -> dict:
    chosen = runner.input_set(refs, seed)
    wl = inputs.build(runner.ROOT, name, chosen)
    expected = refs["workloads"][name].get(str(chosen), {})
    passes, scale = measure(wl, expected, refs, seconds, trace, deadline)
    attempted = sum(len(p.results) for p in passes)
    failed = sum(1 for p in passes for why in p.problems if why)
    e2e = end_to_end(passes, scale)
    e2e["fail_ratio"] = failed / attempted
    print("workload %s  seed %d  input set %d of %d  %d jobs x %d passes%s"
          % (name, seed, chosen, refs["input_sets"], len(wl.jobs), len(passes),
             " (half traced)" if trace else ""))
    print("  times below are at the reference host speed: measured times x %.4f" % scale)
    for p in passes:
        for res, why in zip(p.results, p.problems):
            for msg in why:
                print("FAIL %s%s: %s" % (res.job.name, " (traced)" if p.traced else "", msg))
    units = dict(END_TO_END, fail_ratio="1", **{m: "s" for m in COMMAND_METRICS.values()})
    for key, value in e2e.items():
        print("  %-22s %12.4f %s" % (key, value, units[key]))
    if trace:
        layers = per_layer(passes, e2e, scale)
        for key, unit in PER_LAYER:
            if key not in units:
                print("  %-40s %14.4f %s" % (key, layers[key], unit))
        spans = sum(layers[_self_metric(span)] for span in SPANS)
        print("  self times sum to %.4f s = %.3f x untraced main_s; overhead ratio %.3f"
              % (spans, spans / e2e["main_s"], layers["trace.overhead_ratio"]))
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=inputs.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measuring time per workload (default 30)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    try:
        refs = runner.load_references()
        runner.warm_up()
    except (OSError, runner.SetupError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    reports = {}
    for name in names:
        deadline = started + HARD_LIMIT_S * (len(reports) + 1)
        reports[name] = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace), refs, deadline)
    if len(reports) == 1:
        summary = reports[names[0]]
    else:
        summary = {"correct": all(r["correct"] for r in reports.values()),
                   "attempted": sum(r["attempted"] for r in reports.values()),
                   "failed": sum(r["failed"] for r in reports.values()),
                   "metrics": {"%s/%s" % (w, k): v for w, r in reports.items()
                               for k, v in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
