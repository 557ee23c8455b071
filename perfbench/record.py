#!/usr/bin/env python3
"""Record the reference exit code and stdout digest of every job.

    python3 perfbench/record.py

Runs each job of each workload once on every input set and writes
``perfbench/references.json``.  Run it only on a commit whose output is
known to be right: the benchmark then fails any later commit whose bytes
differ.  While recording, it checks the values it can check on its own:

- for every input space of at most 12 points, the four-point constant
  and each basepoint constant that ``lhyp`` computes equal the brute-force
  values of ``tests/oracles.py``, which shares no code with ``lhyp``;
- the sweep finds 1, 1, 2, 6, 21, 112, 853 connected graphs and every one
  satisfies the six relations; its worst (point, thin, rips) triple per
  vertex count is recorded;
- set 0 gives the same digests when run a second time.
"""

import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import inputs
import runner

ORACLE_MAX_POINTS = 12

# Seed s selects input set s mod INPUT_SETS.
INPUT_SETS = 32


def _oracle_check(path: str) -> int:
    """Compare lhyp's constants for one small space with the oracle's."""
    from lhyp.lspace import hyperbolicity_report, read_lms
    from oracles import oracle_delta_4pt, oracle_delta_at

    with open(path) as fh:
        X = read_lms(fh.read())
    if len(X) > ORACLE_MAX_POINTS:
        return 0
    dist = [[e.coords for e in row] for row in X.dist]

    def as_fractions(q):
        return tuple(Fraction(c, q.den) for c in q.num.coords)

    report = hyperbolicity_report(X)
    if as_fractions(report.delta_4pt) != oracle_delta_4pt(dist):
        raise SystemExit("oracle disagrees on delta_4pt of %s" % path)
    for v, label in enumerate(X.labels):
        want = oracle_delta_at(dist, v)
        # the package clamps a negative defect to zero, the oracle starts at zero
        if as_fractions(report.delta_triple_at[label]) != want:
            raise SystemExit("oracle disagrees on delta_at %s of %s" % (label, path))
    return 1


def record_workload(name: str, sets: int, sweep_ref: dict) -> dict:
    out = {}
    for chosen in range(sets):
        wl = inputs.build(runner.ROOT, name, chosen)
        space_dir = os.path.join(runner.ROOT, inputs.WORK_DIR, name)
        checked = sum(_oracle_check(os.path.join(space_dir, f))
                      for f in sorted(os.listdir(space_dir)) if f.endswith(".lms"))
        refs = {}
        for job in wl.jobs:
            if job.kind == "sweep" and sweep_ref:
                refs[job.name] = sweep_ref["ref"]
                continue
            res = runner.run_job(wl, job, False, 600)
            if res.exit is None or not res.record:
                raise SystemExit("%s/%d %s did not finish" % (name, chosen, job.name))
            refs[job.name] = runner.reference(res)
            if job.kind == "sweep":
                sweep_ref["ref"] = refs[job.name]
                sweep_ref["worst"] = [runner.worst_triple(row)
                                      for row in runner.sweep_rows(res.stdout)]
                problems = runner.sweep_problems(res.stdout, sweep_ref["worst"])
                if problems or res.exit != 0:
                    raise SystemExit("sweep: %s" % "; ".join(problems or ["exit %d" % res.exit]))
        if chosen == 0:
            for job in wl.jobs:
                if job.kind == "sweep":
                    continue
                again = runner.run_job(wl, job, False, 600)
                if runner.reference(again) != refs[job.name]:
                    raise SystemExit("%s/0 %s is not reproducible" % (name, job.name))
        out[str(chosen)] = refs
        print("%s set %d: %d jobs, %d spaces checked against the oracle"
              % (name, chosen, len(refs), checked), flush=True)
    return out


def main() -> int:
    sys.path[:0] = [os.path.join(runner.ROOT, "src"),
                    os.path.join(runner.ROOT, "tests")]
    runner.warm_up()
    sweep_ref: dict = {}
    # two workloads at a time: each job is its own process
    with ThreadPoolExecutor(max_workers=min(2, inputs.nproc())) as pool:
        futures = {name: pool.submit(record_workload, name, INPUT_SETS,
                                     sweep_ref if name == "graphs" else {})
                   for name in inputs.WORKLOADS}
        workloads = {name: f.result() for name, f in futures.items()}
    refs = {"input_sets": INPUT_SETS, "sweep_worst": sweep_ref["worst"],
            "workloads": workloads}
    with open(runner.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % runner.REFERENCES)
    return 0


if __name__ == "__main__":
    sys.exit(main())
