"""Run jobs in fresh child processes and gate their output.

Each job is one ``child.py`` process started from the checkout root, so
the input paths the CLI echoes are the same relative paths on every run.
A job passes when it exits with its recorded code and its stdout has its
recorded sha256; stderr (which carries the CLI's ``wall`` line) is kept
but never compared.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, NamedTuple, Optional

from inputs import WORK_DIR, Job, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
REFERENCES = os.path.join(HERE, "references.json")

# Vertex counts of the connected graphs on 1..7 vertices (OEIS A001349).
GRAPH_COUNTS = (1, 1, 2, 6, 21, 112, 853)

# On a shared host a core's speed drifts by up to a half over seconds to
# minutes, as other tenants come and go, and the run-to-run spread of raw
# times follows it.  A run therefore times calibrate() before every job
# and reports its times scaled by CALIBRATION_REF_S / (mean of those).
CALIBRATION_REF_S = 0.015


class Result(NamedTuple):
    job: Job
    exit: Optional[int]     # None when the job timed out
    sha256: str
    stdout: bytes
    setup_s: float          # process start until lhyp.cli is imported
    main_s: float           # time inside the job's entry point
    wall_s: float           # process start until the process has ended
    maxrss_kb: int
    record: dict            # everything the child wrote


class SetupError(RuntimeError):
    """The program cannot be started here; no measurement is possible."""


def _env(threads: int) -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["LHYP_THREADS"] = str(threads)
    return env


def _spawn(mode: str, args, threads: int, trace: bool, stem: str,
           timeout: float):
    """Start one child, wait for it, and return (exit, stdout, record, times)."""
    paths = {ext: stem + ext for ext in (".out", ".err", ".json")}
    if os.path.exists(paths[".json"]):
        os.remove(paths[".json"])
    argv = [sys.executable, CHILD, paths[".json"], mode]
    argv += (["--trace"] if trace else []) + list(args)
    with open(paths[".out"], "wb") as out, open(paths[".err"], "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(threads),
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, start_new_session=True)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            # the child may have started a worker pool: end its whole group
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            code = None
        ended = time.monotonic()
    with open(paths[".out"], "rb") as fh:
        stdout = fh.read()
    record = {}
    if code is not None and os.path.exists(paths[".json"]):
        with open(paths[".json"]) as fh:
            record = json.load(fh)
    return code, stdout, record, spawned, ended


def warm_up() -> None:
    """Import the program once, so bytecode is compiled before timing."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lhyp", "cli.py")):
        raise SetupError("no lhyp sources under %s" % src)
    out_dir = os.path.join(ROOT, WORK_DIR)
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "warmup")
    code, _, record, _, _ = _spawn("warmup", (), 1, False, stem, 120)
    if code != 0 or not record:
        with open(stem + ".err", errors="replace") as fh:
            detail = fh.read().strip().splitlines()
        raise SetupError("cannot import lhyp.cli from %s: %s"
                         % (src, detail[-1] if detail else "exit %s" % code))
    if not os.path.abspath(record["program"]).startswith(src + os.sep):
        raise SetupError("lhyp.cli was imported from %s, not from %s"
                         % (record["program"], src))


def run_job(wl: Workload, job: Job, trace: bool, timeout: float) -> Result:
    out_dir = os.path.join(ROOT, WORK_DIR, "out", wl.name)
    os.makedirs(out_dir, exist_ok=True)
    mode = "cli" if job.kind not in ("sweep", "agree") else job.kind
    code, stdout, record, spawned, ended = _spawn(
        mode, job.argv, wl.threads, trace, os.path.join(out_dir, job.name), timeout)
    imported = record.get("imported")
    return Result(job, code, hashlib.sha256(stdout).hexdigest(), stdout,
                  imported - spawned if imported else float("nan"),
                  record.get("main_s", float("nan")), ended - spawned,
                  record.get("maxrss_kb", 0), record)


def calibrate() -> float:
    """Time of a fixed interpreter-bound loop, as fast as the core is now."""
    t0 = time.perf_counter()
    table = {}
    acc = 0
    for i in range(30000):
        key = (i * 7919) % 65521
        acc = (acc + key * i) % 1000003
        table[key] = (acc, i, key)
        acc += len(table.get((key * 31) % 65521, ()))
    return time.perf_counter() - t0


# -- references and the gate --------------------------------------------------

def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def input_set(refs: dict, seed: int) -> int:
    """The recorded input set a seed selects."""
    return seed % refs["input_sets"]


def sweep_rows(stdout: bytes) -> List[dict]:
    rows = []
    for line in stdout.decode("utf-8", "replace").splitlines():
        fields = dict(tok.split("=", 1) for tok in line.split() if "=" in tok)
        rows.append(fields)
    return rows


def worst_triple(row: dict) -> str:
    """The largest (point, thin, rips) constants of one sweep line."""
    return " ".join(str(row.get(k)) for k in ("max_point", "max_thin", "max_rips"))


def sweep_problems(stdout: bytes, worst: List[str]) -> List[str]:
    """Checks of the sweep report beyond its digest."""
    rows = sweep_rows(stdout)
    problems = []
    if len(rows) != len(GRAPH_COUNTS):
        return ["expected %d sweep lines, got %d" % (len(GRAPH_COUNTS), len(rows))]
    for n, (row, count, trio) in enumerate(zip(rows, GRAPH_COUNTS, worst), 1):
        if row.get("graphs") != str(count):
            problems.append("n=%d: %s graphs, expected %d" % (n, row.get("graphs"), count))
        if row.get("failures") != "0":
            problems.append("n=%d: %s graphs break a relation" % (n, row.get("failures")))
        got = worst_triple(row)
        if got != trio:
            problems.append("n=%d: worst (point, thin, rips) %s, expected %s"
                            % (n, got, trio))
    return problems


def reference(result: Result) -> str:
    """What the references file records for a job: "<exit> <stdout sha256>"."""
    return "%s %s" % (result.exit, result.sha256)


def gate(result: Result, expected: Optional[str], refs: dict) -> List[str]:
    """Why a job failed; empty when it passed."""
    if result.exit is None:
        return ["timed out"]
    if expected is None:
        return ["no recorded reference for this job and input set"]
    problems = []
    exit_code, sha256 = expected.split()
    if str(result.exit) != exit_code:
        problems.append("exit %s, expected %s" % (result.exit, exit_code))
    if result.sha256 != sha256:
        problems.append("stdout sha256 %s, expected %s"
                        % (result.sha256[:12], sha256[:12]))
    if not result.record:
        problems.append("the child wrote no timing record")
    if result.job.kind == "sweep":
        problems += sweep_problems(result.stdout, refs["sweep_worst"])
    return problems
