"""Run one benchmark job in a fresh interpreter and record its timings.

    python3 child.py RECORD MODE [--trace] [ARG ...]

MODE is ``cli`` (ARGs go to ``lhyp.cli.main``), ``sweep`` (ARG is the
largest vertex count), ``agree`` (ARGs are a .lms path and a worker
count) or ``warmup`` (import only).  The job's report goes to stdout,
byte for byte what the gate digests; the timings go to RECORD as JSON.
The child exits with the job's exit code.
"""

import sys
import time


def sweep(up_to: int) -> int:
    """Every connected unit graph on up to ``up_to`` vertices, through delta_relations."""
    from lhyp.geodspace import GeodesicGraph, delta_relations
    from lhyp.smallgraphs import connected_graphs, edge_list

    bad = 0
    for n in range(1, up_to + 1):
        count = failures = 0
        worst = None
        for adj in connected_graphs(n):
            X = GeodesicGraph(["v%d" % i for i in range(n)], edge_list(adj)).as_space()
            rel = delta_relations(X)
            count += 1
            failures += not rel.ok
            trio = (rel.delta_point, rel.delta_thin, rel.delta_rips)
            worst = trio if worst is None else tuple(map(max, worst, trio))
        bad += failures
        print("n=%d graphs=%d failures=%d max_point=%s max_thin=%s max_rips=%s"
              % ((n, count, failures) + tuple(w.render() for w in worst)))
    return 1 if bad else 0


def agree(path: str, workers: int, extra: dict) -> int:
    """The four-point scan at one worker and at ``workers`` must agree."""
    from lhyp.lspace import min_delta_4pt_witness, read_lms

    with open(path) as fh:
        X = read_lms(fh.read())
    results = []
    for w in (1, workers):
        t0 = time.perf_counter()
        results.append(min_delta_4pt_witness(X, w))
        extra["scan_%d_s" % len(results)] = time.perf_counter() - t0
    (value, witness), other = results
    same = other == results[0]
    print("delta_4pt %s" % value.render())
    print("witness_4pt %s" % ",".join(witness or ("none",)))
    print("workers_agree %s" % ("yes" if same else "no"))
    return 0 if same else 1


def peak_rss_kb() -> int:
    """High-water resident set of this process image.

    ``ru_maxrss`` would also count the parent's pages held before exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    record, mode, *args = sys.argv[1:]
    trace = args[:1] == ["--trace"]
    if trace:
        args = args[1:]
    import lhyp.cli
    imported = time.monotonic()

    import json
    from functools import partial

    tracer = None
    if trace:
        from spans import ROOT_SPAN, Tracer
        tracer = Tracer()
        tracer.install()
    extra: dict = {}
    if mode == "cli":
        job = partial(lhyp.cli.main, args)
    elif mode == "sweep":
        job = partial(sweep, int(args[0]))
    elif mode == "agree":
        job = partial(agree, args[0], int(args[1]), extra)
    elif mode == "warmup":
        job = int   # returns 0
    else:
        raise SystemExit("unknown mode %r" % mode)
    if tracer is not None and mode != "cli":   # cli.main is already a span
        job = tracer.wrap(ROOT_SPAN, job)
    t0 = time.perf_counter()
    try:
        code = job()
    except SystemExit as exc:   # argparse rejects the arguments
        code = exc.code
    main_s = time.perf_counter() - t0
    sys.stdout.flush()
    out = {"imported": imported, "program": lhyp.cli.__file__,
           "main_s": main_s, "exit": code,
           "maxrss_kb": peak_rss_kb(),
           "extra": extra}
    if tracer is not None:
        out.update(tracer.snapshot())
    with open(record, "w") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
