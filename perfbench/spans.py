"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces each public layer function listed in
``TARGETS`` with a timing wrapper.  A function imported by name into
another ``lhyp`` module (``lhyp.cli.hyperbolicity_report``,
``lhyp.geodspace.min_delta_at``, ...) is replaced there too, found by
identity, so no call escapes its span.  Nothing under ``lhyp`` is edited.

A span's self time is its duration minus the durations of the wrapped
calls made inside it, so the self times of one job add up to the
duration of its outermost span.
"""

import sys
import time
from collections import defaultdict
from math import comb

# (module, attribute, span); a span may gather several attributes
TARGETS = (
    ("lhyp.cli", "main", "cli.main"),
    ("lhyp.lspace", "read_lms", "lspace.read_lms"),
    ("lhyp.lspace", "validate_metric", "lspace.validate_metric"),
    ("lhyp.lspace", "min_delta_at_witness", "lspace.min_delta_at_witness"),
    ("lhyp.lspace", "min_delta_4pt_witness", "lspace.min_delta_4pt_witness"),
    ("lhyp.ordgroup", "parse_lex", "ordgroup.parse_lex"),
    ("lhyp.geodspace", "delta_relations", "geodspace.delta_relations"),
    ("lhyp.geodspace", "is_geodesic", "geodspace.is_geodesic"),
    ("lhyp.geodspace", "min_thinness_witness", "geodspace.min_thinness_witness"),
    ("lhyp.geodspace", "min_rips_witness", "geodspace.min_rips_witness"),
    ("lhyp.geodspace", "GeodesicGraph.__init__", "geodspace.GeodesicGraph"),
    ("lhyp.geodspace", "GeodesicGraph.as_space", "geodspace.GeodesicGraph"),
    ("lhyp.smallgraphs", "connected_graphs", "smallgraphs.connected_graphs"),
    ("lhyp.smallgraphs", "canonical_key", "smallgraphs.canonical_key"),
    ("lhyp.completion", "check_RS", "completion.check_RS"),
    ("lhyp.completion", "gamma1", "completion.gamma1"),
    ("lhyp.completion", "gamma2", "completion.gamma2"),
    ("lhyp.completion", "CompletionGraph.derived_space", "completion.derived_space"),
    ("lhyp.completion", "write_cg", "completion.write_cg"),
    ("lhyp.isometry", "classify_certificate", "isometry.classify_certificate"),
    ("lhyp.catalog", "read_len", "catalog.read_len"),
    ("lhyp.catalog", "read_grp", "catalog.read_grp"),
    ("lhyp.lenfun", "check_axioms", "lenfun.check_axioms"),
    ("lhyp.lenfun", "check_regular", "lenfun.check_regular"),
    ("lhyp.lenfun", "check_complete", "lenfun.check_complete"),
    ("lhyp.lenfun", "check_free", "lenfun.check_free"),
    ("lhyp.relhyp", "RelCayley.__init__", "relhyp.RelCayley"),
    ("lhyp.relhyp", "short_pair_report", "relhyp.short_pair_report"),
    ("lhyp.relhyp", "check_qi", "relhyp.check_qi"),
    ("lhyp.relhyp", "verify_relhyp_geodesics", "relhyp.verify_relhyp_geodesics"),
    ("lhyp.relhyp", "check_Pn", "relhyp.check_Pn"),
)

# The outermost span of a sweep or agreement job: the benchmark's own loop.
ROOT_SPAN = "bench.job"

# Every span, in report order.
SPANS = tuple(dict.fromkeys([span for _, _, span in TARGETS] + [ROOT_SPAN]))


# Work counts taken at the same boundaries: computed from input sizes,
# or read off the returned object.  Each gets (counts, args, result).
def _triples(counts, args, result):
    counts["lspace.triples"] += len(args[0]) ** 3


def _quads(counts, args, result):
    counts["lspace.quads"] += comb(len(args[0]), 4)


def _vertices(counts, args, result):
    counts["completion.vertices"] += len(result.labels)


def _elements(counts, args, result):
    counts["catalog.elements"] += len(result)


def _cosets(counts, args, result):
    counts["relhyp.cosets"] += len(args[0])


def _axiom_triples(counts, args, result):
    counts["lenfun.triples_checked"] += result.triples_checked
    counts["lenfun.triples_skipped"] += result.triples_skipped


COUNTERS = {
    "lspace.min_delta_at_witness": _triples,
    "lspace.min_delta_4pt_witness": _quads,
    "completion.gamma1": _vertices,
    "completion.gamma2": _vertices,
    "catalog.read_len": _elements,
    "relhyp.RelCayley": _cosets,
    "lenfun.check_axioms": _axiom_triples,
}


class Tracer:
    """Self time and call count per span, plus the work counts above."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._inner = []    # one accumulator of wrapped-child time per open span

    def wrap(self, name, fn):
        inner = self._inner
        self_s, calls, counts = self.self_s, self.calls, self.counts
        count = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            inner.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - t0
                self_s[name] += took - inner.pop()
                calls[name] += 1
                if inner:
                    inner[-1] += took
            if count is not None:
                count(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target; call after importing the lhyp modules used."""
        for module, _, _ in TARGETS:
            __import__(module)
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "lhyp" or name.startswith("lhyp.")]
        for module, attr, name in TARGETS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(name, original)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts)}
