import importlib.util
import os
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from lhyp import lspace
from lhyp.cli import main
from lhyp.errors import InputError
from lhyp.lspace import (FiniteLambdaSpace, convex_classes, gromov_product,
                         hyperbolicity_report, min_delta_4pt,
                         min_delta_4pt_witness, min_delta_at,
                         min_delta_at_witness, min_delta_triple,
                         quotient_by_convex, read_lms, scale, subspace_at,
                         validate_metric, write_lms)
from lhyp.ordgroup import LexElem, Packing, QLexElem

from helpers import (FAMILIES, L, cycle_space, four_point_path,
                     random_lex_space, random_metric_rows,
                     random_metric_space, random_tree_rows, space_rank1)
from oracles import (oracle_delta_4pt, oracle_delta_at,
                     oracle_delta_at_witness, oracle_metric_violation,
                     oracle_pair_witness, rkey)

seeds = st.integers(min_value=0, max_value=10 ** 6)
# (rank, domain, bound on the lower coordinates); None is a rank-1 Z metric
kinds = st.sampled_from((None, (2, "Z", 9), (3, "Z", 10 ** 7), (2, "Q", 9)))


def some_space(seed, n, kind):
    if kind is None:
        return random_metric_space(Random(seed), n, maxw=9)
    return random_lex_space(Random(seed), n, *kind)


def raw_of(X):
    return [[d.coords for d in row] for row in X.dist]


def test_c4_constants():
    X = cycle_space(4)
    assert min_delta_at(X, 0) == QLexElem.from_lex(L(1))
    assert min_delta_4pt(X) == QLexElem.from_lex(L(1))


def test_c8_constant():
    assert min_delta_4pt(cycle_space(8)) == QLexElem.from_lex(L(2))


def test_half_integer_delta_shows_up():
    # 5-cycle: products live in Z/2
    X = cycle_space(5)
    assert min_delta_4pt(X) == QLexElem(L(1), 2)


def test_validate_metric_catches_each_axiom():
    good = space_rank1([[0, 2], [2, 0]])
    assert validate_metric(good).ok
    asym = FiniteLambdaSpace(["p", "q"], [[L(0), L(2)], [L(1), L(0)]])
    assert validate_metric(asym).axiom == "LM3"
    selfd = FiniteLambdaSpace(["p", "q"], [[L(1), L(2)], [L(2), L(0)]])
    assert not validate_metric(selfd).ok
    neg = FiniteLambdaSpace(["p", "q"], [[L(0), L(-2)], [L(-2), L(0)]])
    assert not validate_metric(neg).ok
    tri = space_rank1([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    r = validate_metric(tri)
    assert r.axiom == "LM4" and len(r.witness) == 3


def test_indistinct_points_rejected():
    dup = space_rank1([[0, 0], [0, 0]])
    assert not validate_metric(dup).ok


@given(seeds, st.integers(min_value=2, max_value=7), kinds)
def test_delta_at_matches_oracle(seed, n, kind):
    X = some_space(seed, n, kind)
    raw = raw_of(X)
    for v in range(n):
        got = min_delta_at(X, v)
        want = oracle_delta_at(raw, v)
        assert tuple(Fraction(c, got.den) for c in got.num.coords) == want


def tie_space(seed, n, rank, kind):
    """A table with many ties.  A "metric" is a rank-1 metric of weights
    1..3 or a rank-2 one of small lower coordinates; "any" is any
    symmetric table of a few values, negatives and nonzero diagonals
    included, and "asymmetric" the same with its lower triangle drawn
    on its own.  One element object per value, except that a few entries get
    their own."""
    rng = Random(seed)
    if kind == "metric" and rank == 1:
        rows = [[(d,) for d in row] for row in random_metric_rows(rng, n, maxw=3)]
    elif kind == "metric":
        rows = raw_of(random_lex_space(rng, n, 2, "Z", 1))
    else:
        pool = [tuple(rng.randint(-2, 3) for _ in range(rank)) for _ in range(3)]
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.choice(pool)
        if kind == "asymmetric":
            for i in range(n):
                for j in range(i):
                    rows[i][j] = rng.choice(pool)
    shared = {c: LexElem(c) for c in set().union(*rows)}
    dist = [[LexElem(c) if rng.random() < 0.1 else shared[c] for c in row]
            for row in rows]
    return FiniteLambdaSpace(["p%d" % i for i in range(n)], dist)


TIE_KINDS = ("metric", "any", "asymmetric")


def assert_witness_matches_oracle(X, basepoints=None):
    raw = raw_of(X)
    # the kernel's defect is the triple defect where the table is symmetric
    symmetric = raw == [list(c) for c in zip(*raw)]
    oracle = oracle_delta_at_witness if symmetric else oracle_pair_witness
    for v in range(len(X)) if basepoints is None else basepoints:
        val, wit = min_delta_at_witness(X, v)
        want, (x, y, z) = oracle(raw, v)
        assert tuple(Fraction(c, val.den) for c in val.num.coords) == want
        assert wit == (X.labels[x], X.labels[y], X.labels[z])


@given(seeds, st.integers(min_value=1, max_value=7), st.sampled_from((1, 2)),
       st.sampled_from(TIE_KINDS))
def test_witness_matches_oracle_at_every_basepoint(seed, n, rank, kind):
    assert_witness_matches_oracle(tie_space(seed, n, rank, kind))


@pytest.mark.parametrize("n", (1, 2, 3))
def test_witness_matches_oracle_on_tiny_tables(n):
    for seed in range(60):
        for rank in (1, 2):
            for kind in TIE_KINDS:
                assert_witness_matches_oracle(tie_space(seed, n, rank, kind))


@pytest.mark.parametrize("kind, rank", [("metric", 1), ("metric", 2), ("any", 2),
                                        ("asymmetric", 1)])
@pytest.mark.parametrize("n, basepoints", [(10, None), (40, (29,))])
def test_witness_matches_oracle_on_larger_tables(kind, rank, n, basepoints):
    # past a few points most pairs are skipped by the row maxima, and the
    # rest are walked
    assert_witness_matches_oracle(tie_space(n, n, rank, kind), basepoints)


@settings(max_examples=120)
@given(seeds, st.integers(min_value=1, max_value=7), st.sampled_from((1, 2)),
       st.sampled_from(("metric", "bumped", "asymmetric", "any")))
def test_validate_metric_matches_oracle(seed, n, rank, kind):
    rng = Random(seed)
    rows = raw_of(tie_space(seed, n, rank, "any" if kind == "any" else "metric"))
    i, j = rng.randrange(n), rng.randrange(n)
    if kind == "bumped":
        # longer sides break the triangle through points between
        for _ in range(2):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                up = rows[i][j][:-1] + (rows[i][j][-1] + rng.randint(1, 9),)
                rows[i][j] = rows[j][i] = up
    elif kind == "asymmetric":
        rows[i][j] = rows[i][j][:-1] + (rows[i][j][-1] + 1,)
    X = FiniteLambdaSpace(["p%d" % t for t in range(n)], [[LexElem(c) for c in row] for row in rows])
    got = validate_metric(X)
    want = oracle_metric_violation(rows)
    if want is None:
        assert got.ok
    else:
        assert (got.axiom, got.witness) == (want[0], tuple(X.labels[t] for t in want[1]))


@given(seeds, st.integers(min_value=2, max_value=7), kinds)
def test_delta_4pt_matches_oracle(seed, n, kind):
    X = some_space(seed, n, kind)
    got = min_delta_4pt(X)
    want = oracle_delta_4pt(raw_of(X))
    assert tuple(Fraction(c, got.den) for c in got.num.coords) == want


@given(seeds)
def test_tree_metrics_are_0_hyperbolic(seed):
    X = space_rank1(random_tree_rows(Random(seed), 9))
    assert min_delta_4pt(X).is_zero()


@given(seeds, st.integers(min_value=2, max_value=6))
def test_witnesses_attain_the_constants(seed, n):
    X = random_metric_space(Random(seed), n, maxw=9)
    val, wit = min_delta_at_witness(X, 0)
    assert val == min_delta_at(X, 0)
    if not val.is_zero():
        assert len(wit) == 3 and all(w in X.labels for w in wit)
    v4, w4 = min_delta_4pt_witness(X)
    assert v4 == min_delta_4pt(X)
    if not v4.is_zero():
        x, y, z, w = (X.index(t) for t in w4)
        s1 = X.dist[x][y] + X.dist[z][w]
        s2 = X.dist[x][z] + X.dist[y][w]
        s3 = X.dist[x][w] + X.dist[y][z]
        gap = s1 - (s2 if s3 < s2 else s3)
        assert QLexElem(gap, 2) == v4


@given(seeds, st.integers(min_value=2, max_value=6))
def test_triple_constant_is_max_over_basepoints(seed, n):
    X = random_metric_space(Random(seed), n, maxw=9)
    per = [min_delta_at(X, v) for v in range(n)]
    assert min_delta_triple(X) == max(per)
    # four-point constant never drops below any basepoint constant halved
    d4 = min_delta_4pt(X)
    for q in per:
        assert q <= d4 * 2 and d4 <= q * 2


def test_gromov_product_value():
    X = space_rank1([[0, 3, 4], [3, 0, 5], [4, 5, 0]])
    assert gromov_product(X, "v1", "v2", "v0") == QLexElem.from_lex(L(1))
    assert gromov_product(X, "v0", "v2", "v1") == QLexElem.from_lex(L(2))


@given(seeds)
def test_workers_agree_with_serial(seed):
    X = random_metric_space(Random(seed), 8, maxw=9)
    assert min_delta_4pt(X, workers=1) == min_delta_4pt(X, workers=3)


def test_every_pool_size_gives_the_serial_results():
    X = random_metric_space(Random(11), 11, maxw=9)
    want = hyperbolicity_report(X, workers=1), min_delta_4pt_witness(X, workers=1)
    for workers in (None, 2):
        got = hyperbolicity_report(X, workers), min_delta_4pt_witness(X, workers)
        assert got == want


def test_a_delta_run_past_the_crossover_forks_nothing(tmp_path, capsys, monkeypatch):
    # 70 points take the basepoint scans, which start no process
    X = random_metric_space(Random(70), 70, maxw=9)
    assert len(X) >= lspace._SWEEP_FROM
    space = tmp_path / "seventy.lms"
    space.write_text(write_lms(X))
    with monkeypatch.context() as mp:
        mp.setattr(lspace, "_SWEEP_FROM", 71)
        assert main(["delta", "--space", str(space)]) == 0
        want = capsys.readouterr().out

    def no_fork():
        raise AssertionError("the four-point report forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert main(["delta", "--space", str(space)]) == 0
    assert capsys.readouterr().out == want
    lines = want.splitlines()
    assert len(lines) == len(set(lines)) == 78
    assert min_delta_4pt(X, workers=8) == min_delta_4pt(X, workers=1)
    # nor was a child started some other way and left behind
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# module settings that send every table of 4 or more points down one way
# of _four_point: basepoint 0's walk never stops at a limit of n², and
# stops at its first pair at a limit of 0
PATHS = {"quad": {"_SWEEP_FROM": 10 ** 9},
         "walk": {"_SWEEP_FROM": 4, "_WALKED_SHARE": 1},
         "masks": {"_SWEEP_FROM": 4, "_MASKS_FROM": 4, "_WALKED_SHARE": 10 ** 9}}


def on_path(path, report, X):
    """report(X) with ``_four_point`` sent down path, checked to take it."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in PATHS[path].items():
            mp.setattr(lspace, name, value)
        if path != "quad" and len(X) >= 4:
            assert four_point_path(X) == path
        return report(X)


@pytest.mark.parametrize("sweep", (False, True))
@given(seeds, st.integers(min_value=1, max_value=8), kinds)
def test_report_matches_every_basepoint_scan(sweep, seed, n, kind):
    X = some_space(seed, n, kind)
    if sweep:
        # one basepoint scan per point from four points on, walked and by masks
        hr = on_path("walk", hyperbolicity_report, X)
        assert on_path("masks", hyperbolicity_report, X) == hr
    else:
        hr = on_path("quad", hyperbolicity_report, X)
    raw = raw_of(X)
    per = [min_delta_at_witness(X, v) for v in range(n)]
    for v, lab in enumerate(X.labels):
        got = hr.delta_triple_at[lab]
        assert got == per[v][0]
        assert tuple(Fraction(c, got.den) for c in got.num.coords) == oracle_delta_at(raw, v)
    assert hr.delta_triple == hr.delta_4pt == min_delta_4pt(X)
    assert hr.witness_quad == (min_delta_4pt_witness(X)[1] or ())
    top = max(val for val, _ in per)
    if top.is_zero():
        assert hr.basepoint_of_witness == "" and hr.witness_triple == ()
    else:
        first = next(v for v in range(n) if per[v][0] == top)
        assert hr.basepoint_of_witness == X.labels[first]
        assert hr.witness_triple == per[first][1]


@pytest.mark.parametrize("n, kind", [
    (48, (1, 1)), (64, (1, 2)), (72, (1, 3)), (100, (1, 2)),
    (56, (2, "Z", 1)), (48, (2, "Q", 1)),
])
def test_both_four_point_paths_agree_on_tied_tables(n, kind):
    # weights of 1..3, or lower coordinates in -1..1, tie many quadruples
    # at the largest defect, so the witness rule meets its hard cases
    rng = Random(n)
    if kind[0] == 1:
        X = random_metric_space(rng, n, maxw=kind[1])
    else:
        X = random_lex_space(rng, n, *kind)
    want = on_path("quad", hyperbolicity_report, X)
    for path in ("walk", "masks"):
        assert on_path(path, hyperbolicity_report, X) == want
    # and the way the table picks, which needs no process
    assert hyperbolicity_report(X) == want
    assert min_delta_4pt_witness(X, workers=2) == (want.delta_4pt, want.witness_quad)


@pytest.mark.parametrize("family, n, path", [
    ("tree", 33, "quad"), ("tree", 64, "masks"), ("tree+1", 40, "quad"),
    ("tree+4", 56, "quad"), ("cycle", 45, "walk"), ("metric", 32, "walk"),
    ("metric", 70, "walk"), ("z2", 48, "walk"), ("z3", 36, "walk"),
])
def test_four_point_paths_agree_on_families(family, n, path):
    # trees let most pairs through the row maxima, random metrics few
    X = FAMILIES[family](Random(n), n)
    assert four_point_path(X) == path
    # the value, its witness and every basepoint constant; only the
    # basepoint scans give each point's pair
    want = on_path("quad", lspace._four_point, X)[:3]
    for forced in ("walk", "masks"):
        assert on_path(forced, lspace._four_point, X)[:3] == want


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("family, n", [
    ("tree", 72), ("tree+1", 32), ("tree+4", 64), ("cycle", 41),
    ("metric", 56), ("z2", 48), ("z3", 37),
])
def test_the_report_takes_the_witness_from_the_basepoint_scans(family, n, path):
    # the basepoint scans keep each point's pair, so the report finds the
    # third point from it; after the quadruple scan it scans the basepoint
    X = FAMILIES[family](Random(n), n)
    scanned = []

    def at_witness(Y, v):
        scanned.append(Y.index(v))
        return min_delta_at_witness(Y, v)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lspace, "min_delta_at_witness", at_witness)
        hr = on_path(path, hyperbolicity_report, X)
    pm = [hr.delta_triple_at[lab] for lab in X.labels]
    top = max(pm)
    if top.is_zero():
        assert family == "tree" and hr.witness_triple == ()
        return
    bp = X.labels.index(hr.basepoint_of_witness)
    assert bp == pm.index(top)
    assert hr.witness_triple == min_delta_at_witness(X, bp)[1]
    assert scanned == ([bp] if path == "quad" else [])


@pytest.mark.parametrize("n", (40, 72))
def test_the_four_point_report_refuses_a_table_that_is_not_a_metric(n):
    # the basepoint scans need a metric to find a maximizing quadruple
    rows = random_metric_rows(Random(0), n, maxw=9)
    rows[0][1] = rows[1][0] = -3
    X = space_rank1(rows)
    for report in (min_delta_4pt_witness, hyperbolicity_report):
        with pytest.raises(InputError, match="^input is not a metric space: LM1 at v0,v1$"):
            report(X)


@pytest.mark.parametrize("command", ("check", "delta"))
def test_check_and_delta_validate_once(command, tmp_path):
    space = tmp_path / "forty.lms"
    space.write_text(write_lms(random_metric_space(Random(40), 40, maxw=9)))
    validate_metric.cache_clear()
    assert main([command, "--space", str(space)]) == 0
    # the four-point report reads the report that the command made
    info = validate_metric.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("family, n, path", [
    ("metric", 4, "quad"), ("metric", 24, "walk"), ("z3", 24, "walk"),
    ("tree", 24, "masks"), ("tree+1", 12, "quad"),
])
def test_bench_script_agrees_on_every_path(family, n, path, monkeypatch):
    script = Path(__file__).resolve().parent.parent / "scripts" / "bench_fourpoint.py"
    spec = importlib.util.spec_from_file_location("bench_fourpoint", script)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    # tables of 8 or more points may take a basepoint sweep
    monkeypatch.setattr(lspace, "_SWEEP_FROM", 8)
    monkeypatch.setattr(lspace, "_MASKS_FROM", 16)
    row = bench.measure(family, n, 0, 1)
    assert row["agree"] and row["path"] == path


def test_hyperbolicity_report_shape():
    X = cycle_space(6)
    hr = hyperbolicity_report(X)
    assert set(hr.delta_triple_at) == set(X.labels)
    assert hr.delta_triple == max(hr.delta_triple_at.values())
    assert hr.basepoint_of_witness in X.labels


def rank2_space():
    labels = ["a", "b", "c", "d"]
    pos = [(0, 0), (1, 0), (3, 0), (0, 1)]

    def d(p, q):
        if p == q:
            return L(0, 0)
        if p[1] == q[1]:
            return L(abs(p[0] - q[0]), 0)
        return L(p[0] + q[0], abs(p[1] - q[1]))

    dist = [[d(p, q) for q in pos] for p in pos]
    return FiniteLambdaSpace(labels, dist)


def test_convex_classes_split_at_infinite_gaps():
    X = rank2_space()
    cls = convex_classes(X, 1)
    as_labels = sorted(tuple(X.labels[i] for i in c) for c in cls)
    assert as_labels == [("a", "b", "c"), ("d",)]
    assert convex_classes(X, 2) == [[0, 1, 2, 3]]
    assert convex_classes(X, 0) == [[0], [1], [2], [3]]


def test_subspace_at_picks_the_small_component():
    X = rank2_space()
    S = subspace_at(X, "a", 1)
    assert list(S.labels) == ["a", "b", "c"]
    assert S.rank == 1
    assert S.d("a", "c") == L(3)


def test_quotient_collapses_classes():
    X = rank2_space()
    Q = quotient_by_convex(X, 1)
    assert len(Q) == 2 and Q.rank == 1
    assert not validate_metric(Q).ok or Q.d(Q.labels[0], Q.labels[1]) == L(1)


@given(seeds, st.integers(min_value=1, max_value=5))
def test_scale_multiplies_delta(seed, k):
    X = random_metric_space(Random(seed), 6, maxw=8)
    Y = scale(X, k)
    assert min_delta_4pt(Y) == min_delta_4pt(X) * k


def test_lms_round_trip():
    X = rank2_space()
    Y = read_lms(write_lms(X))
    assert list(Y.labels) == list(X.labels)
    assert Y.dist == X.dist and Y.rank == 2


def test_lms_rejects_malformed():
    with pytest.raises(InputError):
        read_lms("hello\n")
    with pytest.raises(InputError):
        read_lms("lambda Z^1\npoints 2 a b\n(0) (1)\n")
    with pytest.raises(InputError):
        read_lms("lambda Z^1\npoints 2 a a\n(0) (1)\n(1) (0)\n")


def test_constructor_validates_shape_not_axioms():
    # a broken metric must load so the checker can report it
    X = FiniteLambdaSpace(["p", "q"], [[L(0), L(5)], [L(1), L(0)]])
    assert not validate_metric(X).ok
    with pytest.raises(InputError):
        FiniteLambdaSpace(["p"], [[L(0), L(1)]])
    with pytest.raises(InputError):
        FiniteLambdaSpace(["p", "q"], [[L(0), L(1, 2)], [L(1, 2), L(0, 0)]])


@pytest.mark.parametrize("odd, error", [
    (LexElem((1,), "Q"), "table entry LexElem((1), 'Q') not in the declared group"),
    (3, "table entry 3 not in the declared group"),
    (L(1, 0), "mixed ranks in distance table"),
])
def test_constructor_checks_an_entry_that_appears_once(odd, error):
    # every other entry shares one of two objects, checked once each
    zero, one = L(0), L(1)
    dist = [[zero if i == j else one for j in range(5)] for i in range(5)]
    dist[4][3] = odd
    with pytest.raises(InputError) as err:
        FiniteLambdaSpace("abcde", dist)
    assert str(err.value) == error


def test_packing_checks_an_element_that_appears_once():
    one = L(1)
    with pytest.raises(InputError) as err:
        Packing([one] * 20 + [L(1, 1)] + [one] * 5)
    assert str(err.value) == "incompatible elements: Z^1 vs Z^2"
