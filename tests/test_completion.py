from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from lhyp import completion
from lhyp.completion import (AUXILIARY, ESSENTIAL, NEGLIGIBLE,
                             CompletionGraph, check_RS, extend_isometry,
                             gamma1, gamma2, hausdorff_const, midpoints,
                             tau_max, write_cg)
from lhyp.errors import ConstructionError, InputError
from lhyp.geodspace import distances_from, is_geodesic
from lhyp.isometry import IsoPerm, identity_perm
from lhyp.lspace import min_delta_4pt
from lhyp.ordgroup import LexElem, QLexElem

from helpers import (L, ceil_delta_int, cycle_space, random_lex_space,
                     random_metric_space, random_tree_space,
                     random_unit_geodesic_space, space_rank1)
from oracles import dijkstra, oracle_central_points, oracle_tau

seeds = st.integers(min_value=0, max_value=10 ** 6)


def triangle(side=2):
    return space_rank1([[0 if i == j else side for j in range(3)]
                        for i in range(3)], labels=["x", "y", "z"])


def thin_triangle():
    return space_rank1([[0, 2, 5], [2, 0, 5], [5, 5, 0]],
                       labels=["x", "y", "z"])


def graph_fingerprint(g: CompletionGraph):
    verts = sorted((g.klass[i], g.provenance[i]) for i in range(len(g.labels)))
    edges = sorted((min(g.provenance[u]), min(g.provenance[v]), w)
                   for u, v, w in g.edges)
    return verts, edges


def assert_path_metric(g: CompletionGraph, Y):
    # shortest paths over every edge, chords included
    want = dijkstra(len(g.labels), g.edges)
    assert [[e.coords[0] for e in row] for row in Y.dist] == want


# -- midpoints / RS -------------------------------------------------------


def test_midpoints_on_triangle():
    X = triangle()
    assert midpoints(X, "x", "y", "z", L(1)) != ()
    assert midpoints(X, "x", "y", "z", L(0)) == ()


def test_check_rs_verdicts():
    assert check_RS(triangle(), L(1)) == (True, None)
    assert check_RS(triangle(), L(0)) == (False, ("x", "y", "z"))


@given(seeds, st.sampled_from([(1, "Z", 9), (2, "Z", 9), (2, "Z", 10 ** 7),
                               (2, "Q", 9)]), st.booleans())
def test_check_rs_matches_oracle(seed, kind, above):
    rng = Random(seed)
    rank, domain, low = kind
    X = random_lex_space(rng, rng.randint(3, 7), rank, domain, low=low)
    raw = [[e.coords for e in row] for row in X.dist]
    top = max(c[-1] for row in raw for c in row)
    # delta above every entry, or small enough that some triples fail
    last = top + 1 if above else rng.randint(0, 1)
    delta = LexElem([rng.randint(-low, low) for _ in range(rank - 1)] + [last],
                    domain)
    ok, got = check_RS(X, delta)
    lab = X.labels
    failing = None
    for x, y, z in combinations(range(len(X)), 3):
        want = tuple(lab[v] for v in
                     oracle_central_points(raw, delta.coords, x, y, z))
        assert midpoints(X, lab[x], lab[y], lab[z], delta) == want
        if not want and failing is None:
            failing = (lab[x], lab[y], lab[z])
    assert got == failing and ok == (failing is None)


# -- tau ------------------------------------------------------------------


def test_tau_fixed_points_and_first_jump():
    assert tau_max(3, 1) == 4
    assert tau_max(4, 1) == 8
    for d in range(1, 6):
        for k in range(2 * d + 1):
            assert tau_max(k, d) == k
        assert tau_max(2 * d + 1, d) == 4 * d


@given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=4))
def test_tau_linear_bound(n, d):
    if d == 0:
        assert tau_max(n, 0) == n
    else:
        assert n <= tau_max(n, d) <= 4 * d * n or n <= 2 * d


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=4))
def test_tau_monotone(n, d):
    assert tau_max(n, d) <= tau_max(n + 1, d)


def test_tau_closed_form_matches_oracle():
    for d in range(5):
        for n in range(61):
            assert tau_max(n, d) == oracle_tau(n, d), (n, d)


def test_tau_rejects_negative_arguments_and_keeps_short_lengths():
    for n, d in [(-1, 2), (5, -1), (100, -3)]:
        with pytest.raises(InputError):
            tau_max(n, d)
    assert tau_max(50, 0) == 50 and tau_max(6, 3) == 6


# -- stage one ------------------------------------------------------------


def test_stage_one_triangle_golden():
    g = gamma1(triangle(), 1)
    assert len(g.labels) == 6 and len(g.edges) == 9
    assert g.essential_count() == 3
    kinds = sorted(g.klass)
    assert kinds.count(ESSENTIAL) == 3 and kinds.count(AUXILIARY) == 3
    # 6 unit edges around the hexagon plus 3 chords of weight 2
    weights = sorted(w for _, _, w in g.edges)
    assert weights == [1] * 6 + [2] * 3
    Y = g.derived_space()
    ok, _ = is_geodesic(Y)
    assert ok
    assert min_delta_4pt(Y) == QLexElem.from_lex(L(1))


def test_stage_one_at_delta_zero_glues_midpoints():
    g = gamma1(triangle(), 0)
    assert len(g.labels) == 4
    center = [i for i, k in enumerate(g.klass) if k == AUXILIARY]
    assert len(center) == 1
    assert len(g.provenance[center[0]]) == 3


def test_stage_one_fixes_geodesic_input():
    X = cycle_space(6)
    g = gamma1(X, 1)
    assert len(g.labels) == 6
    assert g.certificate["geodesic"] == "yes"
    Y = g.derived_space()
    assert list(Y.labels) == list(X.labels) and Y.dist == X.dist


def test_stage_one_thin_triangle_has_one_bridge():
    X = thin_triangle()
    g = gamma1(X, 1)
    assert len(g.labels) == 15
    bridges = [i for i, k in enumerate(g.klass) if k == NEGLIGIBLE]
    assert len(bridges) == 3  # 4 delta = 4 unit edges need 3 interior points
    Y = g.derived_space()
    q = min_delta_4pt(Y)
    assert q <= QLexElem.from_lex(L(29))
    assert q == QLexElem.from_lex(L(3))


@given(seeds)
def test_stage_one_output_is_geodesic(seed):
    rng = Random(seed)
    X = random_metric_space(rng, rng.randint(2, 6), maxw=7)
    d = ceil_delta_int(X)
    g = gamma1(X, d)
    Y = g.derived_space()
    ok, _ = is_geodesic(Y)
    assert ok
    assert_path_metric(g, Y)
    # essential restriction: the input sits isometrically inside
    for a in X.labels:
        for b in X.labels:
            assert Y.d(a, b) == X.d(a, b)
    assert min_delta_4pt(Y) <= QLexElem.from_lex(L(29 * max(d, 1)))


@given(seeds)
def test_stage_one_geodesic_inputs_are_fixed_points(seed):
    rng = Random(seed)
    X = random_unit_geodesic_space(rng, rng.randint(2, 7))
    g = gamma1(X, ceil_delta_int(X))
    assert len(g.labels) == len(X)


def test_stage_one_order_invariance():
    X = thin_triangle()
    base = graph_fingerprint(gamma1(X, 1))
    for seed in (1, 7, 123):
        assert graph_fingerprint(gamma1(X, 1, order_seed=seed)) == base


def test_rejects_bad_labels_and_spaces():
    bad = space_rank1([[0, 1], [1, 0]], labels=["a|b", "c"])
    with pytest.raises(InputError):
        gamma1(bad, 0)
    broken = space_rank1([[0, 5, 1], [5, 0, 1], [1, 1, 0]])
    with pytest.raises(InputError):
        gamma1(broken, 0)
    with pytest.raises(InputError):
        gamma1(triangle(), -1)


# -- stage two ------------------------------------------------------------


def test_stage_two_triangle_is_a_hexagon():
    g = gamma2(triangle(), 1)
    assert len(g.labels) == 6 and len(g.edges) == 6
    assert all(w == 1 for _, _, w in g.edges)
    cert = g.certificate
    assert cert["H"] == "0" and cert["B"] == "58"
    assert cert["delta_prime"] == "29"
    assert cert["delta_bound"] == "5907466"
    Y = g.derived_space()
    assert min_delta_4pt(Y) == QLexElem.from_lex(L(1))


def test_stage_two_requires_rs():
    with pytest.raises(InputError):
        gamma2(triangle(), 0)


def test_stage_two_fixes_geodesic_input():
    X = cycle_space(5)
    g = gamma2(X, 1)
    Y = g.derived_space()
    assert list(Y.labels) == list(X.labels) and Y.dist == X.dist


def test_stage_two_two_point_gap_survives():
    X = space_rank1([[0, 5], [5, 0]], labels=["a", "b"])
    g = gamma2(X, 1)
    Y = g.derived_space()
    assert Y.d("a", "b") == L(5)
    ok, _ = is_geodesic(Y)
    assert ok


def test_stage_two_collinear_points_chain_up():
    X = space_rank1([[0, 3, 5], [3, 0, 2], [5, 2, 0]], labels=["a", "m", "b"])
    g = gamma2(X, 1)
    Y = g.derived_space()
    assert Y.d("a", "b") == L(5)


def test_stage_two_thin_triangle_golden():
    X = thin_triangle()
    g = gamma2(X, 1)
    assert len(g.labels) == 34
    Y = g.derived_space()
    ok, _ = is_geodesic(Y)
    assert ok
    bound = int(g.certificate["delta_bound"])
    assert min_delta_4pt(Y) <= QLexElem.from_lex(L(bound))


def test_stage_two_caps_grow_monotonically():
    X = thin_triangle()
    prev = set()
    for cap in range(0, 6):
        g = gamma2(X, 1, cap=cap)
        have = {tuple(sorted(g.provenance[i])) for i in range(len(g.labels))}
        assert prev <= have
        prev = have
        if cap < 5:
            assert g.certificate["stage"] == "two-partial"
    full = gamma2(X, 1)
    assert gamma2(X, 1, cap=5).certificate["stage"] == "two"
    assert len(full.labels) == 34


def test_stage_two_builds_each_row_once(monkeypatch):
    # stage one, the partial skeleton and the output each keep their rows
    built = []

    def counted(adj, src):
        built.append((adj, src))
        return distances_from(adj, src)

    def out_rows():
        return [src for adj, src in built if adj is g.unit_adjacency]

    monkeypatch.setattr(completion, "distances_from", counted)
    g = gamma2(thin_triangle(), 1)
    # the output's own checks read its rows at essential vertices only
    assert set(out_rows()) <= set(range(g.essential_count()))
    g.derived_space()
    assert sorted(out_rows()) == list(range(len(g.labels)))
    keys = [(id(adj), src) for adj, src in built]
    assert len(set(keys)) == len(keys)


def test_stage_two_order_invariance():
    X = thin_triangle()
    base = graph_fingerprint(gamma2(X, 1))
    for seed in (1, 7, 123):
        assert graph_fingerprint(gamma2(X, 1, order_seed=seed)) == base


@given(seeds)
def test_stage_two_sandwich_on_random_rs_instances(seed):
    rng = Random(seed)
    X = random_metric_space(rng, rng.randint(2, 6), maxw=6)
    d = ceil_delta_int(X)
    ok, _ = check_RS(X, L(d))
    if not ok:
        return
    g = gamma2(X, d)
    Y = g.derived_space()
    assert_path_metric(g, Y)
    for a in X.labels:
        for b in X.labels:
            dv = X.d(a, b).coords[0]
            d2 = Y.d(a, b).coords[0]
            assert dv <= d2 <= tau_max(dv, d)


@settings(derandomize=True, max_examples=300)
@given(seeds, st.integers(min_value=3, max_value=8), st.booleans())
def test_stage_two_keeps_exactly_the_pairs_no_far_central_point_removes(
        seed, n, loose):
    rng = Random(seed)
    X = random_metric_space(rng, n, maxw=rng.choice((3, 6, 12)))
    d = ceil_delta_int(X) + loose
    if not check_RS(X, L(d))[0]:
        return
    raw = [[e.coords for e in row] for row in X.dist]
    D = [[c[0] for c in row] for row in raw]
    kept = set()
    for recs in gamma2(X, d).provenance:
        for r in recs:
            if r.startswith("p:"):
                a, b = r[2:].rsplit(":", 1)[0].split("|")
                kept.add((X.index(a), X.index(b)))
    want = set()
    for i, j in combinations(range(n), 2):
        if D[i][j] < 2 or any(D[i][v] + D[v][j] == D[i][j]
                              for v in range(n) if v not in (i, j)):
            continue
        if not any(D[i][v] > 2 * d and D[j][v] > 2 * d
                   for z in range(n)
                   for v in oracle_central_points(raw, (d,), i, j, z)):
            want.add((i, j))
    assert kept == want


# -- certificates and maps ------------------------------------------------


def test_hausdorff_const_of_matching_stages():
    X = triangle()
    g1 = gamma1(X, 1)
    g2 = gamma2(X, 1)
    assert hausdorff_const(g1, g2) == 0
    assert hausdorff_const(g1, g1) == 0


def test_qg_constants_recorded():
    cert = gamma2(triangle(), 1).certificate
    dp = 29
    assert int(cert["qg_mult"]) == 4 * dp
    assert int(cert["qg_add"]) == 240 * dp ** 3 + 108 * dp ** 2
    assert int(cert["qg_add_variant"]) == 240 * dp ** 3 + 60 * dp ** 2 + 48
    assert int(cert["long_short_k"]) == 30 * dp ** 2


def test_extend_isometry_lifts_the_triangle_rotation():
    X = triangle()
    g = gamma1(X, 1)
    rotation = IsoPerm(X, (1, 2, 0))
    lifted = extend_isometry(g, rotation)
    assert lifted.order == 3
    # restriction to the essential part is the original map
    for i, lab in enumerate(X.labels):
        assert lifted.apply(lab) == rotation.apply(lab)


def test_extend_isometry_of_identity_is_identity():
    g = gamma2(thin_triangle(), 1)
    X = thin_triangle()
    lifted = extend_isometry(g, identity_perm(X))
    assert lifted.perm == tuple(range(len(g.labels)))


def test_extend_isometry_rejects_wrong_base():
    g = gamma1(triangle(), 1)
    Y = cycle_space(3)
    with pytest.raises(InputError):
        extend_isometry(g, identity_perm(Y))


def test_write_cg_is_stable_and_complete():
    g = gamma1(triangle(), 1)
    text = write_cg(g)
    assert text == write_cg(gamma1(triangle(), 1))
    head = text.splitlines()[0].split()
    assert head[0] == "completion"
    assert int(head[1]) == 6 and int(head[2]) == 9
    assert "certificate" in text
