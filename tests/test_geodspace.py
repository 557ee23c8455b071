from collections import Counter
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, strategies as st

from lhyp import geodspace, lspace
from lhyp.completion import gamma1
from lhyp.errors import ConstructionError, InputError
from lhyp.geodspace import (GeodesicGraph, all_segments, between_set,
                            canonical_segment, delta_relations, distance_table,
                            distances_from, inner_triangle, is_geodesic, level_set, min_rips,
                            min_rips_witness, min_thinness,
                            min_thinness_witness, read_gg, tripod_insizes,
                            unit_graph, write_gg)
from lhyp.lspace import min_delta_4pt, min_delta_at
from lhyp.ordgroup import LexElem, QLexElem
from lhyp.smallgraphs import connected_graphs, edge_list

from helpers import (L, ceil_delta_int, cycle_rows, cycle_space, labels_for,
                     random_connected_unit_rows, random_metric_rows,
                     random_metric_space, random_tree_rows, space_rank1)
from oracles import (floyd, floyd_directed, oracle_between, oracle_delta_4pt,
                     oracle_geodesic_gap, oracle_level, oracle_rips,
                     oracle_segments, oracle_thinness)

seeds = st.integers(min_value=0, max_value=10 ** 6)


def unit_space(n, edges):
    return space_rank1(floyd(n, [(u, v, 1) for u, v in edges]))


def oracle_rows(rows):
    # the oracles mark a missing path 10**9, distances_from marks it -1
    return [[-1 if d == 10 ** 9 else d for d in row] for row in rows]


@given(seeds)
def test_distances_from_matches_floyd_on_weighted_multigraphs(seed):
    rng = Random(seed)
    n = rng.randint(1, 9)
    # parallel edges are kept; vertices past `reach` form separate parts
    reach = rng.randint(1, n)
    edges = []
    for _ in range(rng.randint(0, 3 * n)):
        part = range(reach) if rng.random() < 0.7 else range(reach, n)
        if len(part) >= 2:
            u, v = rng.sample(part, 2)
            edges.append((u, v, rng.randint(1, 5)))
    adj = [{} for _ in range(n)]
    for u, v, w in edges:
        for a, b in ((u, v), (v, u)):
            adj[a][b] = min(w, adj[a].get(b, w))
    want = oracle_rows(floyd(n, edges))
    assert [distances_from(adj, src) for src in range(n)] == want


@given(seeds, st.sampled_from([1, 2, 5]))
def test_distances_from_matches_floyd_on_unit_and_weighted_graphs(seed, top):
    # top = 1 gives unit graphs (the breadth-first path); top = 2 gives
    # graphs whose edges are mostly unit but whose rows take the buckets
    rng = Random(seed)
    n = rng.randint(1, 12)
    part = [rng.randrange(3) for _ in range(n)]  # no edge joins two parts
    edges = [(u, v, rng.randint(1, top)) for u, v in combinations(range(n), 2)
             if part[u] == part[v] and rng.random() < 0.3]
    adj = [{} for _ in range(n)]
    for u, v, w in edges:
        adj[u][v] = adj[v][u] = w
    want = oracle_rows(floyd(n, edges))
    assert [distances_from(adj, src) for src in range(n)] == want


@given(seeds)
def test_distances_from_matches_floyd_on_directed_unit_graphs(seed):
    rng = Random(seed)
    n = rng.randint(1, 9)
    arcs = [(u, v, 1) for u in range(n) for v in range(n)
            if u != v and rng.random() < 0.2]
    adj = [{} for _ in range(n)]
    for u, v, _ in arcs:
        adj[u][v] = 1
    want = oracle_rows(floyd_directed(n, arcs))
    assert [distances_from(adj, src) for src in range(n)] == want


def floyd_fixture(kind, rng):
    """An adjacency and its Floyd rows: a unit graph, a weighted multigraph
    in parts, or a directed unit graph, as in the tests above."""
    n = rng.randint(1, 10)
    adj = [{} for _ in range(n)]
    if kind == "directed":
        arcs = [(u, v, 1) for u in range(n) for v in range(n)
                if u != v and rng.random() < 0.2]
        for u, v, _ in arcs:
            adj[u][v] = 1
        return adj, oracle_rows(floyd_directed(n, arcs))
    top = 1 if kind == "unit" else 5
    part = [rng.randrange(3) for _ in range(n)]
    edges = [(u, v, rng.randint(1, top)) for u, v in combinations(range(n), 2)
             if part[u] == part[v] and rng.random() < 0.3]
    for u, v, w in edges:
        adj[u][v] = adj[v][u] = w
    return adj, oracle_rows(floyd(n, edges))


@given(seeds, st.sampled_from(["unit", "weighted", "directed"]))
def test_distance_table_is_distances_from_every_vertex(seed, kind):
    adj, want = floyd_fixture(kind, Random(seed))
    rows = distance_table(adj)
    assert rows == tuple(tuple(distances_from(adj, src)) for src in range(len(adj)))
    assert [list(row) for row in rows] == want


def test_graph_tests_the_weights_once_per_table(monkeypatch):
    calls = []
    unit = geodspace._unit_weights
    monkeypatch.setattr(geodspace, "_unit_weights",
                        lambda adj: calls.append(len(adj)) or unit(adj))
    G = GeodesicGraph(labels_for(7), [(i, i + 1) for i in range(6)] + [(0, 6)])
    assert calls == [7]
    assert G.dist == tuple(tuple(distances_from(G.adj, s)) for s in range(7))


def test_graph_metric_matches_floyd():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4)]
    G = GeodesicGraph(["a", "b", "c", "d", "e"], edges)
    want = floyd(5, [(u, v, 1) for u, v in edges])
    assert [list(r) for r in G.dist] == want


def test_graph_rejects_disconnected_and_loops():
    with pytest.raises(InputError):
        GeodesicGraph(["a", "b", "c"], [(0, 1)])
    with pytest.raises(InputError):
        GeodesicGraph(["a", "b"], [(0, 0)])


@given(seeds, st.integers(min_value=2, max_value=8))
def test_unit_graph_round_trip(seed, n):
    X = space_rank1(random_connected_unit_rows(Random(seed), n))
    G = unit_graph(X)
    Y = G.as_space()
    assert Y.dist == X.dist


def test_unit_graph_needs_unit_connectivity():
    # no pair at distance 1, so there are no edges at all
    X = space_rank1([[0, 2, 2], [2, 0, 2], [2, 2, 0]])
    with pytest.raises(InputError):
        unit_graph(X)


def test_unit_graph_check_catches_shortcuts():
    # unit path a-b-c-d but the table claims d(a,d)=2
    X = space_rank1([[0, 1, 2, 2], [1, 0, 1, 2], [2, 1, 0, 1], [2, 2, 1, 0]])
    with pytest.raises(ConstructionError):
        unit_graph(X, check=True)
    G = unit_graph(X, check=False)
    assert G.dist[0][3] == 3


def test_is_geodesic_verdicts():
    ok, wit = is_geodesic(cycle_space(6))
    assert ok and wit is None
    bad = space_rank1([[0, 2, 2], [2, 0, 2], [2, 2, 0]])
    ok, wit = is_geodesic(bad)
    assert not ok and wit is not None and wit[2] == 1


def test_between_and_level_sets_on_c4():
    X = cycle_space(4)
    assert between_set(X, "v0", "v2") == ("v0", "v1", "v2", "v3")
    assert level_set(X, "v0", "v2", 1) == ("v1", "v3")
    assert level_set(X, "v0", "v2", 0) == ("v0",)


def test_canonical_segment_is_least_and_valid():
    X = cycle_space(4)
    seg = canonical_segment(X, "v0", "v2")
    assert seg == ("v0", "v1", "v2")
    segs = list(all_segments(X, "v0", "v2"))
    assert segs == [("v0", "v1", "v2"), ("v0", "v3", "v2")]
    assert seg == segs[0]


def test_canonical_segment_needs_geodesic_space():
    bad = space_rank1([[0, 2, 2], [2, 0, 2], [2, 2, 0]])
    with pytest.raises(InputError):
        canonical_segment(bad, "v0", "v1")


@given(seeds)
def test_segments_realize_the_distance(seed):
    rng = Random(seed)
    X = space_rank1(random_connected_unit_rows(rng, 7))
    xs = rng.sample(list(X.labels), 2)
    d = X.d(xs[0], xs[1]).coords[0]
    for seg in all_segments(X, xs[0], xs[1]):
        assert len(seg) == d + 1
        assert all(X.d(seg[t], seg[t + 1]) == L(1) for t in range(d))


def _geodesic_rows(kind, rng):
    if kind == "unit":
        return random_connected_unit_rows(rng, rng.randint(1, 9))
    if kind == "metric":
        # weights from 1 leave some gaps, weights from 2 leave many
        return random_metric_rows(rng, rng.randint(2, 8), maxw=rng.randint(2, 8),
                                  minw=rng.randint(1, 2))
    if kind == "cycle":
        return cycle_rows(rng.randint(1, 12))
    X = random_metric_space(rng, rng.randint(2, 5), maxw=6)
    g = gamma1(X, ceil_delta_int(X))
    return [list(g.unit_row(src)) for src in range(len(g.labels))]


def _greedy_segment(rows, i, j):
    # the least next point at each parameter, or the parameter that has none
    chain = [i]
    for t in range(1, rows[i][j] + 1):
        step = [w for w in oracle_level(rows, i, j, t) if rows[chain[-1]][w] == 1]
        if not step:
            return t
        chain.append(step[0])
    return chain


@pytest.mark.parametrize("kind", ["unit", "metric", "cycle", "derived"])
@given(seeds)
def test_geodesic_helpers_match_the_oracles(kind, seed):
    rows = _geodesic_rows(kind, Random(seed))
    X = space_rank1(rows)
    lab = X.labels
    n = len(rows)

    def names(points):
        return tuple(lab[w] for w in points)

    gap = oracle_geodesic_gap(rows)
    want = (True, None) if gap is None else (False, names(gap[:2]) + (gap[2],))
    assert is_geodesic(X) == want
    for i in range(n):
        for j in range(n):
            x, y, d = lab[i], lab[j], rows[i][j]
            assert between_set(X, x, y) == names(oracle_between(rows, i, j))
            for t in range(-1, d + 2):
                assert level_set(X, x, y, t) == names(oracle_level(rows, i, j, t))
            greedy = _greedy_segment(rows, i, j)
            if isinstance(greedy, int):
                msg = ("no unit chain from %s to %s at parameter %d; space is not geodesic"
                       % (x, y, greedy))
                with pytest.raises(InputError) as err:
                    canonical_segment(X, x, y)
                assert str(err.value) == msg
            else:
                assert canonical_segment(X, x, y) == names(greedy)
            assert list(all_segments(X, x, y)) == [names(s) for s in oracle_segments(rows, i, j)]


@pytest.mark.parametrize("rows, error", [
    # the gap test passes, and the negative entry used to index the masks
    # from the end
    ([[0, 1, -1], [1, 0, 1], [-1, 1, 0]], "distance d(v0,v2)=-1 is negative"),
    ([[0, 1, 2], [1, 0, 1], [1, 1, 0]],
     "distance table is not symmetric: d(v0,v2)=2 but d(v2,v0)=1"),
    # both raised a bare IndexError from the slimness scan, whose balls
    # ran past the diameter where a between set was empty
    ([[1, 0, 0, 1, 2], [0, 1, 1, 1, 0], [0, 1, 0, 0, 0], [1, 1, 0, 1, 1],
      [2, 0, 0, 1, 3]],
     "distance d(v0,v0)=1 from a point to itself is not zero"),
    ([[0, 1, 2], [1, 0, 1], [2, 1, 4]],
     "distance d(v2,v2)=4 from a point to itself is not zero"),
])
def test_geodesic_helpers_reject_non_metric_tables(rows, error):
    X = space_rank1(rows)
    calls = [
        lambda: is_geodesic(X),
        lambda: between_set(X, "v0", "v2"),
        lambda: level_set(X, "v0", "v2", 1),
        lambda: canonical_segment(X, "v0", "v2"),
        lambda: all_segments(X, "v0", "v2"),
        lambda: min_thinness_witness(X),
        lambda: min_rips_witness(X),
        lambda: delta_relations(X),
        lambda: inner_triangle(X, "v0", "v1", "v2"),
    ]
    for call in calls:
        with pytest.raises(InputError) as err:
            call()
        assert str(err.value) == error


@pytest.mark.parametrize("rows, gap", [
    # the unit path v0-v1-v2 doubled: nothing lies halfway along any side
    ([[0, 2, 4], [2, 0, 2], [4, 2, 0]], ("v0", "v1", 1)),
    # gaps at (v0,v2,2) and (v1,v2,1); the first pair in index order is named
    ([[0, 1, 3], [1, 0, 2], [3, 2, 0]], ("v0", "v2", 2)),
])
def test_triangle_scans_name_the_gap_that_is_geodesic_finds(rows, gap):
    X = space_rank1(rows)
    assert is_geodesic(X) == (False, gap)
    error = "space is not geodesic: gap at (%s,%s,t=%d)" % gap
    calls = [
        lambda: min_thinness_witness(X),
        lambda: min_rips_witness(X),
        lambda: delta_relations(X),
        lambda: inner_triangle(X, "v0", "v1", "v2"),
    ]
    for call in calls:
        with pytest.raises(InputError) as err:
            call()
        assert str(err.value) == error


def test_delta_relations_goes_through_the_public_scans(monkeypatch):
    # replace the functions by module attribute, as perfbench's Tracer
    # does, so a call that goes around one of them is not counted
    reached = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            reached[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("is_geodesic", "min_thinness_witness", "min_rips_witness"):
        count(geodspace, name)
    count(lspace, "min_delta_4pt_witness")
    builds = []
    masks = geodspace._Masks
    monkeypatch.setattr(geodspace, "_Masks", lambda D: builds.append(D) or masks(D))
    X = cycle_space(7)
    is_geodesic.cache_clear()  # the unwrapped verdict, kept per space
    rel = geodspace.delta_relations(X)
    assert rel.ok and rel.delta_thin == QLexElem(L(3))
    assert set(reached) == {"is_geodesic", "min_thinness_witness",
                            "min_rips_witness", "min_delta_4pt_witness"}
    assert len(builds) == 1
    assert is_geodesic.cache_info().misses == 1


def test_tripod_insizes_sum_along_sides():
    X = cycle_space(4)
    tp = tripod_insizes(X, "v0", "v1", "v2")
    want = (QLexElem.from_lex(L(1)), QLexElem.zero(1), QLexElem.from_lex(L(1)))
    assert tp.insizes == want
    # the two insizes meeting along side [x,y] sum to d(x,y)
    at_x, at_y, at_z = tp.insizes
    dyz, dxz, dxy = tp.sides
    assert at_x + at_y == dxy and at_x + at_z == dxz and at_y + at_z == dyz
    # half-integer insizes on an odd triangle
    tp5 = tripod_insizes(cycle_space(5), "v0", "v1", "v3")
    assert tp5.insizes[0] == QLexElem(L(1), 2)


def test_c4_thin_and_rips():
    X = cycle_space(4)
    assert min_thinness(X) == QLexElem.from_lex(L(2))
    assert min_rips(X) == QLexElem.from_lex(L(1))
    val, wit = min_thinness_witness(X)
    assert val == min_thinness(X) and "v1" in wit and "v3" in wit
    val, wit = min_rips_witness(X)
    assert val == min_rips(X) and len(wit) == 4


def test_tree_constants_vanish():
    X = space_rank1(random_tree_rows(Random(5), 8, maxw=1))
    rel = delta_relations(X)
    assert rel.delta_point.is_zero() and rel.delta_thin.is_zero()
    assert rel.delta_rips.is_zero() and rel.ok


def test_inner_triangle_degenerate_collapses():
    # v1 lies on [v0,v2], so all three side points coincide
    t = inner_triangle(cycle_space(4), "v0", "v1", "v2")
    assert t.vertices == ("v1", "v1", "v1") and t.diameter == L(0)


def test_inner_triangle_on_c6():
    X = cycle_space(6)
    t = inner_triangle(X, "v0", "v2", "v4")
    assert t.vertices == ("v1", "v5", "v3") and t.diameter == L(2)
    # fits the 4 delta budget at delta=1 but not at 0
    inner_triangle(X, "v0", "v2", "v4", delta=L(1))
    with pytest.raises(ConstructionError):
        inner_triangle(X, "v0", "v2", "v4", delta=QLexElem.zero(1))


def test_delta_relations_small_graph_sweep():
    # every connected unit graph on up to 5 vertices obeys all six bounds
    for n in range(1, 6):
        for adj in connected_graphs(n):
            X = unit_space(n, edge_list(adj))
            rel = delta_relations(X)
            assert rel.ok, (n, adj, rel.failures)


def _oracle_triangle_constants(X, rows):
    # the oracles name points by index, the package by label
    lab = X.labels
    thin, twit = oracle_thinness(rows)
    rips, rwit = oracle_rips(rows)
    if twit is not None:
        c, p, q, t, u, v = twit
        twit = (lab[c], lab[p], lab[q], t, lab[u], lab[v])
    if rwit is not None:
        rwit = tuple(lab[v] for v in rwit)
    return (QLexElem(L(thin)), twit), (QLexElem(L(rips)), rwit)


def test_triangle_constants_match_the_oracles_on_small_graphs():
    for n in range(1, 7):
        for adj in connected_graphs(n):
            rows = floyd(n, [(u, v, 1) for u, v in edge_list(adj)])
            X = space_rank1(rows)
            want = _oracle_triangle_constants(X, rows)
            assert (min_thinness_witness(X), min_rips_witness(X)) == want, adj


@given(seeds)
def test_triangle_constants_match_the_oracles_on_random_unit_graphs(seed):
    rng = Random(seed)
    rows = random_connected_unit_rows(rng, rng.randint(7, 14), rng.random() * 0.5)
    X = space_rank1(rows)
    want = _oracle_triangle_constants(X, rows)
    assert (min_thinness_witness(X), min_rips_witness(X)) == want


@given(seeds)
def test_relations_on_random_unit_graphs(seed):
    X = space_rank1(random_connected_unit_rows(Random(seed), 7))
    rel = delta_relations(X)
    assert rel.ok
    # the constant over all basepoints is the four-point constant
    per = max(min_delta_at(X, v) for v in range(len(X)))
    assert rel.delta_point == per == min_delta_4pt(X)


def test_gg_round_trip_preserves_structure():
    # the format carries indices only, labels do not survive
    G = GeodesicGraph(["a", "b", "c"], [(0, 1), (1, 2)])
    H = read_gg(write_gg(G))
    assert H.labels == ("0", "1", "2")
    assert [list(r) for r in H.dist] == [list(r) for r in G.dist]
    with pytest.raises(InputError):
        read_gg("graph2\n0 1\n")
    with pytest.raises(InputError):
        read_gg("graph 3\n0 1\n1 2\n2\n")


def test_sweep_path_matches_the_oracles_through_six_vertices():
    # the small-graph sweep's own path: a graph's table is its space's
    # packed table, and its constants are the oracles'
    for n in range(1, 7):
        for adj in connected_graphs(n):
            G = GeodesicGraph(labels_for(n), edge_list(adj))
            X = G.as_space()
            assert X.packed_table() == G.dist
            assert X.dist == tuple(tuple(L(d) for d in row) for row in G.dist)
            for c in set().union(*G.dist):
                assert X.unpack(c) == LexElem((c,))
            rows = [list(row) for row in G.dist]
            (point,) = oracle_delta_4pt([[(d,) for d in row] for row in rows])
            rel = delta_relations(X)
            assert rel.delta_point == QLexElem(L(point.numerator), point.denominator)
            assert rel.delta_thin == QLexElem(L(oracle_thinness(rows)[0]))
            assert rel.delta_rips == QLexElem(L(oracle_rips(rows)[0]))
            assert rel.failures == (), adj


# The six relations of delta_relations, with the names it reports.
RELATIONS = (
    ("thin<=4*point", lambda p, t, r: t <= 4 * p),
    ("point<=2*thin", lambda p, t, r: p <= 2 * t),
    ("rips<=thin", lambda p, t, r: r <= t),
    ("thin<=4*rips", lambda p, t, r: t <= 4 * r),
    ("rips<=4*point", lambda p, t, r: r <= 4 * p),
    ("point<=8*rips", lambda p, t, r: p <= 8 * r),
)


def test_each_relation_fails_under_its_name(monkeypatch):
    # the scans are replaced by module attribute; None keeps the 5-cycle's
    # own four-point constant 1/2
    X = GeodesicGraph(labels_for(5), [(i, (i + 1) % 5) for i in range(5)]).as_space()
    assert delta_relations(X).delta_point == QLexElem(L(1), 2)
    cases = [
        (None, Fraction(3), Fraction(1)),
        (Fraction(3), Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(1), Fraction(2)),
        (Fraction(2), Fraction(5), Fraction(1)),
        (None, Fraction(1), Fraction(3)),
        (Fraction(9), Fraction(1), Fraction(1)),
        (Fraction(5, 2), Fraction(3, 2), Fraction(1, 4)),
    ]
    def q(f):
        return QLexElem(L(f.numerator), f.denominator)

    four_point = geodspace.min_delta_4pt
    seen = set()
    for point, thin, rips in cases:
        monkeypatch.setattr(geodspace, "min_delta_4pt",
                            four_point if point is None else lambda X, p=point: q(p))
        monkeypatch.setattr(geodspace, "min_thinness_witness", lambda X: (q(thin), None))
        monkeypatch.setattr(geodspace, "min_rips_witness", lambda X: (q(rips), None))
        point = Fraction(1, 2) if point is None else point
        rel = delta_relations(X)
        assert (rel.delta_point, rel.delta_thin, rel.delta_rips) == (q(point), q(thin), q(rips))
        want = tuple(name for name, holds in RELATIONS if not holds(point, thin, rips))
        assert rel.failures == want and not rel.ok
        seen.update(want)
    assert seen == {name for name, _ in RELATIONS}
