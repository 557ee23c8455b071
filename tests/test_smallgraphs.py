import importlib.util
from collections import Counter
from functools import lru_cache
from itertools import combinations
from pathlib import Path
from random import Random

from hypothesis import given, strategies as st

from lhyp import smallgraphs
from lhyp.smallgraphs import canonical_key, connected_graphs, edge_list

from oracles import oracle_canonical_key, oracle_labelling_keys

# OEIS A001349 without the empty graph
COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}

seeds = st.integers(min_value=0, max_value=10 ** 6)


def from_edges(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def relabel(adj, perm):
    # vertex v of adj becomes perm[v]
    n = len(adj)
    return from_edges(n, [(perm[u], perm[v]) for u in range(n)
                          for v in range(u + 1, n) if adj[u] >> v & 1])


def cycle(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return from_edges(n, list(combinations(range(n), 2)))


# K_{3,3} and the triangular prism: vertex-transitive, so every cell of
# the search holds automorphic vertices
K33 = from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
PRISM = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                       (0, 3), (1, 4), (2, 5)])
SYMMETRIC = ([cycle(n) for n in range(3, 8)] + [complete(n) for n in range(1, 8)]
             + [K33, PRISM])


def test_connected_counts():
    for n, want in COUNTS.items():
        assert len(connected_graphs(n)) == want


def is_connected(adj):
    # rows are neighbor bitmasks
    n = len(adj)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in range(n):
            if (adj[u] >> v) & 1 and v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def test_graphs_are_connected_and_distinct():
    for n in range(1, 6):
        graphs = connected_graphs(n)
        assert len({canonical_key(n, g) for g in graphs}) == len(graphs)
        assert all(is_connected(adj) for adj in graphs)


def test_every_connected_labelled_graph_has_one_representative():
    # every edge set on n labelled vertices, keyed by the package-free oracle
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        want = set()
        for mask in range(1 << len(pairs)):
            adj = from_edges(n, [e for b, e in enumerate(pairs) if mask >> b & 1])
            if is_connected(adj):
                want.add(oracle_canonical_key(adj))
        got = [oracle_canonical_key(adj) for adj in connected_graphs(n)]
        assert len(set(got)) == len(got)
        assert set(got) == want


def test_canonical_key_is_isomorphism_invariant():
    # the 3-path with its middle at index 1 vs at index 0
    path_mid1 = (0b010, 0b101, 0b010)
    path_mid0 = (0b110, 0b001, 0b001)
    triangle = (0b110, 0b101, 0b011)
    assert canonical_key(3, path_mid1) == canonical_key(3, path_mid0)
    assert canonical_key(3, path_mid1) != canonical_key(3, triangle)


def random_graph(rng, n):
    p = rng.random()
    return from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def assert_canonical(adj, rng, relabellings=3):
    # the key is the bitstring of one labelling of adj and the same for
    # every labelling, so it is equal exactly on isomorphic graphs
    n = len(adj)
    key = canonical_key(n, adj)
    assert key in oracle_labelling_keys(adj), adj
    perm = list(range(n))
    for _ in range(relabellings):
        rng.shuffle(perm)
        assert canonical_key(n, relabel(adj, perm)) == key, (adj, perm)


@given(seeds)
def test_canonical_key_matches_the_oracle(seed):
    rng = Random(seed)
    n = rng.randint(1, 7)
    adj = random_graph(rng, n)
    assert_canonical(adj, rng)
    # a second graph with as many edges is isomorphic to the first
    # exactly when the oracle says so
    m = sum(a.bit_count() for a in adj) // 2
    other = from_edges(n, rng.sample(list(combinations(range(n), 2)), m))
    same = canonical_key(n, adj) == canonical_key(n, other)
    assert same == (oracle_canonical_key(adj) == oracle_canonical_key(other))


def test_canonical_key_on_symmetric_graphs():
    rng = Random(11)
    for adj in SYMMETRIC:
        assert_canonical(adj, rng)


def plain_augmentation(n):
    """Every parent extended by every nonempty subset, first of each class kept."""
    if n == 1:
        return ((0,),)
    reps, seen = [], set()
    for parent in plain_augmentation(n - 1):
        for sub in range(1, 1 << (n - 1)):
            adj = tuple(parent[v] | (sub >> v & 1) << (n - 1)
                        for v in range(n - 1)) + (sub,)
            key = canonical_key(n, adj)
            if key not in seen:
                seen.add(key)
                reps.append(adj)
    return tuple(reps)


def test_canonical_augmentation_keeps_the_classes_of_plain_augmentation():
    # the representatives and their order differ; the classes may not
    for n in range(1, 7):
        graphs, plain = connected_graphs(n), plain_augmentation(n)
        assert len(graphs) == len(plain)
        assert ({canonical_key(n, g) for g in graphs}
                == {canonical_key(n, g) for g in plain})


def test_augmentation_searches_only_ties(monkeypatch):
    # perfbench's tracer replaces canonical_key by module attribute in the
    # same way; plain augmentation would make 4,159 calls through n = 7
    calls = []

    def counted(n, adj):
        calls.append(n)
        return canonical_key(n, adj)

    monkeypatch.setattr(smallgraphs, "canonical_key", counted)
    connected_graphs.cache_clear()
    try:
        assert len(connected_graphs(7)) == COUNTS[7]
    finally:
        connected_graphs.cache_clear()
    assert 1 <= len(calls) <= 1000


def test_no_graph_is_searched_twice(monkeypatch):
    # a parent kept after a tie search brings its automorphisms along;
    # the wrapper stands in for _search with the same one-graph cache,
    # so a count above 1 is a search run again
    searched = Counter()
    search = smallgraphs._search.__wrapped__

    @lru_cache(maxsize=1)
    def counted(n, adj):
        searched[n, adj] += 1
        return search(n, adj)

    monkeypatch.setattr(smallgraphs, "_search", counted)
    connected_graphs.cache_clear()
    try:
        assert [len(connected_graphs(n)) for n in range(1, 8)] == [
            COUNTS[n] for n in range(1, 8)]
    finally:
        connected_graphs.cache_clear()
    assert searched and max(searched.values()) == 1


def test_edge_list_matches_adjacency():
    for adj in connected_graphs(4):
        edges = edge_list(adj)
        assert all(u < v for u, v in edges)
        assert len(edges) == sum((adj[i] >> j) & 1
                                 for i, j in combinations(range(4), 2))
        assert all((adj[u] >> v) & 1 and (adj[v] >> u) & 1 for u, v in edges)


def test_sweep_script_smoke(capsys):
    path = Path(__file__).resolve().parent.parent / "scripts" / "sweep_small_graphs.py"
    spec = importlib.util.spec_from_file_location("sweep_small_graphs", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    assert sweep.main(["--up-to", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    fields = [dict(f.split("=") for f in line.split()[1:5]) for line in lines]
    assert [int(f["graphs"]) for f in fields] == [COUNTS[n] for n in range(1, 7)]
    # perfbench/references.json pins the same worst triples
    worst = [(f["max_point"], f["max_thin"], f["max_rips"]) for f in fields]
    assert worst == [("(0)", "(0)", "(0)")] * 3 + [("(1)", "(2)", "(1)")] * 3
