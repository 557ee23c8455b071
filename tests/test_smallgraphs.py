import importlib.util
from itertools import combinations
from pathlib import Path

from lhyp.smallgraphs import canonical_key, connected_graphs, edge_list

# OEIS A001349 without the empty graph
COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def test_connected_counts():
    for n, want in COUNTS.items():
        assert len(connected_graphs(n)) == want


def test_graphs_are_connected_and_distinct():
    # rows are neighbor bitmasks
    for n in range(1, 6):
        graphs = connected_graphs(n)
        assert len({canonical_key(n, g) for g in graphs}) == len(graphs)
        for adj in graphs:
            seen = {0}
            stack = [0]
            while stack:
                u = stack.pop()
                for v in range(n):
                    if (adj[u] >> v) & 1 and v not in seen:
                        seen.add(v)
                        stack.append(v)
            assert len(seen) == n


def test_canonical_key_is_isomorphism_invariant():
    # the 3-path with its middle at index 1 vs at index 0
    path_mid1 = (0b010, 0b101, 0b010)
    path_mid0 = (0b110, 0b001, 0b001)
    triangle = (0b110, 0b101, 0b011)
    assert canonical_key(3, path_mid1) == canonical_key(3, path_mid0)
    assert canonical_key(3, path_mid1) != canonical_key(3, triangle)


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
    assert sweep.main(["--up-to", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    counts = [int(line.split()[1].split("=")[1]) for line in lines]
    assert counts == [1, 1, 2, 6, 21]
