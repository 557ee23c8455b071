"""Slow second opinions for the numeric kernels.

Everything here works on raw integer coordinate tuples with Fraction
arithmetic and brute-force scans, sharing no code with the package, so
the two sides can disagree honestly.
"""

import heapq
from fractions import Fraction
from itertools import product
from typing import List, Sequence, Tuple

Raw = Tuple[int, ...]


def rkey(t: Sequence) -> Tuple:
    """Right-lexicographic comparison key: last coordinate decides first."""
    return tuple(reversed(tuple(t)))


def rlex_le(a: Sequence, b: Sequence) -> bool:
    return rkey(a) <= rkey(b)


def vec_add(a: Raw, b: Raw) -> Raw:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Raw, b: Raw) -> Raw:
    return tuple(x - y for x, y in zip(a, b))


def half(a: Raw) -> Tuple[Fraction, ...]:
    return tuple(Fraction(x, 2) for x in a)


def doubled_gromov(dist: List[List[Raw]], v: int, x: int, y: int) -> Raw:
    """2 (x . y)_v, kept doubled so everything stays integral."""
    return vec_sub(vec_add(dist[v][x], dist[v][y]), dist[x][y])


def oracle_delta_at(dist: List[List[Raw]], v: int) -> Tuple[Fraction, ...]:
    """Smallest delta making the triple condition hold at basepoint v."""
    n = len(dist)
    rank = len(dist[0][0])
    worst = tuple(Fraction(0) for _ in range(rank))
    for x, y, z in product(range(n), repeat=3):
        cxy = doubled_gromov(dist, v, x, y)
        cxz = doubled_gromov(dist, v, x, z)
        cyz = doubled_gromov(dist, v, y, z)
        m = cxz if rkey(cxz) <= rkey(cyz) else cyz
        need = half(vec_sub(m, cxy))
        if rkey(need) > rkey(worst):
            worst = need
    return worst


def oracle_delta_4pt(dist: List[List[Raw]]) -> Tuple[Fraction, ...]:
    """Smallest delta in the four-point sum inequality, over all quadruples."""
    n = len(dist)
    rank = len(dist[0][0])
    worst = tuple(Fraction(0) for _ in range(rank))
    for x, y, z, w in product(range(n), repeat=4):
        s1 = vec_add(dist[x][y], dist[z][w])
        s2 = vec_add(dist[x][z], dist[y][w])
        s3 = vec_add(dist[x][w], dist[y][z])
        big = s2 if rkey(s2) >= rkey(s3) else s3
        need = half(vec_sub(s1, big))
        if rkey(need) > rkey(worst):
            worst = need
    return worst


def floyd(n: int, edges: Sequence[Tuple[int, int, int]]) -> List[List[int]]:
    """Integer shortest paths; edges are undirected (u, v, w)."""
    INF = 10 ** 9
    d = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v, w in edges:
        if w < d[u][v]:
            d[u][v] = d[v][u] = w
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik == INF:
                continue
            row = d[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < row[j]:
                    row[j] = alt
    return d


def dijkstra(n: int, edges: Sequence[Tuple[int, int, int]]) -> List[List[int]]:
    """Integer shortest paths, one heap search per source.

    Edges are undirected (u, v, w); unreachable entries are 10**9, as in
    ``floyd``.
    """
    INF = 10 ** 9
    adj: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    rows = []
    for src in range(n):
        dist = [INF] * n
        dist[src] = 0
        heap = [(0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in adj[u]:
                if d + w < dist[v]:
                    dist[v] = d + w
                    heapq.heappush(heap, (d + w, v))
        rows.append(dist)
    return rows


def word_lengths_free(rank: int, radius: int) -> dict:
    """Reduced words as tuples of nonzero ints, mapped to their length."""
    out = {(): 0}
    frontier = [()]
    letters = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    for step in range(1, radius + 1):
        nxt = []
        for w in frontier:
            for a in letters:
                if w and w[-1] == -a:
                    continue
                u = w + (a,)
                if u not in out:
                    out[u] = step
                    nxt.append(u)
        frontier = nxt
    return out


def oracle_tau(n: int, delta: int) -> int:
    """Worst stretch of a length-n pair, straight from the recurrence.

    A length k <= 2*delta is kept; a longer one takes the worst split
    into k1 + k2 <= k + 2*delta with 1 <= k1, k2 < k, every split tried
    (no monotonicity shortcut).  A length with no split at all is kept.
    """
    tau = []
    for k in range(n + 1):
        splits = [tau[k1] + tau[k2]
                  for k1 in range(1, k) for k2 in range(1, k)
                  if k1 + k2 <= k + 2 * delta]
        tau.append(max(splits) if k > 2 * delta and splits else k)
    return tau[n]


def oracle_central_points(dist: List[List[Raw]], delta: Raw, x: int, y: int,
                          z: int) -> List[int]:
    """Points v with d(a,v) + d(v,b) <= d(a,b) + 2 delta for every pair
    a, b of the triple x, y, z, in index order."""
    slack = vec_add(delta, delta)
    return [v for v in range(len(dist))
            if all(rlex_le(vec_add(dist[a][v], dist[v][b]),
                           vec_add(dist[a][b], slack))
                   for a, b in ((x, y), (x, z), (y, z)))]
