"""Geodesic Z-metric spaces realized as graphs with unit edges.

A finite Z-metric space is geodesic exactly when every pair of points is
joined by a chain of points at consecutive distance one, which makes such
spaces the path metrics of connected graphs.  This module houses the graph
type, the geodesicity test, comparison tripods, and the two triangle
constants (thinness and slimness) together with the report relating them
to the triple constant over all basepoints, which is the four-point one.

It also holds the two graph kernels shared with ``completion`` and
``relhyp``: ``distances_from``, the one shortest-path routine, one row
per call, and ``DisjointSets``, the one union-find.  ``distance_table``
runs the same rows from every vertex and tests the weights once for the
whole table; ``GeodesicGraph`` and ``RelCayley`` build their tables so.
A graph's table of ints is the packed table of its space.

Every set the geodesic layer scans, here and in ``completion``, is read
off the sphere and ball bitmasks of every point (``_Masks``), built once
per space from a table checked to be non-negative and symmetric with a
zero diagonal.  Level sets are meets of two spheres and between sets
unions of levels; the geodesicity test looks for an empty level, and the
triangle scans test a point against the running maximum by one ball mask.

The public functions hold the scans, and nothing calls around them:
``is_geodesic`` is the one geodesicity test and keeps the last space's
verdict, as ``_space_masks`` keeps its masks, so the triangle scans and
``delta_relations``, which calls ``min_delta_4pt``,
``min_thinness_witness`` and ``min_rips_witness``, test each space once.
The three constants are rank-one, and ``delta_relations`` compares them
as ints cross-multiplied by their denominators.
"""

from collections import defaultdict
from functools import lru_cache
from itertools import accumulate, chain, combinations
from operator import or_
from typing import (Callable, Dict, Hashable, Iterable, Iterator, List,
                    NamedTuple, Optional, Sequence, Tuple)

from .errors import ConstructionError, InputError, int_token
from .lspace import (FiniteLambdaSpace, _bits, _rank_one_space, _tokens,
                     min_delta_4pt)
from .ordgroup import LexElem, QLexElem


_UNIT = frozenset((1,))


def distances_from(adj: Sequence[Dict[int, int]], src: int) -> List[int]:
    """Shortest-path lengths from src, -1 where there is no path.

    adj[u] maps the head of each edge leaving u to its positive int
    weight; an undirected graph lists every edge at both ends.  When every
    weight is 1 the row is a breadth-first search, one level at a time.
    Otherwise vertices are settled one bucket of equal distance at a time,
    nearest first (Dial, CACM 1969).
    """
    return next(_rows(adj, (src,)))


def distance_table(adj: Sequence[Dict[int, int]]) -> Tuple[Tuple[int, ...], ...]:
    """``distances_from`` every vertex, one row per source, with the
    weights tested once for the whole table."""
    return tuple(map(tuple, _rows(adj, range(len(adj)))))


def _unit_weights(adj: Sequence[Dict[int, int]]) -> bool:
    """Whether every edge weight is 1."""
    return _UNIT.issuperset(chain.from_iterable(map(dict.values, adj)))


def _rows(adj: Sequence[Dict[int, int]], sources: Iterable[int]) -> Iterator[List[int]]:
    """The row of ``distances_from`` for each source in turn."""
    unit = _unit_weights(adj)
    for src in sources:
        dist = [-1] * len(adj)
        dist[src] = 0
        frontier, d = [src], 0
        if unit:
            while frontier:
                d += 1
                reached = []
                for u in frontier:
                    for v in adj[u]:
                        if dist[v] < 0:
                            dist[v] = d
                            reached.append(v)
                frontier = reached
            yield dist
            continue
        buckets: Dict[int, List[int]] = defaultdict(list)
        while True:
            for u in frontier:
                if dist[u] != d:
                    continue  # reached again later at a shorter distance
                for v, w in adj[u].items():
                    nd = d + w
                    dv = dist[v]
                    if dv < 0 or nd < dv:
                        dist[v] = nd
                        buckets[nd].append(v)
            if not buckets:
                break
            d = min(buckets)
            frontier = buckets.pop(d)
        yield dist


class DisjointSets:
    """Union-find whose class root is always the member of least key."""

    __slots__ = ("parent", "key")

    def __init__(self, members: Iterable[Hashable], key: Callable) -> None:
        self.parent = {m: m for m in members}
        self.key = key

    def add(self, m: Hashable) -> None:
        self.parent[m] = m

    def find(self, m: Hashable) -> Hashable:
        parent = self.parent
        while parent[m] != m:
            parent[m] = parent[parent[m]]
            m = parent[m]
        return m

    def union(self, a: Hashable, b: Hashable) -> Optional[Tuple[Hashable, Hashable]]:
        """Merge the classes of a and b; return (kept root, dropped root),
        or None when they already share a class."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return None
        if self.key(rb) < self.key(ra):
            ra, rb = rb, ra
        self.parent[rb] = ra
        return ra, rb


class GeodesicGraph:
    """Connected graph with unit edges; the metric is shortest-path length."""

    __slots__ = ("labels", "adj", "dist", "_index")

    def __init__(self, labels: Sequence[str], edges):
        labels = tuple(str(s) for s in labels)
        if not labels:
            raise InputError("need at least one vertex")
        if len(set(labels)) != len(labels):
            raise InputError("duplicate vertex labels")
        index = {s: i for i, s in enumerate(labels)}
        n = len(labels)
        nb = [set() for _ in range(n)]
        resolve = self._resolve
        for u, v in edges:
            # a plain int in range, the common case, is its own index
            i = u if type(u) is int and 0 <= u < n else resolve(u, index, n)
            j = v if type(v) is int and 0 <= v < n else resolve(v, index, n)
            if i == j:
                raise InputError("loop edge at %r" % (labels[i],))
            nb[i].add(j)
            nb[j].add(i)
        self.labels = labels
        self.adj = tuple(dict.fromkeys(sorted(s), 1) for s in nb)
        self._index = index
        self.dist = distance_table(self.adj)
        # the graph is connected exactly when vertex 0 reaches every vertex
        if -1 in self.dist[0]:
            raise InputError("graph is disconnected: no path %s to %s"
                             % (labels[0], labels[self.dist[0].index(-1)]))

    @staticmethod
    def _resolve(v, index, n):
        if isinstance(v, int) and not isinstance(v, bool):
            if not 0 <= v < n:
                raise InputError("vertex index %d out of range" % (v,))
            return v
        try:
            return index[str(v)]
        except KeyError:
            raise InputError("unknown vertex %r" % (v,)) from None

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, v) -> int:
        return self._resolve(v, self._index, len(self.labels))

    def edges(self) -> List[Tuple[int, int]]:
        return [(i, j) for i in range(len(self.labels)) for j in self.adj[i] if i < j]

    def as_space(self) -> FiniteLambdaSpace:
        """All-pairs shortest-path table as a rank-one Z-metric space, whose
        packed table is this graph's table of ints."""
        return _rank_one_space(self.labels, self.dist)


def read_gg(text: str) -> GeodesicGraph:
    """Parse the .gg format: 'graph k' then edge lines 'u v' (0-based)."""
    toks = _tokens(text)
    if len(toks) < 2 or toks[0] != "graph":
        raise InputError("expected 'graph k' header")
    k = int_token(toks[1], "vertex count")
    if k < 1:
        raise InputError("need at least one vertex")
    rest = toks[2:]
    if len(rest) % 2:
        raise InputError("odd number of edge endpoints")
    ends = [int_token(t, "edge endpoint") for t in rest]
    return GeodesicGraph([str(i) for i in range(k)], zip(ends[::2], ends[1::2]))


def write_gg(G: GeodesicGraph) -> str:
    lines = ["graph %d" % len(G)]
    lines.extend("%d %d" % e for e in G.edges())
    return "\n".join(lines) + "\n"


def _int_table(X: FiniteLambdaSpace) -> Sequence[Sequence[int]]:
    # geodesic analysis is defined for Z-valued distances only; over rank-one
    # Z the packed table holds the distances themselves
    if X.domain != "Z" or X.rank != 1:
        raise InputError("need rank-one Z-valued distances, got %s^%d" % (X.domain, X.rank))
    return X.packed_table()


def unit_graph(X: FiniteLambdaSpace, check: bool = True) -> GeodesicGraph:
    """Graph on the points of X with edges at distance one.

    With check=True the graph's path metric must reproduce the distance
    table, which holds exactly when X is geodesic.
    """
    D = _int_table(X)
    n = len(X)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if D[i][j] == 1]
    G = GeodesicGraph(X.labels, edges)
    if check:
        for i in range(n):
            for j in range(n):
                if G.dist[i][j] != D[i][j]:
                    raise ConstructionError(
                        "unit edges do not realize d(%s,%s)=%d (paths give %d)"
                        % (X.labels[i], X.labels[j], D[i][j], G.dist[i][j])
                    )
    return G


class _Masks:
    """Sphere and ball bitmasks of every point, read off the int table.

    Bit z of ``sphere[u][r]`` is set when d(u, z) = r, and of
    ``ball[u][r]`` when d(u, z) <= r; both lists run up to the diameter,
    so the table must be non-negative.  The level set at parameter t from
    i toward j is sphere[i][t] & sphere[j][d(i,j) - t], and the between
    set of i and j the union of its levels.
    """

    __slots__ = ("D", "sphere", "ball")

    def __init__(self, D: Sequence[Sequence[int]]) -> None:
        top = max(map(max, D)) + 1
        self.D = D
        self.sphere = []
        self.ball = []
        for row in D:
            sph = [0] * top
            for z, d in enumerate(row):
                sph[d] |= 1 << z
            self.sphere.append(sph)
            self.ball.append(list(accumulate(sph, or_)))

    def level(self, i: int, j: int, t: int) -> int:
        """Mask of the points z with d(i,z) = t and d(z,j) = d(i,j) - t."""
        d = self.D[i][j]
        if not 0 <= t <= d:
            return 0
        return self.sphere[i][t] & self.sphere[j][d - t]

    def between(self, i: int, j: int) -> int:
        """Mask of the points z with d(i,z) + d(z,j) = d(i,j)."""
        Si, Sj = self.sphere[i], self.sphere[j]
        d = self.D[i][j]
        out = 0
        for t in range(d + 1):
            out |= Si[t] & Sj[d - t]
        return out


def _names(X: FiniteLambdaSpace, points: Iterable[int]) -> Tuple[str, ...]:
    return tuple(X.labels[z] for z in points)


@lru_cache(maxsize=1)
def _space_masks(X: FiniteLambdaSpace) -> _Masks:
    """The masks of X, whose table must be non-negative and symmetric with a
    zero diagonal; the last space's are kept, so per-set calls on one space
    build them once."""
    D = _int_table(X)
    L = X.labels
    n = len(D)
    if min(map(min, D)) < 0:
        i, j = next((i, j) for i in range(n) for j in range(n) if D[i][j] < 0)
        raise InputError("distance d(%s,%s)=%d is negative" % (L[i], L[j], D[i][j]))
    if tuple(zip(*D)) != D:
        i, j = next((i, j) for i in range(n) for j in range(i + 1, n)
                    if D[i][j] != D[j][i])
        raise InputError("distance table is not symmetric: d(%s,%s)=%d but d(%s,%s)=%d"
                         % (L[i], L[j], D[i][j], L[j], L[i], D[j][i]))
    # a point off its own zero sphere can leave a between set empty, and
    # the slimness scan would then walk its balls past the diameter
    i = next((i for i in range(n) if D[i][i]), None)
    if i is not None:
        raise InputError("distance d(%s,%s)=%d from a point to itself is not zero"
                         % (L[i], L[i], D[i][i]))
    return _Masks(D)


@lru_cache(maxsize=1)
def is_geodesic(X: FiniteLambdaSpace) -> Tuple[bool, Optional[Tuple[str, str, int]]]:
    """Whether every pair admits points at every intermediate parameter.

    Returns (True, None), or (False, (x, y, t)) naming the first pair
    x < y and parameter 0 < t < d(x,y), in index order, with no point z
    at d(x,z)=t, d(z,y)=d-t.  The last space's verdict is kept, so the
    triangle scans and ``delta_relations`` on one space test it once.
    """
    M = _space_masks(X)
    D, S = M.D, M.sphere
    n = len(D)
    for i in range(n):
        Di, Si = D[i], S[i]
        for j in range(i + 1, n):
            d = Di[j]
            Sj = S[j]
            for t in range(1, d):
                if not Si[t] & Sj[d - t]:
                    return False, (X.labels[i], X.labels[j], t)
    return True, None


def _require_geodesic(X: FiniteLambdaSpace) -> _Masks:
    ok, gap = is_geodesic(X)
    if not ok:
        raise InputError("space is not geodesic: gap at (%s,%s,t=%d)" % gap)
    return _space_masks(X)


def between_set(X: FiniteLambdaSpace, x, y) -> Tuple[str, ...]:
    """Points z with d(x,z) + d(z,y) = d(x,y), endpoints included."""
    M = _space_masks(X)
    return _names(X, _bits(M.between(X.index(x), X.index(y))))


def level_set(X: FiniteLambdaSpace, x, y, t: int) -> Tuple[str, ...]:
    """Points z at parameter t between x and y: d(x,z)=t and d(z,y)=d(x,y)-t."""
    M = _space_masks(X)
    return _names(X, _bits(M.level(X.index(x), X.index(y), t)))


def canonical_segment(X: FiniteLambdaSpace, x, y) -> Tuple[str, ...]:
    """The least unit-step chain from x to y, greedy by point index."""
    M = _space_masks(X)
    return _names(X, _canonical(X, M, X.index(x), X.index(y)))


def _canonical(X: FiniteLambdaSpace, M: _Masks, i: int, j: int) -> List[int]:
    chain = [i]
    for t in range(1, M.D[i][j] + 1):
        step = M.sphere[chain[-1]][1] & M.level(i, j, t)
        if not step:
            raise InputError(
                "no unit chain from %s to %s at parameter %d; space is not geodesic"
                % (X.labels[i], X.labels[j], t)
            )
        chain.append((step & -step).bit_length() - 1)
    return chain


def all_segments(X: FiniteLambdaSpace, x, y) -> Iterator[Tuple[str, ...]]:
    """Every unit-step distance-realizing chain from x to y, in index order."""
    M = _space_masks(X)
    i, j = X.index(x), X.index(y)
    levels = [M.level(i, j, t) for t in range(M.D[i][j] + 1)]

    def extend(prefix: List[int]) -> Iterator[Tuple[str, ...]]:
        if len(prefix) == len(levels):
            yield _names(X, prefix)
            return
        for z in _bits(M.sphere[prefix[-1]][1] & levels[len(prefix)]):
            prefix.append(z)
            yield from extend(prefix)
            prefix.pop()

    return extend([i])


class Tripod(NamedTuple):
    """Comparison tripod of a triple: side lengths and the three insizes.

    The insize at a corner is the Gromov product of the other two points
    there; the two insizes meeting along a side sum to that side's length.
    """

    points: Tuple[str, str, str]
    sides: Tuple[LexElem, LexElem, LexElem]  # d(y,z), d(x,z), d(x,y)
    insizes: Tuple[QLexElem, QLexElem, QLexElem]  # at x, at y, at z


def tripod_insizes(X: FiniteLambdaSpace, x, y, z) -> Tripod:
    i, j, k = X.index(x), X.index(y), X.index(z)
    d = X.dist
    dyz, dxz, dxy = d[j][k], d[i][k], d[i][j]
    at_x = QLexElem(dxy + dxz - dyz, 2)
    at_y = QLexElem(dxy + dyz - dxz, 2)
    at_z = QLexElem(dxz + dyz - dxy, 2)
    return Tripod(
        (X.labels[i], X.labels[j], X.labels[k]),
        (dyz, dxz, dxy),
        (at_x, at_y, at_z),
    )


def min_thinness(X: FiniteLambdaSpace) -> QLexElem:
    value, _ = min_thinness_witness(X)
    return value


def min_thinness_witness(X):
    """Least delta bounding every identified pair in every triangle.

    Over each triple and corner, points at equal parameter t from the
    corner on any realizing side toward the two other corners are
    identified on the tripod, for integer t up to the floor of the corner
    insize.  The result is the largest distance between identified
    points; the witness names (corner, other, other, t, u, v).
    """
    # the level set at parameter t from corner c toward a is
    # sphere[c][t] & sphere[a][d(c,a) - t]; u can raise the running best
    # only when some v of the other level lies outside ball[u][best], and
    # then the first v at the largest distance is the witness
    M = _require_geodesic(X)
    D, S, B = M.D, M.sphere, M.ball
    n = len(D)
    best = 0
    wit = None
    for a, b, c in combinations(range(n), 3):
        for corner, p, q in ((a, b, c), (b, a, c), (c, a, b)):
            Dc = D[corner]
            dcp, dcq = Dc[p], Dc[q]
            top = (dcp + dcq - D[p][q]) // 2
            # two points at distance t from the corner lie within 2t of
            # each other, so no t with 2t <= best can raise best; a corner
            # with no t left is skipped before its rows are read
            first = best // 2 + 1
            if top < first:
                continue
            Sc, Sp, Sq = S[corner], S[p], S[q]
            for t in range(first, top + 1):
                level_q = Sc[t] & Sq[dcq - t]
                level_p = Sc[t] & Sp[dcp - t]
                while level_p:
                    low = level_p & -level_p
                    level_p ^= low
                    u = low.bit_length() - 1
                    Bu = B[u]
                    if level_q & ~Bu[best]:
                        r = best + 1
                        while level_q & ~Bu[r]:
                            r += 1
                        best = r
                        v = level_q & S[u][r]
                        wit = (corner, p, q, t, u, (v & -v).bit_length() - 1)
    value = QLexElem(LexElem((best,), "Z"))
    if wit is None:
        return value, None
    corner, p, q, t, u, v = wit
    L = X.labels
    return value, (L[corner], L[p], L[q], t, L[u], L[v])


def min_rips(X: FiniteLambdaSpace) -> QLexElem:
    value, _ = min_rips_witness(X)
    return value


def min_rips_witness(X):
    """Least delta with every side point near the union of the other sides.

    For each triple, each choice of the side containing u, and each point
    u on any realizing side, the distance from u to the union of all
    points between the remaining two pairs is taken; the result is the
    maximum, the witness (x, y, z, u) with u between x and y.
    """
    # u beats the running best exactly when ball[u][best] misses the
    # union of the two other sides, that is when u lies outside near[i][j],
    # the points within best of some point between i and j, for both of
    # them; its distance to the union is the least radius whose ball
    # meets it.  near is rebuilt each time best grows.
    M = _require_geodesic(X)
    B = M.ball
    n = len(M.D)
    pairs = list(combinations(range(n), 2))
    betw = [[0] * n for _ in range(n)]
    for i, j in pairs:
        betw[i][j] = betw[j][i] = M.between(i, j)

    def within(r):
        near = [[0] * n for _ in range(n)]
        for i, j in pairs:
            acc = 0
            rest = betw[i][j]
            while rest:
                low = rest & -rest
                rest ^= low
                acc |= B[low.bit_length() - 1][r]
            near[i][j] = near[j][i] = acc
        return near

    best = 0
    near = betw
    wit = None
    for a, b, c in combinations(range(n), 3):
        for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
            far = betw[x][y] & ~(near[x][z] | near[y][z])
            if not far:
                continue
            other = betw[x][z] | betw[y][z]
            for u in _bits(far):
                Bu = B[u]
                if not Bu[best] & other:
                    r = best + 1
                    while not Bu[r] & other:
                        r += 1
                    best = r
                    wit = (x, y, z, u)
            near = within(best)
    value = QLexElem(LexElem((best,), "Z"))
    if wit is None:
        return value, None
    L = X.labels
    return value, tuple(L[v] for v in wit)


def _check_side(X, D, side, x, y) -> List[int]:
    idx = [X.index(v) for v in side]
    if idx[0] != X.index(x) or idx[-1] != X.index(y):
        raise InputError("side endpoints do not match the triple")
    dij = D[idx[0]][idx[-1]]
    if len(idx) != dij + 1:
        raise InputError("side has %d steps, distance is %d" % (len(idx) - 1, dij))
    for t, z in enumerate(idx):
        if D[idx[0]][z] != t or D[z][idx[-1]] != dij - t:
            raise InputError("side is not distance-realizing at step %d" % (t,))
    return idx


class InnerTriangle(NamedTuple):
    """The three side points identified with the tripod center."""

    vertices: Tuple[str, str, str]  # on [x,y], [x,z], [y,z]
    diameter: LexElem


def inner_triangle(X: FiniteLambdaSpace, x, y, z, sides=None, delta=None) -> InnerTriangle:
    """Locate the center preimages on chosen sides of the triangle x,y,z.

    sides, when given, are three explicit chains ([x..y], [x..z], [y..z]);
    the default takes the canonical segment for each pair.  Insizes are
    rounded down toward the measuring corner (x for the first two sides,
    y for the third).  With delta set, a diameter above 4*delta raises
    ConstructionError.
    """
    M = _require_geodesic(X)
    D = M.D
    i, j, k = X.index(x), X.index(y), X.index(z)
    if sides is None:
        sides = tuple(_names(X, _canonical(X, M, a, b))
                      for a, b in ((i, j), (i, k), (j, k)))
    sxy = _check_side(X, D, sides[0], x, y)
    sxz = _check_side(X, D, sides[1], x, z)
    syz = _check_side(X, D, sides[2], y, z)
    tx = (D[i][j] + D[i][k] - D[j][k]) // 2
    ty = (D[i][j] + D[j][k] - D[i][k]) // 2
    p, q, r = sxy[tx], sxz[tx], syz[ty]
    diam = LexElem((max(D[p][q], D[p][r], D[q][r]),), "Z")
    if delta is not None:
        if QLexElem.from_lex(diam) > _as_q(delta, X) * 4:
            raise ConstructionError(
                "inner triangle of (%s,%s,%s) has diameter %s > 4 delta"
                % (X.labels[i], X.labels[j], X.labels[k], diam.render())
            )
    return InnerTriangle((X.labels[p], X.labels[q], X.labels[r]), diam)


def _as_q(delta, X: FiniteLambdaSpace) -> QLexElem:
    if isinstance(delta, QLexElem):
        return delta
    if isinstance(delta, LexElem):
        return QLexElem.from_lex(delta)
    return QLexElem(LexElem((delta,) + (0,) * (X.rank - 1), X.domain))


SIDE_RULE = (
    "identified pairs range over all distance-realizing sides; "
    "side-to-side distance is taken to the union of all realizing sides"
)


class DeltaRelations(NamedTuple):
    """The three triangle constants and the inequalities tying them together."""

    delta_point: QLexElem
    delta_thin: QLexElem
    delta_rips: QLexElem
    failures: Tuple[str, ...] = ()
    side_rule: str = SIDE_RULE

    @property
    def ok(self) -> bool:
        return not self.failures


def delta_relations(X: FiniteLambdaSpace) -> DeltaRelations:
    """Compare the basepoint, thinness, and slimness constants of X.

    The expected bounds: thin <= 4 point, point <= 2 thin, rips <= thin,
    thin <= 4 rips, and the two composites rips <= 4 point, point <= 8 rips.
    """
    _require_geodesic(X)
    dp = min_delta_4pt(X)
    dt, _ = min_thinness_witness(X)
    dr, _ = min_rips_witness(X)
    # all three are rank-one over Z, so each is an int over a positive int
    point, thin, rips = ((q.num.coords[0], q.den) for q in (dp, dt, dr))

    def at_most(a, k, b):
        """a <= k*b, cross-multiplied."""
        return a[0] * b[1] <= k * b[0] * a[1]

    checks = (
        ("thin<=4*point", at_most(thin, 4, point)),
        ("point<=2*thin", at_most(point, 2, thin)),
        ("rips<=thin", at_most(rips, 1, thin)),
        ("thin<=4*rips", at_most(thin, 4, rips)),
        ("rips<=4*point", at_most(rips, 4, point)),
        ("point<=8*rips", at_most(point, 8, rips)),
    )
    failures = tuple(name for name, good in checks if not good)
    return DeltaRelations(dp, dt, dr, failures)
