"""Geodesic completion of finite integer-distance spaces.

Two constructions.  Stage one inserts a discrete geodesic between every
pair of points that is not already split by a between-point, then
repairs thinness by bridging auxiliary vertices that tripod projections
force close together.  Stage two rebuilds the space from its longest
pairs downward, dropping any pair that can be routed around a strict
between-point, and finally reattaches every stray auxiliary vertex to
the surviving skeleton by short bridges measured in the stage-one graph.

Both outputs are weighted graphs whose path metric is geodesic by
construction (every edge of weight w is a chain of w unit edges, except
for the bookkeeping chords of stage one, which never shorten anything).
"""

from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import combinations
from random import Random
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .errors import ConstructionError, InputError
from .isometry import IsoPerm
from .lspace import FiniteLambdaSpace, min_delta_4pt, validate_metric
from .ordgroup import LexElem, QLexElem

ESSENTIAL = "essential"
AUXILIARY = "auxiliary"
NEGLIGIBLE = "negligible"

_CLASS_RANK = {ESSENTIAL: 0, AUXILIARY: 1, NEGLIGIBLE: 2}


@dataclass(frozen=True)
class CompletionGraph:
    """A completion output: labelled weighted graph plus a certificate.

    Vertices carry a class and the records that created them; a vertex
    created several times over (identified copies) keeps every record.
    Edge weights are unit except for stage-one chords, which restate
    the input distance between two essential vertices.
    """

    labels: Tuple[str, ...]
    klass: Tuple[str, ...]
    provenance: Tuple[Tuple[str, ...], ...]
    edges: Tuple[Tuple[int, int, int], ...]
    certificate: Dict[str, str] = field(compare=False)

    def essential_count(self) -> int:
        k = 0
        for c in self.klass:
            if c == ESSENTIAL:
                k += 1
        return k

    def adjacency(self) -> List[Dict[int, int]]:
        adj: List[Dict[int, int]] = [dict() for _ in self.labels]
        for u, v, w in self.edges:
            cur = adj[u].get(v)
            if cur is None or w < cur:
                adj[u][v] = w
                adj[v][u] = w
        return adj

    def unit_adjacency(self) -> List[List[int]]:
        adj: List[List[int]] = [[] for _ in self.labels]
        for u, v, w in self.edges:
            if w == 1:
                adj[u].append(v)
                adj[v].append(u)
        for row in adj:
            row.sort()
        return adj

    def derived_space(self) -> FiniteLambdaSpace:
        table = _weighted_all_pairs(len(self.labels), self.adjacency())
        dist = [[LexElem((table[i][j],)) for j in range(len(self.labels))]
                for i in range(len(self.labels))]
        return FiniteLambdaSpace(self.labels, dist)


def _weighted_all_pairs(n: int, adj: List[Dict[int, int]]) -> List[List[int]]:
    out = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        heap = [(0, s)]
        while heap:
            du, u = heappop(heap)
            if du > dist[u]:
                continue
            for v, w in adj[u].items():
                nd = du + w
                if dist[v] < 0 or nd < dist[v]:
                    dist[v] = nd
                    heappush(heap, (nd, v))
        if any(d < 0 for d in dist):
            raise ConstructionError("completion graph is not connected")
        out.append(dist)
    return out


def _unit_all_pairs(n: int, adj: List[List[int]]) -> List[List[int]]:
    out = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        out.append(dist)
    return out


def _least_geodesic(adj: List[List[int]], dist_to: List[int], src: int,
                    dst: int) -> List[int]:
    # dist_to holds unit distances to dst; walk choosing the least index
    if dist_to[src] < 0:
        raise ConstructionError("no path between %d and %d" % (src, dst))
    path = [src]
    cur = src
    while cur != dst:
        cur = min(v for v in adj[cur] if dist_to[v] == dist_to[cur] - 1)
        path.append(cur)
    return path


def _int_table(space: FiniteLambdaSpace) -> Sequence[Sequence[int]]:
    if space.rank != 1 or space.domain != "Z":
        raise InputError("completion needs integer distances (rank-1 Z table)")
    for lab in space.labels:
        # created vertices encode their origin in the label, so the
        # record separators cannot appear in input labels
        if any(c in lab for c in "|:&"):
            raise InputError("label %r uses a reserved character" % lab)
    report = validate_metric(space)
    if not report.ok:
        raise InputError("input is not a metric space: %s at %s"
                         % (report.axiom, report.witness))
    # over rank-one Z the packed table holds the distances themselves
    return space.packed_table()


def _require_delta(space: FiniteLambdaSpace, delta: int) -> None:
    if delta < 0:
        raise InputError("delta must be a natural number")
    if QLexElem.from_lex(LexElem((delta,))) < min_delta_4pt(space):
        raise InputError("delta=%d is below the four-point constant of the input"
                         % delta)


def midpoints(space: FiniteLambdaSpace, x: str, y: str, z: str,
              delta: LexElem) -> Tuple[str, ...]:
    """Points v that are 2*delta-central for the triple x, y, z."""
    dx, dy, dz = space.d(x, y), space.d(x, z), space.d(y, z)
    slack = delta * 2
    out = []
    for v in space.labels:
        if (space.d(x, v) + space.d(v, y) <= dx + slack
                and space.d(x, v) + space.d(v, z) <= dy + slack
                and space.d(y, v) + space.d(v, z) <= dz + slack):
            out.append(v)
    return tuple(out)


@dataclass(frozen=True)
class MidpointTable:
    delta: LexElem
    entries: Mapping[Tuple[str, str, str], Tuple[str, ...]] = field(compare=False)
    failing: Optional[Tuple[str, str, str]] = None


def check_RS(space: FiniteLambdaSpace, delta: LexElem) -> Tuple[bool, MidpointTable]:
    """Does every triple admit a 2*delta-central point?

    Triples with a repeated entry always do (the repeated point works),
    so only distinct triples are tabulated.
    """
    entries: Dict[Tuple[str, str, str], Tuple[str, ...]] = {}
    failing = None
    for x, y, z in combinations(space.labels, 3):
        found = midpoints(space, x, y, z, delta)
        entries[(x, y, z)] = found
        if not found and failing is None:
            failing = (x, y, z)
    return failing is None, MidpointTable(delta, entries, failing)


# tau[0..k] for each delta, grown on demand: tau depends on (k, delta)
# only, so one row serves every caller in the process
_TAU_ROWS: Dict[int, List[int]] = {}


def tau_max(n: int, delta: int) -> int:
    """Worst stretch of a length-n pair under repeated between-point splits.

    A pair of length k <= 2*delta is kept as is; otherwise it splits
    into two strictly shorter pairs whose lengths sum to at most
    k + 2*delta, and the stretch is the worst total over leaf pairs.
    """
    if n < 0 or delta < 0:
        raise InputError("tau_max needs natural arguments")
    if delta == 0 or n <= 2 * delta:
        return n
    tau = _TAU_ROWS.get(delta)
    if tau is not None and n < len(tau):
        return tau[n]
    # grow a private copy and publish it whole, so a reader never sees a
    # row that another caller is still extending
    tau = list(tau if tau is not None else range(2 * delta + 1))
    for k in range(len(tau), n + 1):
        best = 0
        # tau is increasing, so the partner length is taken maximal
        for k1 in range(1, k):
            k2 = min(k - 1, k + 2 * delta - k1)
            total = tau[k1] + tau[k2]
            if total > best:
                best = total
        tau.append(best)
    _TAU_ROWS[delta] = tau
    return tau[n]


class _Builder:
    """Growing vertex/edge pool with identification support."""

    def __init__(self) -> None:
        self.labels: List[str] = []
        self.klass: List[str] = []
        self.records: List[str] = []
        self.adj: List[Set[int]] = []
        self.parent: List[int] = []

    def add(self, label: str, klass: str, record: str) -> int:
        i = len(self.labels)
        self.labels.append(label)
        self.klass.append(klass)
        self.records.append(record)
        self.adj.append(set())
        self.parent.append(i)
        return i

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return
        # keep the root with the stronger class, then the lesser label
        key = lambda r: (_CLASS_RANK[self.klass[r]], self.labels[r], r)
        if key(rj) < key(ri):
            ri, rj = rj, ri
        self.parent[rj] = ri
        self.adj[ri] |= self.adj[rj]
        self.adj[rj] = set()

    def edge(self, u: int, v: int) -> None:
        self.adj[self.find(u)].add(v)
        self.adj[self.find(v)].add(u)

    def chain(self, u: int, v: int, length: int, klass: str,
              label_stub: str) -> None:
        # a path of `length` unit edges with length-1 interior vertices
        prev = u
        for t in range(1, length):
            w = self.add("%s:%d" % (label_stub, t), klass,
                         "%s:%d" % (label_stub, t))
            self.edge(prev, w)
            prev = w
        self.edge(prev, v)

    def neighbours(self, root: int) -> Set[int]:
        return {self.find(w) for w in self.adj[root]}

    def connected(self, u: int, v: int, limit: int) -> bool:
        src, dst = self.find(u), self.find(v)
        if src == dst:
            return limit >= 0
        seen = {src: 0}
        queue = deque([src])
        while queue:
            cur = queue.popleft()
            if seen[cur] >= limit:
                continue
            for nxt in self.neighbours(cur):
                if nxt not in seen:
                    if nxt == dst:
                        return True
                    seen[nxt] = seen[cur] + 1
                    queue.append(nxt)
        return False

    def finish(self, chords: Mapping[Tuple[int, int], int],
               certificate: Dict[str, str]) -> CompletionGraph:
        groups: Dict[int, List[int]] = {}
        for i in range(len(self.labels)):
            groups.setdefault(self.find(i), []).append(i)
        # essential vertices first, in creation order; they are never
        # identified with one another, so this keeps input indices stable
        def group_key(root: int) -> Tuple[int, int, str]:
            best = min(groups[root],
                       key=lambda m: (_CLASS_RANK[self.klass[m]], self.labels[m]))
            if self.klass[best] == ESSENTIAL:
                return (0, best, "")
            return (_CLASS_RANK[self.klass[best]], -1, self.labels[best])

        roots = sorted(groups, key=group_key)
        final_of: Dict[int, int] = {}
        labels, klass, prov = [], [], []
        for f, root in enumerate(roots):
            members = sorted(groups[root],
                             key=lambda m: (_CLASS_RANK[self.klass[m]], self.labels[m]))
            final_of[root] = f
            labels.append(self.labels[members[0]])
            klass.append(self.klass[members[0]])
            prov.append(tuple(self.records[m] for m in members))
        edges: Set[Tuple[int, int, int]] = set()
        for root in roots:
            fu = final_of[root]
            for w in self.adj[root]:
                fv = final_of[self.find(w)]
                if fu != fv:
                    edges.add((min(fu, fv), max(fu, fv), 1))
        for (i, j), w in chords.items():
            fu = final_of[self.find(i)]
            fv = final_of[self.find(j)]
            if fu != fv:
                edges.add((min(fu, fv), max(fu, fv), w))
        return CompletionGraph(tuple(labels), tuple(klass), tuple(prov),
                               tuple(sorted(edges)), certificate)


def _between_blocked(D: Sequence[Sequence[int]], n: int, i: int, j: int) -> bool:
    d = D[i][j]
    for k in range(n):
        if k != i and k != j and D[i][k] + D[k][j] == d:
            return True
    return False


def _aux_label(li: str, lj: str, t: int) -> str:
    return "p:%s|%s:%d" % (li, lj, t)


def gamma1(space: FiniteLambdaSpace, delta: int,
           order_seed: Optional[int] = None) -> CompletionGraph:
    """Stage-one completion: fill in geodesics, then bridge thin tripods.

    The output records the input metric on essential pairs both through
    unit paths and through weight-d chords; a mismatch between the two
    would mean an illegal shortcut and aborts the construction.
    """
    D = _int_table(space)
    _require_delta(space, delta)
    n = len(space)
    g = _Builder()
    for lab in space.labels:
        g.add(lab, ESSENTIAL, lab)

    pairs = list(combinations(range(n), 2))
    triples = list(combinations(range(n), 3))
    if order_seed is not None:
        rng = Random(order_seed)
        rng.shuffle(pairs)
        rng.shuffle(triples)

    side: Dict[Tuple[int, int, int], int] = {}
    chords: Dict[Tuple[int, int], int] = {}
    for i, j in pairs:
        d = D[i][j]
        if d >= 2:
            chords[(i, j)] = d
        if d == 1:
            g.edge(i, j)
        elif d >= 2 and not _between_blocked(D, n, i, j):
            prev = i
            for t in range(1, d):
                a = g.add(_aux_label(space.labels[i], space.labels[j], t),
                          AUXILIARY,
                          _aux_label(space.labels[i], space.labels[j], t))
                side[(i, j, t)] = a
                g.edge(prev, a)
                prev = a
            g.edge(prev, j)

    def side_vertex(c: int, a: int, t: int) -> Optional[int]:
        if t == 0:
            return c
        if t == D[c][a]:
            return a
        key = (c, a, t) if c < a else (a, c, D[c][a] - t)
        return side.get(key)

    span = 4 * delta
    for x, y, z in triples:
        for c, a, b in ((x, y, z), (y, x, z), (z, x, y)):
            insize = (D[c][a] + D[c][b] - D[a][b]) // 2
            for t in range(1, insize + 1):
                u = side_vertex(c, a, t)
                v = side_vertex(c, b, t)
                if u is None or v is None:
                    continue
                if g.klass[u] != AUXILIARY or g.klass[v] != AUXILIARY:
                    continue
                if delta == 0:
                    g.union(u, v)
                elif not g.connected(u, v, span):
                    lu, lv = sorted((g.labels[u], g.labels[v]))
                    g.chain(u, v, span, NEGLIGIBLE, "b:%s&%s" % (lu, lv))

    cert = {
        "stage": "one",
        "delta": str(delta),
        "delta_bound": str(29 * delta),
        "geodesic": "yes",
    }
    out = g.finish(chords, cert)
    _verify_stage(out, space, D, chords_expected=True)
    return out


def _verify_stage(out: CompletionGraph, space: FiniteLambdaSpace,
                  D: Sequence[Sequence[int]], chords_expected: bool) -> None:
    n = len(space)
    if out.labels[:n] != space.labels:
        raise ConstructionError("essential vertices lost or reordered")
    if any(out.klass[i] != ESSENTIAL for i in range(n)):
        raise ConstructionError("essential vertex demoted")
    if any(out.klass[i] == ESSENTIAL for i in range(n, len(out.labels))):
        raise ConstructionError("spurious essential vertex")
    seen: Set[str] = set()
    for recs in out.provenance:
        for r in recs:
            if r in seen:
                raise ConstructionError("duplicate creation record %r" % r)
            seen.add(r)
    unit = out.unit_adjacency()
    for i, c in enumerate(out.klass):
        if c == NEGLIGIBLE and len(unit[i]) != 2:
            raise ConstructionError("bridge interior %r has degree %d"
                                    % (out.labels[i], len(unit[i])))
    if chords_expected:
        table = _unit_all_pairs(len(out.labels), unit)
        for i, j in combinations(range(n), 2):
            if table[i][j] != D[i][j]:
                raise ConstructionError(
                    "distance between %s and %s came out %d, input says %d"
                    % (out.labels[i], out.labels[j], table[i][j], D[i][j]))


def gamma2(space: FiniteLambdaSpace, delta: int, cap: Optional[int] = None,
           order_seed: Optional[int] = None,
           H_override: Optional[int] = None) -> CompletionGraph:
    """Stage-two completion: keep only unsplittable pairs, then re-anchor.

    With ``cap`` below the diameter, returns the intermediate graph
    holding the surviving paths among pairs of distance at most cap
    (no bridges, no certificate beyond the stage marker); successive
    caps grow monotonically, which the tests rely on.
    """
    D = _int_table(space)
    _require_delta(space, delta)
    ok, table = check_RS(space, LexElem((delta,)))
    if not ok:
        raise InputError("no 2*delta-central point for triple %r"
                         % (table.failing,))
    n = len(space)
    diam = max((D[i][j] for i, j in combinations(range(n), 2)), default=0)
    full = cap is None or cap >= diam
    if cap is None:
        cap = diam

    g1 = gamma1(space, delta, order_seed=order_seed)
    unit1 = g1.unit_adjacency()
    d1 = _unit_all_pairs(len(g1.labels), unit1)

    g = _Builder()
    for lab in space.labels:
        g.add(lab, ESSENTIAL, lab)

    pairs = [(i, j) for i, j in combinations(range(n), 2) if 1 <= D[i][j] <= cap]
    pairs.sort(key=lambda p: (D[p[0]][p[1]], p))
    if order_seed is not None:
        Random(order_seed).shuffle(pairs)

    side: Dict[Tuple[int, int, int], int] = {}
    surviving: List[Tuple[int, int]] = []
    two = 2 * delta
    for i, j in pairs:
        d = D[i][j]
        if d >= 2 and _between_blocked(D, n, i, j):
            # an essential vertex splits the pair exactly, so its halves
            # carry the distance; a fresh basic path would keep geodesic
            # inputs from coming back unchanged
            continue
        removed = False
        for z in range(n):
            if z == i or z == j:
                continue
            for v in range(n):
                if (D[i][v] + D[v][j] <= D[i][j] + two
                        and D[i][v] + D[v][z] <= D[i][z] + two
                        and D[j][v] + D[v][z] <= D[j][z] + two
                        and D[i][v] > two and D[j][v] > two):
                    # a removal witness must sit strictly inside the pair
                    if not (D[i][v] < d and D[j][v] < d):
                        raise ConstructionError(
                            "removal witness %s for (%s, %s) is not strictly"
                            " closer to both ends"
                            % (space.labels[v], space.labels[i], space.labels[j]))
                    removed = True
                    break
            if removed:
                break
        if removed:
            continue
        surviving.append((i, j))
        if d == 1:
            g.edge(i, j)
        else:
            prev = i
            for t in range(1, d):
                a = g.add(_aux_label(space.labels[i], space.labels[j], t),
                          AUXILIARY,
                          _aux_label(space.labels[i], space.labels[j], t))
                side[(i, j, t)] = a
                g.edge(prev, a)
                prev = a
            g.edge(prev, j)
    surviving.sort(key=lambda p: (D[p[0]][p[1]], p))

    if not full:
        return g.finish({}, {"stage": "two-partial", "delta": str(delta),
                             "cap": str(cap)})

    partial = g.finish({}, {"stage": "two-partial", "delta": str(delta),
                            "cap": str(cap)})
    # connectivity of the skeleton: every removed pair refines through
    # strictly closer witnesses, so the survivors must already connect
    _weighted_all_pairs(len(partial.labels), partial.adjacency())

    H_measured = hausdorff_const(g1, partial)
    H = H_measured if H_override is None else H_override
    dp = 29 * delta
    B = 2 * H + 2 * dp

    phi: Dict[int, int] = {i: i for i in range(n)}
    geo_cache: Dict[Tuple[int, int], List[int]] = {}

    def geodesic1(i: int, j: int) -> List[int]:
        if (i, j) not in geo_cache:
            geo_cache[(i, j)] = _least_geodesic(unit1, d1[j], i, j)
        return geo_cache[(i, j)]

    for (i, j, t), a in side.items():
        phi[a] = geodesic1(i, j)[t]

    aux_ids = sorted((a for a in range(len(g.labels))
                      if g.klass[a] == AUXILIARY), key=lambda a: g.labels[a])
    path_vertices: Dict[Tuple[int, int], List[int]] = {}
    for i, j in surviving:
        d = D[i][j]
        verts = [i] + [side[(i, j, t)] for t in range(1, d)] + [j]
        path_vertices[(i, j)] = verts
    if order_seed is not None:
        Random(order_seed + 1).shuffle(aux_ids)

    added: Set[Tuple[int, int]] = set()
    for a in aux_ids:
        for pair in surviving:
            verts = path_vertices[pair]
            if a in verts:
                continue
            best = min(d1[phi[a]][phi[y]] for y in verts)
            if best >= B:
                continue
            for y in verts:
                if d1[phi[a]][phi[y]] != best:
                    continue
                key = (min(a, y), max(a, y))
                if key in added:
                    continue
                added.add(key)
                if best == 0:
                    g.union(a, y)
                elif best == 1 and g.find(y) in g.neighbours(g.find(a)):
                    continue
                else:
                    la, ly = sorted((g.labels[a], g.labels[y]))
                    g.chain(a, y, best, NEGLIGIBLE, "b:%s&%s" % (la, ly))

    dpp = 240 * dp ** 3 + 64 * dp ** 2 + 48 * delta ** 2 + 8 * H + 8 * dp + 2
    cert = {
        "stage": "two",
        "delta": str(delta),
        "delta_prime": str(dp),
        "H": str(H),
        "H_measured": str(H_measured),
        "B": str(B),
        "delta_bound": str(dpp),
        "geodesic": "yes",
        "qg_mult": str(4 * dp),
        "qg_add": str(240 * dp ** 3 + 108 * dp ** 2),
        "qg_add_variant": str(240 * dp ** 3 + 60 * dp ** 2 + 48 * delta ** 2),
        "long_short_k": str(30 * dp ** 2),
    }
    out = g.finish({}, cert)
    _verify_stage(out, space, D, chords_expected=False)
    unit = out.unit_adjacency()
    t2 = _unit_all_pairs(len(out.labels), unit)
    for i, j in combinations(range(n), 2):
        if t2[i][j] < 0:
            raise ConstructionError("completion graph is not connected")
        lo, hi = D[i][j], tau_max(D[i][j], delta)
        if not lo <= t2[i][j] <= hi:
            raise ConstructionError(
                "derived distance %d for (%s, %s) escapes [%d, %d]"
                % (t2[i][j], out.labels[i], out.labels[j], lo, hi))
    return out


def hausdorff_const(g1: CompletionGraph, g2: CompletionGraph) -> int:
    """Worst Hausdorff gap, in the stage-one metric, between the canonical
    skeleton path of stage two and the stage-one geodesic, over all
    essential pairs."""
    n = g1.essential_count()
    if g2.essential_count() != n or g1.labels[:n] != g2.labels[:n]:
        raise InputError("stage graphs disagree on essential vertices")
    unit1 = g1.unit_adjacency()
    d1 = _unit_all_pairs(len(g1.labels), unit1)
    unit2 = g2.unit_adjacency()
    d2 = _unit_all_pairs(len(g2.labels), unit2)

    lab_index1 = {lab: i for i, lab in enumerate(g1.labels)}
    geo_cache: Dict[Tuple[int, int], List[int]] = {}

    def geodesic1(i: int, j: int) -> List[int]:
        if (i, j) not in geo_cache:
            geo_cache[(i, j)] = _least_geodesic(unit1, d1[j], i, j)
        return geo_cache[(i, j)]

    def to_stage_one(v: int) -> int:
        if g2.klass[v] == ESSENTIAL:
            return lab_index1[g2.labels[v]]
        record = g2.provenance[v][0]
        body, t = record[2:].rsplit(":", 1)
        a, b = body.split("|", 1)
        return geodesic1(lab_index1[a], lab_index1[b])[int(t)]

    worst = 0
    for i, j in combinations(range(n), 2):
        if d2[i][j] < 0:
            raise ConstructionError("stage-two skeleton is not connected")
        image = [to_stage_one(v) for v in _least_geodesic(unit2, d2[j], i, j)]
        target = geodesic1(i, j)
        for a in image:
            worst = max(worst, min(d1[a][b] for b in target))
        for b in target:
            worst = max(worst, min(d1[b][a] for a in image))
    return worst


def extend_isometry(graph: CompletionGraph, pi: IsoPerm) -> IsoPerm:
    """Lift an isometry of the essential space to the whole completion.

    The lift maps each creation record through pi: a path vertex goes to
    the matching position on the image pair's path, a bridge interior to
    the matching position on the image bridge.  The result is verified
    as an isometry of the derived space.
    """
    n = graph.essential_count()
    if pi.space.labels != graph.labels[:n]:
        raise InputError("isometry acts on the wrong essential space")
    where: Dict[str, int] = {}
    for v, recs in enumerate(graph.provenance):
        for r in recs:
            where[r] = v
    eidx = {lab: i for i, lab in enumerate(pi.space.labels)}

    def image_of_path_record(record: str) -> str:
        body, t = record[2:].rsplit(":", 1)
        a, b = body.split("|", 1)
        ia, ib = eidx[pi.apply(a)], eidx[pi.apply(b)]
        d = int(pi.space.dist[ia][ib].coords[0])
        t = int(t)
        if ia < ib:
            return _aux_label(pi.space.labels[ia], pi.space.labels[ib], t)
        return _aux_label(pi.space.labels[ib], pi.space.labels[ia], d - t)

    # bridge chains, grouped by their endpoint labels
    bridge_len: Dict[Tuple[str, str], int] = {}
    for v, recs in enumerate(graph.provenance):
        if graph.klass[v] != NEGLIGIBLE:
            continue
        body, _ = recs[0][2:].rsplit(":", 1)
        u, w = body.split("&", 1)
        bridge_len[(u, w)] = bridge_len.get((u, w), 0) + 1

    def image_record(record: str) -> str:
        if record.startswith("p:"):
            return image_of_path_record(record)
        if record.startswith("b:"):
            body, t = record[2:].rsplit(":", 1)
            u, w = body.split("&", 1)
            iu = image_of_aux_label(u)
            iw = image_of_aux_label(w)
            lu, lw = sorted((iu, iw))
            if (lu, lw) == (iu, iw):
                return "b:%s&%s:%s" % (lu, lw, t)
            return "b:%s&%s:%d" % (lu, lw, bridge_len[(u, w)] + 1 - int(t))
        return pi.apply(record)

    def image_of_aux_label(label: str) -> str:
        if label.startswith("p:"):
            return graph.labels[where[image_of_path_record(label)]]
        return pi.apply(label)

    perm = [-1] * len(graph.labels)
    for v, recs in enumerate(graph.provenance):
        targets = set()
        for r in recs:
            img = image_record(r)
            if img not in where:
                raise ConstructionError("no image vertex for record %r" % r)
            targets.add(where[img])
        if len(targets) != 1:
            raise ConstructionError("records of %r map to several vertices"
                                    % (graph.labels[v],))
        perm[v] = targets.pop()
    try:
        return IsoPerm(graph.derived_space(), perm)
    except InputError as exc:
        raise ConstructionError("lifted map is not an isometry: %s" % exc) from exc


def write_cg(graph: CompletionGraph) -> str:
    lines = ["completion %d %d" % (len(graph.labels), len(graph.edges))]
    for i, lab in enumerate(graph.labels):
        lines.append("v %d %s %s" % (i, graph.klass[i],
                                     " ".join(graph.provenance[i])))
    for u, v, w in graph.edges:
        lines.append("e %d %d %d" % (u, v, w))
    lines.append("certificate %d" % len(graph.certificate))
    for key in sorted(graph.certificate):
        lines.append("c %s %s" % (key, graph.certificate[key]))
    return "\n".join(lines) + "\n"
