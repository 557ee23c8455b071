"""Geodesic completion of finite integer-distance spaces.

Two constructions.  Stage one inserts a discrete geodesic between every
pair of points that is not already split by a between-point, then
repairs thinness by bridging auxiliary vertices that tripod projections
force close together.  Stage two rebuilds the space from its longest
pairs downward, dropping any pair that can be routed around a strict
between-point, and finally reattaches every stray auxiliary vertex to
the surviving skeleton by short bridges measured in the stage-one graph.

Stage two's midpoint check, ``midpoints`` and its pair removal read one
table of each pair's 2*delta-central points; its stretch bound
``tau_max`` is a closed form.

Both outputs are graphs whose path metric is geodesic by construction:
every edge is a unit edge except the bookkeeping chords of stage one,
which restate input distances that unit paths already realize.  So the
path metric of an output is its unit-edge distance table, which the
output builds one row per source a step reads and keeps, as it keeps
its unit adjacency and its least geodesics.
"""

from collections import deque
from functools import cached_property, lru_cache
from itertools import combinations
from random import Random
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .errors import ConstructionError, InputError, quoted
from .geodspace import DisjointSets, _Masks, _space_masks, distances_from
from .isometry import IsoPerm
from .lspace import (FiniteLambdaSpace, _bits, _rank_one_space, require_four_point,
                     require_metric)
from .ordgroup import LexElem, Packing

ESSENTIAL = "essential"
AUXILIARY = "auxiliary"
NEGLIGIBLE = "negligible"

_CLASS_RANK = {ESSENTIAL: 0, AUXILIARY: 1, NEGLIGIBLE: 2}


class CompletionGraph:
    """A completion output: labelled weighted graph plus a certificate.

    Vertices carry a class and the records that created them; a vertex
    created several times over (identified copies) keeps every record.
    Edge weights are unit except for stage-one chords, which restate
    the input distance between two essential vertices.
    """

    def __init__(self, labels: Tuple[str, ...], klass: Tuple[str, ...],
                 provenance: Tuple[Tuple[str, ...], ...],
                 edges: Tuple[Tuple[int, int, int], ...],
                 certificate: Dict[str, str]):
        self.labels = labels
        self.klass = klass
        self.provenance = provenance
        self.edges = edges
        self.certificate = certificate
        self._rows: Dict[int, List[int]] = {}
        self._geodesics: Dict[Tuple[int, int], List[int]] = {}

    def essential_count(self) -> int:
        return self.klass.count(ESSENTIAL)

    @cached_property
    def unit_adjacency(self) -> List[Dict[int, int]]:
        """Unit-edge neighbours, ascending, each at weight 1; built once."""
        nb: List[List[int]] = [[] for _ in self.labels]
        for u, v, w in self.edges:
            if w == 1:
                nb[u].append(v)
                nb[v].append(u)
        return [dict.fromkeys(sorted(row), 1) for row in nb]

    def unit_row(self, src: int) -> List[int]:
        """Unit-edge distances from src, -1 where there is no path; built
        once per source and kept."""
        row = self._rows.get(src)
        if row is None:
            row = self._rows[src] = distances_from(self.unit_adjacency, src)
        return row

    def least_geodesic(self, src: int, dst: int) -> List[int]:
        """The unit-edge geodesic from src to dst that always steps to the
        least index; built once per pair and kept."""
        path = self._geodesics.get((src, dst))
        if path is None:
            dist_to = self.unit_row(dst)
            if dist_to[src] < 0:
                raise ConstructionError("no path between %d and %d" % (src, dst))
            path = [src]
            while path[-1] != dst:
                path.append(min(v for v in self.unit_adjacency[path[-1]]
                                if dist_to[v] == dist_to[path[-1]] - 1))
            self._geodesics[(src, dst)] = path
        return path

    def derived_space(self) -> FiniteLambdaSpace:
        table = [self.unit_row(src) for src in range(len(self.labels))]
        if -1 in table[0]:
            raise ConstructionError("completion graph is not connected")
        for u, v, w in self.edges:
            # a chord shorter than the unit path would make the path
            # metric differ from the unit-edge table
            if w < table[u][v]:
                raise ConstructionError(
                    "edge %s-%s of weight %d undercuts the unit distance %d"
                    % (self.labels[u], self.labels[v], w, table[u][v]))
        return _rank_one_space(self.labels, table)


def _input_masks(space: FiniteLambdaSpace) -> _Masks:
    """The sphere masks of a checked input, whose int table is ``.D``."""
    if space.rank != 1 or space.domain != "Z":
        raise InputError("completion needs integer distances (rank-1 Z table)")
    for lab in space.labels:
        # created vertices encode their origin in the label, so the
        # record separators cannot appear in input labels
        if any(c in lab for c in "|:&"):
            raise InputError("label %s uses a reserved character" % quoted(lab))
    require_metric(space)
    return _space_masks(space)


def _require_delta(space: FiniteLambdaSpace, delta: int) -> None:
    if delta < 0:
        raise InputError("delta must be a natural number")
    require_four_point(space, LexElem((delta,)))


def _central_codes(space: FiniteLambdaSpace,
                   delta: LexElem) -> Tuple[List[List[int]], int]:
    # delta may exceed every entry, so it joins the packing; a mask test
    # is a signed sum of five codes, within the packing's headroom
    packing = Packing([e for row in space.dist for e in row] + [delta])
    table = [[packing.pack(e) for e in row] for row in space.dist]
    return table, 2 * packing.pack(delta)


@lru_cache(maxsize=1)
def _central_masks(space: FiniteLambdaSpace, delta: LexElem) -> List[List[int]]:
    """Bit v of T[x][y] is set when d(x,v) + d(v,y) <= d(x,y) + 2*delta, so
    a triple's 2*delta-central points are the AND of its pairs' masks.  The
    last table is kept: gamma2's pair loop reads the one check_RS built."""
    D, slack = _central_codes(space, delta)
    n = len(D)
    T = [[0] * n for _ in range(n)]
    for x, Dx in enumerate(D):
        for y in range(x, n):
            bound = Dx[y] + slack
            T[x][y] = T[y][x] = sum(1 << v for v, (a, b) in enumerate(zip(Dx, D[y]))
                                    if a + b <= bound)
    return T


def midpoints(space: FiniteLambdaSpace, x: str, y: str, z: str,
              delta: LexElem) -> Tuple[str, ...]:
    """Points v that are 2*delta-central for the triple x, y, z."""
    T = _central_masks(space, delta)
    x, y, z = space.index(x), space.index(y), space.index(z)
    return tuple(space.labels[v] for v in _bits(T[x][y] & T[x][z] & T[y][z]))


def check_RS(space: FiniteLambdaSpace,
             delta: LexElem) -> Tuple[bool, Optional[Tuple[str, str, str]]]:
    """Does every triple admit a 2*delta-central point?  The verdict, and
    the first triple in combinations order without one, or None.

    Triples with a repeated entry always do (the repeated point works),
    so only distinct triples are scanned.
    """
    L = space.labels
    failing = None
    if len(L) >= 3:  # fewer than three points never meet delta
        T = _central_masks(space, delta)
        failing = next(((L[x], L[y], L[z]) for x, y, z in combinations(range(len(L)), 3)
                        if not T[x][y] & T[x][z] & T[y][z]), None)
    return failing is None, failing


class MissingMidpoint(InputError):
    """``gamma2``'s refusal of a triple without a 2*delta-central point."""

    def __init__(self, triple: Tuple[str, str, str]):
        super().__init__("no 2*delta-central point for triple %r" % (triple,))
        self.triple = triple


def tau_max(n: int, delta: int) -> int:
    """Worst stretch of a length-n pair under repeated between-point splits.

    A pair of length k <= 2*delta is kept as is; otherwise it splits
    into two strictly shorter pairs whose lengths sum to at most
    k + 2*delta, and the stretch is the worst total over leaf pairs:
    n when delta = 0 or n <= 2*delta, and 4*delta*(n - 2*delta) above.
    """
    if n < 0 or delta < 0:
        raise InputError("tau_max needs natural arguments")
    if delta == 0 or n <= 2 * delta:
        return n
    return 4 * delta * (n - 2 * delta)


class _Builder:
    """Growing vertex/edge pool with identification support, seeded with
    the essential vertices of the input labels."""

    def __init__(self, essential: Sequence[str]) -> None:
        self.labels: List[str] = []
        self.klass: List[str] = []
        self.adj: List[Set[int]] = []
        # identified copies share a root: the stronger class, then the
        # lesser label
        self.sets = DisjointSets(
            (), key=lambda r: (_CLASS_RANK[self.klass[r]], self.labels[r], r))
        for lab in essential:
            self.add(lab, ESSENTIAL)

    def add(self, label: str, klass: str) -> int:
        i = len(self.labels)
        self.labels.append(label)
        self.klass.append(klass)
        self.adj.append(set())
        self.sets.add(i)
        return i

    def identify(self, i: int, j: int) -> None:
        joined = self.sets.union(i, j)
        if joined is not None:
            keep, drop = joined
            self.adj[keep] |= self.adj[drop]
            self.adj[drop] = set()

    def edge(self, u: int, v: int) -> None:
        self.adj[self.sets.find(u)].add(v)
        self.adj[self.sets.find(v)].add(u)

    def chain(self, u: int, v: int, length: int, klass: str,
              label_stub: str) -> List[int]:
        """Join u to v by `length` unit edges; return u, the new interior
        vertices and v, in path order."""
        path = [u]
        for t in range(1, length):
            w = self.add("%s:%d" % (label_stub, t), klass)
            self.edge(path[-1], w)
            path.append(w)
        self.edge(path[-1], v)
        path.append(v)
        return path

    def neighbours(self, root: int) -> Set[int]:
        return {self.sets.find(w) for w in self.adj[root]}

    def connected(self, u: int, v: int, limit: int) -> bool:
        src, dst = self.sets.find(u), self.sets.find(v)
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
            groups.setdefault(self.sets.find(i), []).append(i)
        # essential vertices first, in creation order; they are never
        # identified with one another, so this keeps input indices stable.
        # A root is its class's least member by (class rank, label, index).
        def group_key(root: int) -> Tuple[int, int, str]:
            if self.klass[root] == ESSENTIAL:
                return (0, root, "")
            return (_CLASS_RANK[self.klass[root]], -1, self.labels[root])

        roots = sorted(groups, key=group_key)
        final_of: Dict[int, int] = {}
        labels, klass, prov = [], [], []
        for f, root in enumerate(roots):
            members = sorted(groups[root], key=self.sets.key)
            final_of[root] = f
            labels.append(self.labels[root])
            klass.append(self.klass[root])
            prov.append(tuple(self.labels[m] for m in members))
        edges: Set[Tuple[int, int, int]] = set()
        for root in roots:
            fu = final_of[root]
            for w in self.adj[root]:
                fv = final_of[self.sets.find(w)]
                if fu != fv:
                    edges.add((min(fu, fv), max(fu, fv), 1))
        for (i, j), w in chords.items():
            fu = final_of[self.sets.find(i)]
            fv = final_of[self.sets.find(j)]
            if fu != fv:
                edges.add((min(fu, fv), max(fu, fv), w))
        return CompletionGraph(tuple(labels), tuple(klass), tuple(prov),
                               tuple(sorted(edges)), certificate)


def _aux_stub(li: str, lj: str) -> str:
    return "p:%s|%s" % (li, lj)


def _aux_label(li: str, lj: str, t: int) -> str:
    return "%s:%d" % (_aux_stub(li, lj), t)


def _bridge_stub(lu: str, lw: str) -> str:
    return "b:%s&%s" % (lu, lw)


def _record_parts(record: str) -> Tuple[str, str, int]:
    """The two ends and the step of a creation record: p:a|b:t for step t
    of the path from a to b, b:u&w:t for step t of the bridge from u to w."""
    body, t = record[2:].rsplit(":", 1)
    a, b = body.split("|" if record.startswith("p:") else "&", 1)
    return a, b, int(t)


def gamma1(space: FiniteLambdaSpace, delta: int,
           order_seed: Optional[int] = None) -> CompletionGraph:
    """Stage-one completion: fill in geodesics, then bridge thin tripods.

    The output records the input metric on essential pairs both through
    unit paths and through weight-d chords; a mismatch between the two
    would mean an illegal shortcut and aborts the construction.
    """
    M = _input_masks(space)
    _require_delta(space, delta)
    return _stage_one(space, M, delta, order_seed)


def _stage_one(space: FiniteLambdaSpace, M: _Masks, delta: int,
               order_seed: Optional[int]) -> CompletionGraph:
    # gamma1 after its input checks, which gamma2 has already made
    D = M.D
    n = len(space)
    g = _Builder(space.labels)

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
        # a pair with no point strictly between it gets a path
        if d == 1 or not M.between(i, j) & ~(1 << i | 1 << j):
            path = g.chain(i, j, d, AUXILIARY,
                           _aux_stub(space.labels[i], space.labels[j]))
            for t in range(1, d):
                side[(i, j, t)] = path[t]

    # side holds the interiors of the auxiliary paths, so an end of a
    # pair, at t = 0 or t = d, is never found there
    def side_vertex(c: int, a: int, t: int) -> Optional[int]:
        return side.get((c, a, t) if c < a else (a, c, D[c][a] - t))

    span = 4 * delta
    for x, y, z in triples:
        for c, a, b in ((x, y, z), (y, x, z), (z, x, y)):
            insize = (D[c][a] + D[c][b] - D[a][b]) // 2
            for t in range(1, insize + 1):
                u = side_vertex(c, a, t)
                v = side_vertex(c, b, t)
                if u is None or v is None:
                    continue
                if delta == 0:
                    g.identify(u, v)
                elif not g.connected(u, v, span):
                    lu, lv = sorted((g.labels[u], g.labels[v]))
                    g.chain(u, v, span, NEGLIGIBLE, _bridge_stub(lu, lv))

    cert = {
        "stage": "one",
        "delta": str(delta),
        "delta_bound": str(29 * delta),
        "geodesic": "yes",
    }
    out = g.finish(chords, cert)
    _verify_stage(out, space, D, lambda d: d)
    return out


def _verify_stage(out: CompletionGraph, space: FiniteLambdaSpace,
                  D: Sequence[Sequence[int]], upper: Callable[[int], int]) -> None:
    """Check a stage's graph: an essential pair at d comes out in [d, upper(d)]."""
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
    unit = out.unit_adjacency
    for i, c in enumerate(out.klass):
        if c == NEGLIGIBLE and len(unit[i]) != 2:
            raise ConstructionError("bridge interior %r has degree %d"
                                    % (out.labels[i], len(unit[i])))
    for i, j in combinations(range(n), 2):
        dij = out.unit_row(i)[j]
        lo, hi = D[i][j], upper(D[i][j])
        if not lo <= dij <= hi:
            raise ConstructionError(
                "derived distance %d for (%s, %s) escapes [%d, %d]"
                % (dij, out.labels[i], out.labels[j], lo, hi))
    # the unit graph is connected exactly when vertex 0 reaches every vertex
    if -1 in out.unit_row(0):
        raise ConstructionError("completion graph is not connected")


def gamma2(space: FiniteLambdaSpace, delta: int, cap: Optional[int] = None,
           order_seed: Optional[int] = None) -> CompletionGraph:
    """Stage-two completion: keep only unsplittable pairs, then re-anchor.

    With ``cap`` below the diameter, returns the intermediate graph
    holding the surviving paths among pairs of distance at most cap
    (no bridges, no certificate beyond the stage marker); successive
    caps grow monotonically, which the tests rely on.
    """
    M = _input_masks(space)
    D = M.D
    _require_delta(space, delta)
    ok, failing = check_RS(space, LexElem((delta,)))
    if not ok:
        raise MissingMidpoint(failing)
    n = len(space)
    diam = max((D[i][j] for i, j in combinations(range(n), 2)), default=0)
    full = cap is None or cap >= diam
    if cap is None:
        cap = diam

    g1 = _stage_one(space, M, delta, order_seed)

    g = _Builder(space.labels)

    pairs = [(i, j) for i, j in combinations(range(n), 2) if 1 <= D[i][j] <= cap]
    pairs.sort(key=lambda p: (D[p[0]][p[1]], p))
    if order_seed is not None:
        Random(order_seed).shuffle(pairs)

    # the path of each surviving pair, in path order
    paths: Dict[Tuple[int, int], List[int]] = {}
    T = _central_masks(space, LexElem((delta,)))
    near = [ball[min(2 * delta, diam)] for ball in M.ball]
    for i, j in pairs:
        d = D[i][j]
        if d >= 2 and M.between(i, j) & ~(1 << i | 1 << j):
            # an essential vertex splits the pair exactly, so its halves
            # carry the distance; a fresh basic path would keep geodesic
            # inputs from coming back unchanged
            continue
        # a 2*delta-central point of a triple (i, j, z) that lies farther
        # than 2*delta from both ends removes the pair; z in {i, j} adds
        # nothing, since T[i][i] holds only points within delta of i
        far = T[i][j] & ~(near[i] | near[j])
        if any(far & T[i][z] & T[j][z] for z in range(n)):
            continue
        paths[(i, j)] = g.chain(i, j, d, AUXILIARY,
                                _aux_stub(space.labels[i], space.labels[j]))
    surviving = sorted(paths, key=lambda p: (D[p[0]][p[1]], p))

    partial = g.finish({}, {"stage": "two-partial", "delta": str(delta),
                            "cap": str(cap)})
    if not full:
        return partial
    # connectivity of the skeleton: every removed pair refines through
    # strictly closer witnesses, so the survivors must already connect
    if -1 in partial.unit_row(0):
        raise ConstructionError("completion graph is not connected")

    H = hausdorff_const(g1, partial)
    dp = 29 * delta
    B = 2 * H + 2 * dp

    # each path vertex sits over the vertex at the same step of the least
    # stage-one geodesic of its pair
    phi: Dict[int, int] = {i: i for i in range(n)}
    for (i, j), verts in paths.items():
        phi.update(zip(verts, g1.least_geodesic(i, j)))

    aux_ids = sorted((a for a in range(len(g.labels))
                      if g.klass[a] == AUXILIARY), key=lambda a: g.labels[a])
    if order_seed is not None:
        Random(order_seed + 1).shuffle(aux_ids)

    added: Set[Tuple[int, int]] = set()
    for a in aux_ids:
        d1 = g1.unit_row(phi[a])
        for pair in surviving:
            verts = paths[pair]
            if a in verts:
                continue
            best = min(d1[phi[y]] for y in verts)
            if best >= B:
                continue
            for y in verts:
                if d1[phi[y]] != best:
                    continue
                key = (min(a, y), max(a, y))
                if key in added:
                    continue
                added.add(key)
                if best == 0:
                    g.identify(a, y)
                elif best == 1 and g.sets.find(y) in g.neighbours(g.sets.find(a)):
                    continue
                else:
                    la, ly = sorted((g.labels[a], g.labels[y]))
                    g.chain(a, y, best, NEGLIGIBLE, _bridge_stub(la, ly))

    dpp = 240 * dp ** 3 + 64 * dp ** 2 + 48 * delta ** 2 + 8 * H + 8 * dp + 2
    cert = {
        "stage": "two",
        "delta": str(delta),
        "delta_prime": str(dp),
        "H": str(H),
        "H_measured": str(H),
        "B": str(B),
        "delta_bound": str(dpp),
        "geodesic": "yes",
        "qg_mult": str(4 * dp),
        "qg_add": str(240 * dp ** 3 + 108 * dp ** 2),
        "qg_add_variant": str(240 * dp ** 3 + 60 * dp ** 2 + 48 * delta ** 2),
        "long_short_k": str(30 * dp ** 2),
    }
    out = g.finish({}, cert)
    _verify_stage(out, space, D, lambda d: tau_max(d, delta))
    return out


def hausdorff_const(g1: CompletionGraph, g2: CompletionGraph) -> int:
    """Worst Hausdorff gap, in the stage-one metric, between the canonical
    skeleton path of stage two and the stage-one geodesic, over all
    essential pairs."""
    n = g1.essential_count()
    if g2.essential_count() != n or g1.labels[:n] != g2.labels[:n]:
        raise InputError("stage graphs disagree on essential vertices")
    lab_index1 = {lab: i for i, lab in enumerate(g1.labels)}

    def to_stage_one(v: int) -> int:
        if g2.klass[v] == ESSENTIAL:
            return lab_index1[g2.labels[v]]
        a, b, t = _record_parts(g2.provenance[v][0])
        return g1.least_geodesic(lab_index1[a], lab_index1[b])[t]

    worst = 0
    for i, j in combinations(range(n), 2):
        if g2.unit_row(i)[j] < 0:
            raise ConstructionError("stage-two skeleton is not connected")
        image = [to_stage_one(v) for v in g2.least_geodesic(i, j)]
        # the metric is symmetric, so rows of the target serve both ways
        rows = [g1.unit_row(b) for b in g1.least_geodesic(i, j)]
        for a in image:
            worst = max(worst, min(row[a] for row in rows))
        for row in rows:
            worst = max(worst, min(row[a] for a in image))
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
        a, b, t = _record_parts(record)
        ia, ib = eidx[pi.apply(a)], eidx[pi.apply(b)]
        d = int(pi.space.dist[ia][ib].coords[0])
        if ia < ib:
            return _aux_label(pi.space.labels[ia], pi.space.labels[ib], t)
        return _aux_label(pi.space.labels[ib], pi.space.labels[ia], d - t)

    # bridge chains, grouped by their endpoint labels
    bridge_len: Dict[Tuple[str, str], int] = {}
    for v, recs in enumerate(graph.provenance):
        if graph.klass[v] != NEGLIGIBLE:
            continue
        u, w, _ = _record_parts(recs[0])
        bridge_len[(u, w)] = bridge_len.get((u, w), 0) + 1

    def image_record(record: str) -> str:
        if record.startswith("p:"):
            return image_of_path_record(record)
        if record.startswith("b:"):
            u, w, t = _record_parts(record)
            iu = image_of_aux_label(u)
            iw = image_of_aux_label(w)
            if iu > iw:
                # the image bridge runs the other way
                iu, iw, t = iw, iu, bridge_len[(u, w)] + 1 - t
            return "%s:%d" % (_bridge_stub(iu, iw), t)
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
