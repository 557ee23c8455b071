"""Finite metric spaces with distances in Z^n or Q^n.

Distances are exact group elements; hyperbolicity constants live in the
divisible hull and are reported as exact fractions.  A table holds few
distinct values, so each is handled once: ``read_lms`` parses each
distinct token once and shares its element, and a space checks each
distinct element object once and packs it into an int once; over
rank-one Z the code is the distance itself, so a space made from a
graph's table of ints takes that table as its packed table.  Every kernel
runs on one table of ints per space, packed by ``ordgroup.Packing`` for
every rank and both domains and unpacked only for results.  The triple
condition at basepoint w, less d(x,w)+d(y,w)+d(z,w) on both sides, is the
four-point condition (Gromov 1987, 1.1), so one quadruple scan yields
every constant.  ``defect_scan`` tests pairs against the running largest
triple defect, for one basepoint here and, over the known products, for a
length function at the identity in ``lenfun``: by threshold bitmasks, or
by skipping each pair that the two rows' largest entries rule out and
walking the few left down one row's sorted columns.  The largest
basepoint constant is the four-point one (Fournier, Ismail and Vigneron,
IPL 2015), so from ``_SWEEP_FROM`` points on one scan per basepoint
replaces the C(n,4) quadruple scan where the first basepoint's scan shows
that the row maxima rule out most pairs.  Every scan runs in this
process.
"""

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import add
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import ConstructionError, InputError, int_token, quoted
from .ordgroup import LexElem, Packing, QLexElem, distinct, parse_lex


class FiniteLambdaSpace:
    """A finite point set with a symmetric distance table over Z^n or Q^n."""

    __slots__ = ("labels", "dist", "domain", "_index", "_packing", "_packed")

    def __init__(self, labels: Sequence[str], dist: Sequence[Sequence[LexElem]], domain: str = "Z"):
        labels = tuple(str(s) for s in labels)
        if not labels:
            raise InputError("need at least one point")
        if len(set(labels)) != len(labels):
            raise InputError("duplicate point labels")
        if len(dist) != len(labels) or any(len(row) != len(labels) for row in dist):
            raise InputError("distance table is not %d x %d" % (len(labels), len(labels)))
        rank = None
        # a repeated object passes or fails where it first appears
        for e in distinct(chain.from_iterable(dist)):
            if not isinstance(e, LexElem) or e.domain != domain:
                raise InputError("table entry %r not in the declared group" % (e,))
            if rank is None:
                rank = e.rank
            elif e.rank != rank:
                raise InputError("mixed ranks in distance table")
        self.labels = labels
        self.dist = tuple(tuple(row) for row in dist)
        self.domain = domain
        self._index = {s: i for i, s in enumerate(labels)}
        self._packing = None
        self._packed = None

    @property
    def rank(self) -> int:
        return self.dist[0][0].rank if self.dist else 1

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, point) -> int:
        if isinstance(point, int):
            if not 0 <= point < len(self.labels):
                raise InputError("point index %d out of range" % (point,))
            return point
        try:
            return self._index[point]
        except KeyError:
            raise InputError("unknown point %r" % (point,)) from None

    def d(self, x, y) -> LexElem:
        return self.dist[self.index(x)][self.index(y)]

    def packed_table(self) -> Tuple[Tuple[int, ...], ...]:
        """The distance table packed by one Packing of all its entries.

        Built on first use and shared by every caller; a space made by
        ``_rank_one_space`` holds it from the start.
        """
        if self._packed is None:
            elems = distinct(chain.from_iterable(self.dist))
            packing = Packing(elems)
            # each distinct element is packed once and its code shared
            code = {id(e): packing.pack(e) for e in elems}.__getitem__
            self._packed = tuple(tuple(map(code, map(id, row))) for row in self.dist)
            self._packing = packing
        return self._packed

    def unpack(self, code: int) -> LexElem:
        """The element that a signed sum of packed entries stands for, with
        int coordinates over Z."""
        self.packed_table()
        return self._packing.unpack(code)


def _rank_one_space(labels: Tuple[str, ...],
                    table: Sequence[Sequence[int]]) -> FiniteLambdaSpace:
    """The rank-one Z space of a square table of ints, as a graph gives it.

    Over rank-one Z the code of an element is its coordinate, so the
    table, as tuples, is the space's packed table from the start.  One
    LexElem per distinct value is shared by the entries holding it; being
    made here, the entries skip the constructor's check.
    """
    if len(set(labels)) != len(labels):
        raise InputError("duplicate point labels")
    packed = tuple(map(tuple, table))
    lex = {d: LexElem((d,), "Z") for d in set().union(*packed)}
    X = FiniteLambdaSpace.__new__(FiniteLambdaSpace)
    X.labels = labels
    X.dist = tuple(tuple(map(lex.__getitem__, row)) for row in packed)
    X.domain = "Z"
    X._index = {s: i for i, s in enumerate(labels)}
    X._packing = Packing(lex.values())
    X._packed = packed
    return X


class ValidationReport(NamedTuple):
    ok: bool
    axiom: Optional[str] = None
    witness: Tuple[str, ...] = ()

    def __str__(self):
        # the failed axiom at its points, as in "LM3 at p,q"
        if self.ok:
            return "metric ok"
        return "%s at %s" % (self.axiom, ",".join(self.witness))


@lru_cache(maxsize=1)
def validate_metric(X: FiniteLambdaSpace) -> ValidationReport:
    """Check nonnegativity, identity of indiscernibles, symmetry, triangle.

    The last space's report is kept, so a caller that validates and then
    asks for the four-point report validates once."""
    n = len(X)
    P = X.packed_table()
    labels = X.labels
    # each axiom is tested on whole rows first and located only if it fails
    if min(map(min, P)) < 0:
        i, j = next((i, j) for i in range(n) for j in range(n) if P[i][j] < 0)
        return ValidationReport(False, "LM1", (labels[i], labels[j]))
    for i, Pi in enumerate(P):
        if Pi[i] != 0 or Pi.count(0) != 1:
            j = next(j for j in range(n) if (i == j) != (Pi[j] == 0))
            return ValidationReport(False, "LM2", (labels[i], labels[j]))
    if tuple(zip(*P)) != P:
        i, j = next((i, j) for i in range(n) for j in range(i + 1, n) if P[i][j] != P[j][i])
        return ValidationReport(False, "LM3", (labels[i], labels[j]))
    # the table is symmetric by now, so row j holds d(k, j), and (j, i)
    # violates the triangle exactly when (i, j) does; the diagonal, 0
    # under non-negative sums, never does
    for i in range(n):
        Pi = P[i]
        for j in range(i + 1, n):
            dij = Pi[j]
            Pj = P[j]
            if min(map(add, Pi, Pj)) < dij:
                k = next(k for k in range(n) if Pi[k] + Pj[k] < dij)
                return ValidationReport(False, "LM4", (labels[i], labels[j], labels[k]))
    return ValidationReport(True)


def gromov_product(X: FiniteLambdaSpace, x, y, v) -> QLexElem:
    """(x . y)_v = (d(x,v) + d(y,v) - d(x,y)) / 2, in the divisible hull."""
    i, j, k = X.index(x), X.index(y), X.index(v)
    return QLexElem(X.dist[i][k] + X.dist[j][k] - X.dist[i][j], 2)


def min_delta_at(X: FiniteLambdaSpace, v) -> QLexElem:
    return min_delta_at_witness(X, v)[0]


def _bits(mask: int) -> Iterator[int]:
    """The points of a mask, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def level_masks(row: Sequence[int], cols: Iterable[int]) -> Tuple[List[int], List[int]]:
    """The distinct values of row over the columns cols, increasing, and
    for each the bitmask of those columns at or above it, with 0 appended
    past the top: the columns above a threshold t are
    ``masks[bisect_right(values, t)]``.  A row holds few distinct values,
    so the columns are gathered by value and only the values sorted."""
    at = {}
    get = at.get
    for t in cols:
        x = row[t]
        at[x] = get(x, 0) | 1 << t
    values = sorted(at)
    masks = [0] * (len(values) + 1)
    mask = 0
    for i in range(len(values) - 1, -1, -1):
        mask |= at[values[i]]
        masks[i] = mask
    return values, masks


def defect_scan(D, partners: Sequence[Iterable[int]], masks=None,
                top: Optional[Sequence[int]] = None, limit: Optional[int] = None):
    """The largest pair defect max_k min{D[i][k], D[j][k]} - D[i][j] over
    the pairs (i, j) with j in partners[i] and their columns k: (best,
    pair), with best -1 and pair None when no defect is >= 0.  A pair
    beats the running best exactly when some column k holds D[i][k] and
    D[j][k] above bar = best + D[i][j].  Give one of

    - masks, the rows' ``level_masks`` over their columns: a pair is
      tested by the two rows' masks of the columns above bar, and its
      defect taken over the columns where they meet, which hold the
      largest;
    - top, where top[i] bounds every entry of row i that can be such a
      column, as the caller shows: a pair is skipped unless bar is below
      both top[i] and top[j], and one that gets through walks every
      column of row i from its largest entry down, the row sorted when
      first needed, until an entry is at or below bar or the largest
      min{D[i][k], D[j][k]} found.  Past limit such pairs the scan gives
      up and returns None.

    Only a strictly larger defect replaces the best, so pair is the first
    to reach it.
    """
    best, pair = -1, None
    if masks:
        levels, above = masks
        for i, js in enumerate(partners):
            Di, li, ai = D[i], levels[i], above[i]
            for j in js:
                bar = best + Di[j]
                hit = ai[bisect_right(li, bar)] & above[j][bisect_right(levels[j], bar)]
                if hit:
                    Dj = D[j]
                    best = max([min(Di[k], Dj[k]) for k in _bits(hit)]) - Di[j]
                    pair = i, j
        return best, pair
    left = len(D) ** 2 if limit is None else limit
    for i, js in enumerate(partners):
        Di, ti = D[i], top[i]
        order = None
        for j in js:
            bar = best + Di[j]
            if bar < ti and bar < top[j]:
                left -= 1
                if left < 0:
                    return None
                if order is None:
                    order = sorted(range(len(Di)), key=Di.__getitem__, reverse=True)
                Dj, t = D[j], bar
                for k in order:
                    a = Di[k]
                    if a <= t:
                        break
                    b = Dj[k]
                    if b > t:
                        t = a if a < b else b
                if t > bar:
                    best, pair = t - Di[j], (i, j)
    return best, pair


def min_delta_at_witness(X: FiniteLambdaSpace, v) -> Tuple[QLexElem, Tuple[str, str, str]]:
    """Least delta making the triple condition at basepoint v hold.

    Scans ordered triples in index order; the witness is the first
    maximizing triple (x,y,z) of the defect min{(x.z)_v,(z.y)_v}-(x.y)_v.
    The defect is symmetric in x and y, so the first maximizing pair in
    index order has i <= j, and only those pairs go to ``defect_scan``,
    over every column.  The pair i == j has defect >= 0, so the constant
    is never negative.
    """
    P = X.packed_table()
    v = X.index(v)
    best, pair = _basepoint_scan(P, v, tuple(zip(*P)) == P)
    return QLexElem(X.unpack(best), 2), _triple(X, v, best, pair)


def _triple(X: FiniteLambdaSpace, v: int, best: int, pair: Tuple[int, int]
            ) -> Tuple[str, str, str]:
    """The first witness triple at basepoint v, from ``_basepoint_scan``'s
    best and pair (i, j) there: its third point is the first k with
    min{D[i][k], D[j][k]} = best + D[i][j], and only rows i and j of D
    are built."""
    P = X.packed_table()
    i, j = pair
    dv = [row[v] for row in P]
    Di, Dj = ([dv[x] + b - c for b, c in zip(dv, P[x])] for x in pair)
    target = best + Di[j]
    k = next(k for k in range(len(P)) if min(Di[k], Dj[k]) == target)
    return X.labels[i], X.labels[j], X.labels[k]


def _basepoint_scan(P, v: int, symmetric: bool, masks: bool = False,
                    limit: Optional[int] = None):
    """``defect_scan`` at basepoint v of the packed table P, over the pairs
    i <= j and every column of D, where D[x][y] = 2(x.y)_v: (best, pair),
    best being twice the constant at v, or None past limit pairs walked.
    With ``masks`` every pair is tested by level masks instead, and top is
    not needed.

    top[i] is the largest entry of row i off its diagonal, which bounds
    every column k of a pair (i, j) but i and j.  Column j can beat the
    best only if D[i][j] > best + D[i][j], and column i only if D[j][i] >
    best + D[i][j]; on a symmetric table both need best < 0.  The first
    pair, (0, 0), leaves best >= 0, its defect being at least min{D[0][0],
    D[0][0]} - D[0][0] = 0.  So row 0, and every row of a table that is
    not symmetric, takes its diagonal into top.
    """
    n = len(P)
    dv = [row[v] for row in P]
    D = [[a + b - c for b, c in zip(dv, Pa)] for a, Pa in zip(dv, P)]
    pairs = [range(i, n) for i in range(n)]
    if masks:
        return defect_scan(D, pairs, tuple(zip(*map(level_masks, D, [range(n)] * n))))
    top = []
    for i, Di in enumerate(D):
        d = Di[i]
        if symmetric:
            # Di[0] stands in for the diagonal, which row 0 so keeps
            Di[i] = Di[0]
        top.append(max(Di))
        Di[i] = d
    return defect_scan(D, pairs, top=top, limit=limit)


def min_delta_triple(X: FiniteLambdaSpace) -> QLexElem:
    """Least delta for the triple condition at every basepoint: the four-point one."""
    return min_delta_4pt(X)


_PAIRINGS = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))


def _scan_quads_num(raw, idxs, n):
    """Four-point scan over first indices idxs of a packed table: the largest
    defect, its first quadruple (i, j, k, l) in index order, and pm, where
    pm[v] is the largest defect of a scanned quadruple containing v, or 0."""
    pm = [0] * n
    best, wit = -1, None
    for i in idxs:
        di = raw[i]
        for j in range(i + 1, n - 2):
            dij = di[j]
            dj = raw[j]
            for k in range(j + 1, n - 1):
                dik = di[k]
                djk = dj[k]
                dk = raw[k]
                mk = -1
                for l in range(k + 1, n):
                    s1 = dij + dk[l]
                    s2 = dik + dj[l]
                    s3 = di[l] + djk
                    if s1 < s2:
                        s1, s2 = s2, s1
                    if s3 >= s1:
                        v = s3 - s1
                    elif s3 >= s2:
                        v = s1 - s3
                    else:
                        v = s1 - s2
                    # best >= mk throughout, so only a new mk can be a new best
                    if v > mk:
                        mk = v
                        if v > best:
                            best, wit = v, (i, j, k, l)
                    if v > pm[l]:
                        pm[l] = v
                for t in (i, j, k):
                    if mk > pm[t]:
                        pm[t] = mk
    return best, wit, pm


def _top_quad(P, pm):
    """(M, the first maximizing quadruple in index order) of the packed
    metric table P, where pm[v] is twice the constant at basepoint v and
    M, the largest, twice the four-point one.  A quadruple's defect is at
    most pm at each of its points, so every point of a maximizing
    quadruple has pm == M; the first such quadruple starts at p, the
    least point with pm == M, which lies on one, and takes its other three
    among the later points with pm == M: the quadruple scan over those
    points, at first index p, finds it.
    """
    best = max(pm)
    top = [v for v in range(len(P)) if pm[v] == best]
    sub = [[P[a][b] for b in top] for a in top]
    return best, tuple(top[t] for t in _scan_quads_num(sub, (0,), len(top))[1])


# From _SWEEP_FROM points on, n basepoint scans may replace one quadruple
# scan: basepoint 0 walks at most n² / _WALKED_SHARE pairs where the table
# is swept by walking, and from _MASKS_FROM points on a table where more
# pairs get through keeps the sweep, its pairs tested by masks.  Time of
# _four_point over the quadruple scan below 64 points and over the mask
# sweep from 64 on, in one process, best of 9, median of two seeds
# (scripts/bench_fourpoint.py, BENCH_fourpoint.json; tree+k is a tree
# with k more edges):
#
#     n     metric  Z^2   Z^3   cycle  tree  tree+1  tree+4
#     24    1.00    1.00  1.01  1.00   1.02  1.01    1.00
#     32    0.68    0.71  0.70  0.78   1.05  1.04    1.03
#     48    0.42    0.43  0.41  0.48   1.03  1.02    1.01
#     64    0.35    0.25  0.22  0.33   1.01  1.02    1.00
#     100   0.37    0.24  0.20  0.31   1.01  0.99    0.76
_SWEEP_FROM = 32
_MASKS_FROM = 64
_WALKED_SHARE = 16


def _four_point(X: FiniteLambdaSpace):
    """The four-point constant of X, its first witness in index order,
    pm, where pm[v] is twice the constant at basepoint v, and pairs, where
    pairs[v] is the first pair (i, j) to reach that constant at v, or None
    when no basepoint was scanned; all in this process.

    Below ``_SWEEP_FROM`` points one quadruple scan gives them.  From
    there on X must be a metric, and basepoint 0's scan, walking the pairs
    that get through the row maxima, picks the way: at most n² /
    ``_WALKED_SHARE`` such pairs and every basepoint is scanned so; more,
    as on trees, and the quadruple scan runs, or from ``_MASKS_FROM``
    points on every basepoint is scanned with its pairs tested by masks.
    pm[v] is then ``_basepoint_scan``'s constant at v, the largest is the
    four-point one, and ``_top_quad`` finds the witness.
    """
    n = len(X)
    if n < 4:
        return QLexElem.zero(X.rank, X.domain), None, [0] * n, None
    P = X.packed_table()
    scans = None
    if n >= _SWEEP_FROM:
        require_metric(X)
        first = _basepoint_scan(P, 0, True, limit=n * n // _WALKED_SHARE)
        if first is not None:
            scans = [first] + [_basepoint_scan(P, v, True) for v in range(1, n)]
        elif n >= _MASKS_FROM:
            scans = [_basepoint_scan(P, v, True, masks=True) for v in range(n)]
    if scans is None:
        pairs = None
        best, quad, pm = _scan_quads_num(P, range(n - 3), n)
    else:
        pm, pairs = map(list, zip(*scans))
        best, quad = _top_quad(P, pm)
    i, j, k, l = quad
    # the witness pairs first the two points of the first largest sum
    sums = (P[i][j] + P[k][l], P[i][k] + P[j][l], P[i][l] + P[j][k])
    witness = tuple(X.labels[quad[t]] for t in _PAIRINGS[sums.index(max(sums))])
    return QLexElem(X.unpack(best), 2), witness, pm, pairs


def min_delta_4pt(X: FiniteLambdaSpace, workers: Optional[int] = None) -> QLexElem:
    return min_delta_4pt_witness(X, workers)[0]


def require_metric(X: FiniteLambdaSpace) -> None:
    """Refuse a table that is not a metric."""
    report = validate_metric(X)
    if not report.ok:
        raise InputError("input is not a metric space: %s" % (report,))


def require_four_point(X: FiniteLambdaSpace, delta: LexElem) -> None:
    """Refuse a delta below the four-point constant of X."""
    least = min_delta_4pt(X)
    if QLexElem.from_lex(delta) < least:
        raise InputError("delta %s is below the four-point constant %s of "
                         "the input" % (delta.render(), least.render()))


def min_delta_4pt_witness(
    X: FiniteLambdaSpace, workers: Optional[int] = None
) -> Tuple[QLexElem, Optional[Tuple[str, str, str, str]]]:
    """Least delta for the four-point condition, with first maximizing
    witness.  ``workers`` is the most processes the scan may use; it uses
    one."""
    return _four_point(X)[:2]


class HyperbolicityReport(NamedTuple):
    delta_triple_at: Dict[str, QLexElem]
    delta_triple: QLexElem
    delta_4pt: QLexElem
    witness_triple: Tuple[str, ...] = ()
    witness_quad: Tuple[str, ...] = ()
    basepoint_of_witness: str = ""


def hyperbolicity_report(X: FiniteLambdaSpace,
                         workers: Optional[int] = None) -> HyperbolicityReport:
    """Every constant of the metric space X, in this process, as
    ``_four_point`` finds them: from one quadruple scan, or from
    ``_SWEEP_FROM`` points on from one basepoint scan per point where the
    table suits it.  From there on a table that is not a metric raises
    InputError.  ``workers`` is the most processes the scan may use; it
    uses one.

    Twice the triple defect min{(x.z)_v,(y.z)_v} - (x.y)_v is d(x,y)+d(z,v)
    - max{d(x,z)+d(y,v), d(x,v)+d(y,z)}: delta at v is half the largest
    defect of a quadruple containing v, and the triple constant is the
    four-point one.  The witness triple is the first at the first basepoint
    of largest constant, found from the pair that basepoint's scan kept,
    or by a scan there after the quadruple scan; both stay empty when
    every constant is 0.
    """
    d4, w4, pm, pairs = _four_point(X)
    per = {lab: QLexElem(X.unpack(c), 2) for lab, c in zip(X.labels, pm)}
    bp, triple = "", ()
    top = max(pm)
    if top > 0:
        v = pm.index(top)
        bp = X.labels[v]
        if pairs is None:
            triple = min_delta_at_witness(X, v)[1]
        else:
            triple = _triple(X, v, top, pairs[v])
    return HyperbolicityReport(per, d4, d4, triple, w4 or (), bp)


def subspace_at(X: FiniteLambdaSpace, x, i: int) -> FiniteLambdaSpace:
    """Points whose distance from x lies in Lambda_i, over the first i coordinates."""
    if not 0 <= i <= X.rank:
        raise InputError("convex index %d out of range for rank %d" % (i, X.rank))
    xi = X.index(x)
    keep = [j for j in range(len(X)) if X.dist[xi][j].height() <= i]
    for a in keep:
        for b in keep:
            if X.dist[a][b].height() > i:
                raise ConstructionError(
                    "subspace at %r not closed in Lambda_%d: d(%s,%s)=%s"
                    % (x, i, X.labels[a], X.labels[b], X.dist[a][b].render())
                )
    dist = [
        [LexElem(X.dist[a][b].coords[:i], X.domain) for b in keep]
        for a in keep
    ]
    return FiniteLambdaSpace([X.labels[j] for j in keep], dist, X.domain)


def convex_classes(X: FiniteLambdaSpace, i: int) -> List[List[int]]:
    """Partition of the points by the relation d(x,y) in Lambda_i."""
    if not 0 <= i <= X.rank:
        raise InputError("convex index %d out of range for rank %d" % (i, X.rank))
    n = len(X)
    cls: List[List[int]] = []
    assigned = [-1] * n
    for a in range(n):
        if assigned[a] >= 0:
            continue
        members = [a]
        assigned[a] = len(cls)
        for b in range(a + 1, n):
            if assigned[b] < 0 and X.dist[a][b].height() <= i:
                members.append(b)
                assigned[b] = len(cls)
        cls.append(members)
    for members in cls:
        for a in members[1:]:
            for b in members:
                if X.dist[a][b].height() > i:
                    raise ConstructionError(
                        "relation d in Lambda_%d is not transitive at %s,%s"
                        % (i, X.labels[a], X.labels[b])
                    )
    return cls


def quotient_by_convex(X: FiniteLambdaSpace, i: int) -> FiniteLambdaSpace:
    """Quotient metric space over Lambda/Lambda_i."""
    cls = convex_classes(X, i)
    labels = []
    for members in cls:
        if len(members) == 1:
            labels.append(X.labels[members[0]])
        else:
            labels.append("{%s}" % ",".join(X.labels[m] for m in members))
    k = len(cls)
    dist = []
    for a in range(k):
        row = []
        for b in range(k):
            ra, rb = cls[a][0], cls[b][0]
            val = LexElem(X.dist[ra][rb].coords[i:], X.domain)
            for ma in cls[a]:
                for mb in cls[b]:
                    if LexElem(X.dist[ma][mb].coords[i:], X.domain) != val:
                        raise ConstructionError(
                            "quotient distance ill-defined between classes %s,%s"
                            % (labels[a], labels[b])
                        )
            row.append(val)
        dist.append(row)
    return FiniteLambdaSpace(labels, dist, X.domain)


def scale(X: FiniteLambdaSpace, k) -> FiniteLambdaSpace:
    """Multiply every distance by a positive scalar."""
    if X.domain == "Z":
        if not isinstance(k, int) or k < 1:
            raise InputError("scale factor for Z^n must be a positive integer")
        dist = [[e * k for e in row] for row in X.dist]
    else:
        k = Fraction(k)
        if k <= 0:
            raise InputError("scale factor must be positive")
        dist = [[LexElem(tuple(c * k for c in e.coords), "Q") for e in row] for row in X.dist]
    return FiniteLambdaSpace(X.labels, dist, X.domain)


# _lines splits a text into pieces of about this many characters
_CHUNK = 1 << 15


def _lines(text: str) -> Iterator[List[str]]:
    """The token lists of the lines of text, one at a time, comments and
    blank lines dropped.  Lines end where ``str.splitlines`` ends them,
    but no list of every line is built: the text is split about
    ``_CHUNK`` characters at a time, each piece ending just past a
    newline, so that every piece holds whole lines."""
    start, size = 0, len(text)
    while start < size:
        end = text.find("\n", start + _CHUNK) + 1 or size
        for line in text[start:end].splitlines():
            row = line.split("#", 1)[0].split()
            if row:
                yield row
        start = end


def _tokens(text: str) -> List[str]:
    return list(chain.from_iterable(_lines(text)))


def parse_group_header(tok: str) -> Tuple[str, int]:
    if "^" in tok:
        dom, _, r = tok.partition("^")
        try:
            rank = int(r)
        except ValueError as exc:
            raise InputError("bad group %s" % quoted(tok)) from exc
    else:
        dom, rank = tok, 1
    if dom not in ("Z", "Q") or rank < 1:
        raise InputError("bad group %s" % quoted(tok))
    return dom, rank


def read_lms(text: str) -> FiniteLambdaSpace:
    """Parse the .lms format: group header, labelled points, distance matrix."""
    toks = _tokens(text)
    if len(toks) < 2 or toks[0] != "lambda":
        raise InputError("expected 'lambda Z^n' or 'lambda Q^n' header")
    domain, rank = parse_group_header(toks[1])
    if len(toks) < 4 or toks[2] != "points":
        raise InputError("expected 'points k'")
    k = int_token(toks[3], "point count")
    if k < 1:
        raise InputError("need at least one point")
    need = 4 + k + k * k
    if len(toks) != need:
        raise InputError("expected %d tokens, got %d" % (need, len(toks)))
    labels = toks[4 : 4 + k]
    entries = toks[4 + k :]
    # each distinct token is parsed once, at its first place in row-major
    # order, so the first bad token raises as it would parsed in place
    elems = {}
    for tok in entries:
        if tok not in elems:
            elems[tok] = parse_lex(tok, rank, domain)
    table = list(map(elems.__getitem__, entries))
    dist = [table[i * k:(i + 1) * k] for i in range(k)]
    return FiniteLambdaSpace(labels, dist, domain)


def write_lms(X: FiniteLambdaSpace) -> str:
    lines = ["lambda %s^%d" % (X.domain, X.rank)]
    lines.append("points %d %s" % (len(X), " ".join(X.labels)))
    for row in X.dist:
        lines.append(" ".join(e.render() for e in row))
    return "\n".join(lines) + "\n"
