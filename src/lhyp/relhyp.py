"""Weighted coset graphs and properness checks for group length data.

Given a length function l on a group, the kernel G_x = {l = 0} is a
subgroup, l is constant on left and double kernel cosets, and the
cosets of the ball of radius N form a weighted graph: an edge between
gG_x and (gh)G_x of weight l(h) whenever l(h) <= N.  The derived
metric of that graph is compared against the relative word metric in
which every element of G_x is a free move, and against the inequality
family that geodesics based at the kernel must satisfy.

Everything here is radius-stamped: verdicts speak about the enumerated
ball only, never about the group as a whole.
"""

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .catalog import Elem, GroupHandle, LengthTable
from .errors import ConstructionError, InputError
from .geodspace import DisjointSets, bfs_table
from .ordgroup import LexElem


def _unit(rank: int) -> LexElem:
    return LexElem((1,) + (0,) * (rank - 1))


def _natural(rank: int, n: int) -> LexElem:
    return LexElem((n,) + (0,) * (rank - 1))


def scale_lengths(table: LengthTable, k: int) -> LengthTable:
    if k < 1:
        raise InputError("scale factor must be a positive integer")
    return LengthTable(table.group, {g: v * k for g, v in table.values.items()},
                       radius=table.radius)


class RelCayley:
    """Coset graph of a length table, truncated at a radius.

    Vertices are kernel cosets of elements with l(g) <= radius; the
    base coset (kernel itself) has index 0.  ``dist`` is the derived
    min-weight metric, ``rel_dist`` the unweighted coset metric in
    which only generator moves count (kernel moves are free).
    """

    def __init__(self, group: GroupHandle, table: LengthTable, N: int,
                 radius: int, gens: Optional[Sequence[Elem]] = None) -> None:
        if N < 1 or radius < 1:
            raise InputError("N and radius must be positive")
        self.group = group
        self.table = table
        self.N = N
        self.radius = radius
        rank = table.rank
        self.Nlex = _natural(rank, N)
        if gens is None:
            gens = group.gens()
        self.gens = tuple(gens)
        for s in self.gens:
            if table.l(s) > self.Nlex:
                raise InputError("generator %s has length %s beyond N=%d"
                                 % (group.render(s), table.l(s).render(), N))

        rlex = _natural(rank, radius)
        elements = sorted((g for g in table.elements() if table.l(g) <= rlex),
                          key=group.render)
        kernel = [g for g in elements if table.l(g).is_zero()]
        cosets = DisjointSets(elements, key=group.render)
        for g in elements:
            for k in kernel:
                h = group.mul(g, k)
                if not table.has(h):
                    raise InputError(
                        "length table does not cover %s, needed to close "
                        "the coset of %s" % (group.render(h), group.render(g)))
                if table.l(h) != table.l(g):
                    raise InputError("length is not constant on the coset "
                                     "of %s" % group.render(g))
                cosets.union(g, h)

        classes: Dict[Elem, List[Elem]] = {}
        for g in elements:
            classes.setdefault(cosets.find(g), []).append(g)
        base = cosets.find(group.identity())
        roots = sorted(classes, key=lambda r: (r != base, group.render(r)))
        self.reps: Tuple[Elem, ...] = tuple(roots)
        self.members: Tuple[Tuple[Elem, ...], ...] = tuple(
            tuple(sorted(classes[r], key=group.render)) for r in roots)
        self.labels: Tuple[str, ...] = tuple(group.render(r) for r in roots)
        self.coset_of: Dict[Elem, int] = {}
        for i, mem in enumerate(self.members):
            for g in mem:
                self.coset_of[g] = i

        n = len(self.reps)
        self.weights: Dict[Tuple[int, int], LexElem] = {}
        for i, j in combinations(range(n), 2):
            h = group.mul(group.inv(self.reps[i]), self.reps[j])
            if not table.has(h):
                raise InputError(
                    "length table too small: no entry for %s joining cosets "
                    "%s and %s" % (group.render(h), self.labels[i],
                                   self.labels[j]))
            w = table.l(h)
            back = table.l(group.inv(h)) if table.has(group.inv(h)) else None
            if back != w:
                raise InputError("length table is not inversion-symmetric "
                                 "at %s" % group.render(h))
            if w <= self.Nlex:
                self.weights[(i, j)] = w

        adj: List[Dict[int, LexElem]] = [dict() for _ in range(n)]
        for (i, j), w in self.weights.items():
            adj[i][j] = w
            adj[j][i] = w
        zero = LexElem((0,) * rank)
        dist_rows = []
        for s in range(n):
            dist: List[Optional[LexElem]] = [None] * n
            dist[s] = zero
            heap: List[Tuple[LexElem, int]] = [(zero, s)]
            while heap:
                du, u = heappop(heap)
                if du > dist[u]:
                    continue
                for v, w in adj[u].items():
                    nd = du + w
                    if dist[v] is None or nd < dist[v]:
                        dist[v] = nd
                        heappush(heap, (nd, v))
            if any(d is None for d in dist):
                raise ConstructionError(
                    "coset graph disconnected at N=%d within radius %d"
                    % (N, radius))
            dist_rows.append(tuple(dist))
        self.dist: Tuple[Tuple[LexElem, ...], ...] = tuple(dist_rows)

        moves = []
        for s in self.gens:
            moves.append(s)
            moves.append(group.inv(s))
        # a generator move takes coset u to the coset of rep(u) * move,
        # when that product lies in the enumerated ball
        steps = [[self.coset_of[h] for h in (group.mul(rep, mv) for mv in moves)
                  if h in self.coset_of] for rep in self.reps]
        self.rel_dist: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(row) for row in bfs_table(steps))

    def __len__(self) -> int:
        return len(self.reps)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InputError("no coset labelled %r" % label) from None

    def weight(self, i: int, j: int) -> Optional[LexElem]:
        if i == j:
            return LexElem((0,) * self.table.rank)
        return self.weights.get((min(i, j), max(i, j)))

    def coset_length(self, i: int) -> LexElem:
        return self.table.l(self.reps[i])


@dataclass(frozen=True)
class ShortPairReport:
    """Every geodesic two-step of short edges must collapse to one edge."""
    checked: int
    ok: bool
    witness: Optional[Tuple[str, str, str]]


def short_pair_report(rc: RelCayley) -> ShortPairReport:
    n = len(rc)
    checked = 0
    for u in range(n):
        for m in range(n):
            if m == u:
                continue
            w1 = rc.weight(u, m)
            if w1 is None or w1 * 2 > rc.Nlex:
                continue
            for v in range(n):
                if v == u or v == m:
                    continue
                w2 = rc.weight(m, v)
                if w2 is None or w2 * 2 > rc.Nlex:
                    continue
                if w1 + w2 != rc.dist[u][v]:
                    continue
                checked += 1
                direct = rc.weight(u, v)
                if direct is None or direct != rc.dist[u][v]:
                    return ShortPairReport(checked, False,
                                           (rc.labels[u], rc.labels[m],
                                            rc.labels[v]))
    return ShortPairReport(checked, True, None)


@dataclass(frozen=True)
class QiReport:
    """Two-sided comparison of d_Gamma with the relative word metric."""
    N_prime: int
    alpha: Optional[LexElem]
    alpha_star: Optional[LexElem]
    pairs_checked: int
    unreachable: int
    upper_ok: bool
    lower_ok: bool
    witness: Optional[Tuple[str, str]]


def check_qi(rc: RelCayley) -> QiReport:
    """d_Gamma <= N * d' and alpha* . d' <= 2 N' . d_Gamma on all pairs.

    N' is the measured relative-metric bound over the N-ball; alpha*
    is the least positive length and alpha = alpha* - 1 the reported
    strict bound.  Cross-multiplied exact comparisons, no division.
    """
    rank = rc.table.rank
    unit = _unit(rank)
    positives = [rc.table.l(g) for g in rc.coset_of
                 if not rc.table.l(g).is_zero()]
    alpha_star = min(positives) if positives else None
    alpha = alpha_star - unit if alpha_star is not None else None
    N_prime = 0
    for g, i in rc.coset_of.items():
        if rc.table.l(g) <= rc.Nlex and rc.rel_dist[0][i] > N_prime:
            N_prime = rc.rel_dist[0][i]
    n = len(rc)
    checked = 0
    unreachable = 0
    upper_ok = True
    lower_ok = True
    witness = None
    for u, v in combinations(range(n), 2):
        dprime = rc.rel_dist[u][v]
        if dprime < 0:
            unreachable += 1
            continue
        checked += 1
        dgamma = rc.dist[u][v]
        if dgamma > unit * (rc.N * dprime):
            upper_ok = False
            witness = witness or (rc.labels[u], rc.labels[v])
        if alpha_star is not None and alpha_star * dprime > dgamma * (2 * N_prime):
            lower_ok = False
            witness = witness or (rc.labels[u], rc.labels[v])
    return QiReport(N_prime, alpha, alpha_star, checked, unreachable,
                    upper_ok, lower_ok, witness)


@dataclass(frozen=True)
class SymbolicBound:
    """An exact expression with certified rational brackets."""
    expr: str
    lower: Fraction
    upper: Fraction

    def render(self) -> str:
        return "%s in [%s, %s)" % (self.expr, self.lower, self.upper)


_LOG2_154: Optional[Tuple[int, int]] = None


def _log2_154() -> Tuple[int, int]:
    # 2^p <= 154^e < 2^(p+1) brackets log2(154) within 1/e
    global _LOG2_154
    if _LOG2_154 is None:
        e = 65536
        p = (154 ** e).bit_length() - 1
        _LOG2_154 = (p, e)
    return _LOG2_154


def pn_threshold(delta: int) -> SymbolicBound:
    if delta < 0:
        raise InputError("delta must be a natural number")
    p, e = _log2_154()
    base = 768 + 2288 * delta
    return SymbolicBound("6144*log2(154) + 768 + 2288*%d" % delta,
                         Fraction(6144 * p, e) + base,
                         Fraction(6144 * (p + 1), e) + base)


def pn_L(delta: int) -> SymbolicBound:
    if delta < 0:
        raise InputError("delta must be a natural number")
    p, e = _log2_154()
    base = 192 + 572 * delta
    return SymbolicBound("1536*log2(154) + 192 + 572*%d" % delta,
                         Fraction(1536 * p, e) + base,
                         Fraction(1536 * (p + 1), e) + base)


@dataclass(frozen=True)
class PnReport:
    n: int
    radius: int
    alpha: Optional[LexElem]
    alpha_ok: bool
    generates: bool
    double_cosets: int
    threshold: SymbolicBound
    L: SymbolicBound


def check_Pn(group: GroupHandle, table: LengthTable, n: int, radius: int,
             delta: int = 0) -> PnReport:
    """The three clauses of the ball property, within the test radius.

    (i) the largest strict bound alpha with B_alpha = kernel;
    (ii) does the n-ball generate the radius-ball by products staying
    inside it; (iii) the number of double kernel cosets meeting the
    n-ball.  The delta-dependent threshold constants ride along as
    certified brackets.
    """
    if n < 0 or radius < n:
        raise InputError("need 0 <= n <= radius")
    rank = table.rank
    unit = _unit(rank)
    rlex = _natural(rank, radius)
    nlex = _natural(rank, n)
    elements = sorted((g for g in table.elements() if table.l(g) <= rlex),
                      key=group.render)
    kernel = [g for g in elements if table.l(g).is_zero()]
    positives = [table.l(g) for g in elements if not table.l(g).is_zero()]
    alpha = (min(positives) - unit) if positives else None
    alpha_ok = True
    if alpha is not None:
        for g in elements:
            inside = table.l(g) <= alpha
            if inside != table.l(g).is_zero():
                alpha_ok = False
                break

    ball_n = [g for g in elements if table.l(g) <= nlex]
    universe = set(elements)
    closure = {group.identity()}
    frontier = list(closure)
    while frontier:
        nxt = []
        for g in frontier:
            for s in ball_n:
                h = group.mul(g, s)
                if h in universe and h not in closure:
                    closure.add(h)
                    nxt.append(h)
        frontier = nxt
    generates = closure == universe

    double = DisjointSets(ball_n, key=group.render)
    in_ball = set(ball_n)
    for g in ball_n:
        for k in kernel:
            for h in (group.mul(k, g), group.mul(g, k)):
                if not table.has(h):
                    raise InputError(
                        "length table does not close the double coset "
                        "of %s" % group.render(g))
                if table.l(h) != table.l(g):
                    raise InputError("length is not constant on the double "
                                     "coset of %s" % group.render(g))
                if h not in in_ball:
                    raise InputError(
                        "kernel translate %s of %s escaped the enumeration"
                        % (group.render(h), group.render(g)))
                double.union(g, h)
    double_cosets = len({double.find(g) for g in ball_n})
    return PnReport(n, radius, alpha, alpha_ok, generates, double_cosets,
                    pn_threshold(delta), pn_L(delta))


@dataclass(frozen=True)
class ProperRow:
    N: int
    ball_size: int
    rel_diameter: Optional[int]


@dataclass(frozen=True)
class ProperReport:
    radius: int
    alpha: Optional[LexElem]
    rows: Tuple[ProperRow, ...]


def check_proper(group: GroupHandle, table: LengthTable, radius: int,
                 gens: Optional[Sequence[Elem]] = None) -> ProperReport:
    """Ball sizes and their spread in the relative word metric, per N.

    A proper length function keeps every N-ball bounded relative to
    generator moves with free kernel moves; on a finite enumeration
    the report simply tabulates the measured bounds, stamped with the
    radius they were measured at.
    """
    if radius < 1:
        raise InputError("radius must be positive")
    try:
        rc = RelCayley(group, table, N=radius, radius=radius, gens=gens)
    except ConstructionError:
        rc = None
    rank = table.rank
    unit = _unit(rank)
    rlex = _natural(rank, radius)
    elements = [g for g in table.elements() if table.l(g) <= rlex]
    positives = [table.l(g) for g in elements if not table.l(g).is_zero()]
    alpha = (min(positives) - unit) if positives else None
    rows = []
    for N in range(1, radius + 1):
        nlex = _natural(rank, N)
        ball = [g for g in elements if table.l(g) <= nlex]
        diam: Optional[int] = 0
        if rc is not None:
            for g in ball:
                i = rc.coset_of[g]
                d = rc.rel_dist[0][i]
                if d < 0:
                    diam = None
                    break
                if diam is not None and d > diam:
                    diam = d
        else:
            diam = None
        rows.append(ProperRow(N, len(ball), diam))
    return ProperReport(radius, alpha, tuple(rows))


@dataclass(frozen=True)
class RelGeodReport:
    k: int
    two_edge_checked: int
    two_edge_ok: bool
    three_edge_checked: int
    three_edge_ok: bool
    witness: Optional[Tuple[str, ...]]


def verify_relhyp_geodesics(rc: RelCayley, k: int,
                            delta: LexElem) -> RelGeodReport:
    """Length inequalities along short geodesics based at the kernel.

    Two-edge geodesics G_x -> a -> b must satisfy
    l(b) + 2 k delta >= l(a) + w(a, b); three-edge geodesics whose
    middle edge is shorter than N/2 get the same with slack 5 k delta.
    """
    if k < 1:
        raise InputError("k must be a positive integer")
    if len(delta.coords) != rc.table.rank:
        raise InputError("delta rank does not match the length table")
    n = len(rc)
    slack2 = delta * (2 * k)
    slack5 = delta * (5 * k)
    two_checked = two_ok = 0
    three_checked = three_ok = 0
    witness: Optional[Tuple[str, ...]] = None
    for a in range(1, n):
        w1 = rc.weight(0, a)
        if w1 is None:
            continue
        for b in range(1, n):
            if b == a:
                continue
            w2 = rc.weight(a, b)
            if w2 is None or w1 + w2 != rc.dist[0][b]:
                continue
            two_checked += 1
            if rc.coset_length(b) + slack2 >= w1 + w2:
                two_ok += 1
            elif witness is None:
                witness = ("2-edge", rc.labels[a], rc.labels[b])
            for c in range(1, n):
                if c == a or c == b:
                    continue
                w3 = rc.weight(b, c)
                if w3 is None or w1 + w2 + w3 != rc.dist[0][c]:
                    continue
                if w2 * 2 >= rc.Nlex:
                    continue
                three_checked += 1
                if rc.coset_length(c) + slack5 >= w1 + w2 + w3:
                    three_ok += 1
                elif witness is None:
                    witness = ("3-edge", rc.labels[a], rc.labels[b],
                               rc.labels[c])
    return RelGeodReport(k, two_checked, two_checked == two_ok,
                         three_checked, three_checked == three_ok, witness)
