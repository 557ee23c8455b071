"""Weighted coset graphs and properness checks for group length data.

Given a length function l on a group, the kernel G_x = {l = 0} is a
subgroup, l is constant on left and double kernel cosets, and the
cosets of the ball of radius N form a weighted graph: an edge between
gG_x and (gh)G_x of weight l(h) whenever l(h) <= N.  The derived
metric of that graph is compared against the relative word metric in
which every element of G_x is a free move, and against the inequality
family that geodesics based at the kernel must satisfy.

Everything here is radius-stamped: verdicts speak about the enumerated
ball only, never about the group as a whole.  ``_ball`` is the one
enumeration: the coset graph, the ball property P_n and the properness
rows all read the radius ball and its kernel from it, in rendering order.

Weights, path lengths and coset lengths are plain ints: the codes of
one lenfun._Sample over the coset representatives, which also holds every
l(r_i^-1 r_j) and the code of N.  Under the right lexicographic order a
length 0 <= l <= (N, 0, ..., 0) has every higher coordinate zero, as a
nonzero one would have to be positive and would put l above N: l lies in
the convex subgroup Lambda_1 = Z, so its code is its first coordinate,
which is its value.  LexElem appears only at the API boundary.
"""

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import inf
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
                    Union)

from .catalog import Elem, GroupHandle, LengthTable, generated_within
from .errors import ConstructionError, InputError
from .geodspace import DisjointSets, distance_table
from .lenfun import _Sample
from .ordgroup import LexElem, distinct, minimal_positive


def _ball(group: GroupHandle, table: LengthTable,
          radius: int) -> Tuple[List[Elem], List[Elem]]:
    """The elements of length at most (radius, 0, ..., 0), sorted by their
    rendering, and the kernel {l = 0} among them, in the same order."""
    bound = minimal_positive(table.rank) * radius
    # one comparison per distinct length object
    values = distinct(table.values.values())
    inside = {id(v) for v in values if v <= bound}
    zero = {id(v) for v in values if v.is_zero()}
    ball = sorted((g for g, v in table.values.items() if id(v) in inside),
                  key=group.render)
    return ball, [g for g in ball if id(table.values[g]) in zero]


def _alpha(table: LengthTable, ball: Iterable[Elem]
           ) -> Tuple[Optional[LexElem], Optional[LexElem]]:
    """alpha*, the least nonzero length on the ball, and alpha = alpha* - 1."""
    nonzero = [table.l(g) for g in ball if not table.l(g).is_zero()]
    if not nonzero:
        return None, None
    least = min(nonzero)
    return least, least - minimal_positive(table.rank)


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
    which only generator moves count (kernel moves are free).  The
    scans read the int tables: ``adj[u]`` maps each neighbour, in index
    order, to the edge weight (<= N), ``d`` is ``dist`` and ``lengths``
    the coset lengths, all as first coordinates.
    """

    def __init__(self, group: GroupHandle, table: LengthTable, N: int,
                 radius: int, gens: Optional[Sequence[Elem]] = None) -> None:
        if N < 1 or radius < 1:
            raise InputError("N and radius must be positive")
        self.group = group
        self.table = table
        self.N = N
        self.radius = radius
        self.one = minimal_positive(table.rank)
        self.Nlex = self.one * N
        if gens is None:
            gens = group.gens()
        self.gens = tuple(gens)
        for s in self.gens:
            if table.l(s) > self.Nlex:
                raise InputError("generator %s has length %s beyond N=%d"
                                 % (group.render(s), table.l(s).render(), N))

        elements, kernel = _ball(group, table, radius)
        zero = self.one * 0
        for g in elements:
            if table.l(g) < zero:
                # a negative weight has no shortest paths to search for
                raise InputError("length %s of %s is negative"
                                 % (table.l(g).render(), group.render(g)))
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

        # each root is the least member of its class, so over the sorted
        # ball the roots, and each class's members, arrive in order
        classes: Dict[Elem, List[Elem]] = {}
        for g in elements:
            classes.setdefault(cosets.find(g), []).append(g)
        e = group.identity()
        try:
            base = cosets.find(e)
        except KeyError:
            raise InputError("length %s of the identity %s lies beyond the "
                             "radius %d" % (table.l(e).render(),
                                            group.render(e), radius)) from None
        roots = [base] + [r for r in classes if r != base]
        self.reps: Tuple[Elem, ...] = tuple(roots)
        self.members: Tuple[Tuple[Elem, ...], ...] = tuple(
            tuple(classes[r]) for r in roots)
        self.labels: Tuple[str, ...] = tuple(group.render(r) for r in roots)
        self.coset_of: Dict[Elem, int] = {}
        for i, mem in enumerate(self.members):
            for g in mem:
                self.coset_of[g] = i
        S = _Sample(table, self.reps, (self.Nlex,))
        self.lengths = tuple(S.lengths)

        n = len(self.reps)
        (bound,) = S.extra
        self.adj: Tuple[Dict[int, int], ...] = tuple({} for _ in range(n))
        for i, j in combinations(range(n), 2):
            w = S.quot[i][j]
            if w is None or S.quot[j][i] != w:
                h = group.mul(group.inv(self.reps[i]), self.reps[j])
                if w is None:
                    raise InputError(
                        "length table too small: no entry for %s joining "
                        "cosets %s and %s" % (group.render(h), self.labels[i],
                                              self.labels[j]))
                raise InputError("length table is not inversion-symmetric "
                                 "at %s" % group.render(h))
            if w <= bound:
                # pairs come in index order, so each adj row is sorted
                self.adj[i][j] = self.adj[j][i] = w

        self.d: Tuple[Tuple[int, ...], ...] = distance_table(self.adj)
        if -1 in self.d[0]:
            raise ConstructionError(
                "coset graph disconnected at N=%d within radius %d"
                % (N, radius))

        moves = []
        for s in self.gens:
            moves.append(s)
            moves.append(group.inv(s))
        # a generator move takes coset u to the coset of rep(u) * move,
        # when that product lies in the enumerated ball
        steps = []
        for rep in self.reps:
            heads = [group.mul(rep, mv) for mv in moves]
            steps.append(dict.fromkeys(
                (self.coset_of[h] for h in heads if h in self.coset_of), 1))
        self.rel_dist: Tuple[Tuple[int, ...], ...] = distance_table(steps)

    def __len__(self) -> int:
        return len(self.reps)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InputError("no coset labelled %r" % label) from None

    @cached_property
    def dist(self) -> Tuple[Tuple[LexElem, ...], ...]:
        lex = {x: self.one * x for x in set().union(*self.d)}
        return tuple(tuple(lex[x] for x in row) for row in self.d)

    def weight(self, i: int, j: int) -> Optional[LexElem]:
        w = 0 if i == j else self.adj[i].get(j)
        return None if w is None else self.one * w

    def coset_length(self, i: int) -> LexElem:
        return self.table.l(self.reps[i])


class ShortPairReport(NamedTuple):
    """Every geodesic two-step of short edges must collapse to one edge."""
    checked: int
    ok: bool
    witness: Optional[Tuple[str, str, str]]


def short_pair_report(rc: RelCayley) -> ShortPairReport:
    checked = 0
    for u, row in enumerate(rc.d):
        for m, w1 in rc.adj[u].items():
            if 2 * w1 > rc.N:
                continue
            for v, w2 in rc.adj[m].items():
                if v == u or 2 * w2 > rc.N or w1 + w2 != row[v]:
                    continue
                checked += 1
                if rc.adj[u].get(v) != row[v]:
                    return ShortPairReport(checked, False,
                                           (rc.labels[u], rc.labels[m],
                                            rc.labels[v]))
    return ShortPairReport(checked, True, None)


class QiReport(NamedTuple):
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
    # every ball element has its coset's length, and none is negative
    least = min(filter(None, rc.lengths), default=None)
    alpha_star = alpha = None
    if least is not None:
        alpha_star, alpha = rc.one * least, rc.one * (least - 1)
    n = len(rc)
    N_prime = max(rc.rel_dist[0][i] for i in range(n) if rc.lengths[i] <= rc.N)
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
        dgamma = rc.d[u][v]
        if dgamma > rc.N * dprime:
            upper_ok = False
            witness = witness or (rc.labels[u], rc.labels[v])
        if least is not None and least * dprime > dgamma * 2 * N_prime:
            lower_ok = False
            witness = witness or (rc.labels[u], rc.labels[v])
    return QiReport(N_prime, alpha, alpha_star, checked, unreachable,
                    upper_ok, lower_ok, witness)


class SymbolicBound(NamedTuple):
    """An exact expression with certified rational brackets."""
    expr: str
    lower: Fraction
    upper: Fraction

    def render(self) -> str:
        return "%s in [%s, %s)" % (self.expr, self.lower, self.upper)


# (p, e) with 2^p <= 154^e < 2^(p+1), bracketing log2(154) within 1/e.  p is
# (154 ** e).bit_length() - 1; that power has 476,000 bits and took 18 ms
# to compute, so the pair is stored here and a test recomputes it
_LOG2_154 = (476236, 65536)


def _bracket(scale: int, const: int, slope: int, delta: int) -> SymbolicBound:
    """scale*log2(154) + const + slope*delta with certified rational brackets."""
    if delta < 0:
        raise InputError("delta must be a natural number")
    p, e = _LOG2_154
    base = const + slope * delta
    return SymbolicBound("%d*log2(154) + %d + %d*%d" % (scale, const, slope, delta),
                         Fraction(scale * p, e) + base,
                         Fraction(scale * (p + 1), e) + base)


def pn_threshold(delta: int) -> SymbolicBound:
    return _bracket(6144, 768, 2288, delta)


def pn_L(delta: int) -> SymbolicBound:
    return _bracket(1536, 192, 572, delta)


class PnReport(NamedTuple):
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
    elements, kernel = _ball(group, table, radius)
    _, alpha = _alpha(table, elements)
    alpha_ok = alpha is None or all(
        (table.l(g) <= alpha) == table.l(g).is_zero() for g in elements)

    nlex = minimal_positive(table.rank) * n
    ball_n = [g for g in elements if table.l(g) <= nlex]
    universe = set(elements)
    generates = generated_within(group, ball_n, universe) == universe

    double = DisjointSets(ball_n, key=group.render)
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
                double.union(g, h)
    double_cosets = len({double.find(g) for g in ball_n})
    return PnReport(n, radius, alpha, alpha_ok, generates, double_cosets,
                    pn_threshold(delta), pn_L(delta))


class ProperRow(NamedTuple):
    N: int
    ball_size: int
    rel_diameter: Optional[int]


class ProperReport(NamedTuple):
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
    elements, _ = _ball(group, table, radius)
    _, alpha = _alpha(table, elements)
    rows = []
    for N in range(1, radius + 1):
        ball, _ = _ball(group, table, N)
        diam: Optional[int] = None
        if rc is not None:
            ds = [rc.rel_dist[0][rc.coset_of[g]] for g in ball]
            if min(ds, default=0) >= 0:
                diam = max(ds, default=0)
        rows.append(ProperRow(N, len(ball), diam))
    return ProperReport(radius, alpha, tuple(rows))


def _int_bound(slack: LexElem) -> Union[int, float]:
    """The bound that x <= slack puts on an x in Lambda_1: the first
    coordinate if every higher one is zero, else +-inf by the sign of the
    top nonzero one."""
    higher = [c for c in slack.coords[1:] if c]
    if not higher:
        return slack.coords[0]
    return inf if higher[-1] > 0 else -inf


class RelGeodReport(NamedTuple):
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
    if delta.rank != rc.table.rank or delta.domain != "Z":
        raise InputError("delta must lie in Z^%d, like the length table"
                         % rc.table.rank)
    slack2 = _int_bound(delta * (2 * k))
    slack5 = _int_bound(delta * (5 * k))
    two_checked = two_ok = 0
    three_checked = three_ok = 0
    witness: Optional[Tuple[str, ...]] = None
    base = rc.d[0]
    for a, w1 in rc.adj[0].items():
        for b, w2 in rc.adj[a].items():
            if b == 0 or w1 + w2 != base[b]:
                continue
            two_checked += 1
            if base[b] - rc.lengths[b] <= slack2:
                two_ok += 1
            elif witness is None:
                witness = ("2-edge", rc.labels[a], rc.labels[b])
            if 2 * w2 >= rc.N:
                continue
            for c, w3 in rc.adj[b].items():
                if c == 0 or c == a or base[b] + w3 != base[c]:
                    continue
                three_checked += 1
                if base[c] - rc.lengths[c] <= slack5:
                    three_ok += 1
                elif witness is None:
                    witness = ("3-edge", rc.labels[a], rc.labels[b],
                               rc.labels[c])
    return RelGeodReport(k, two_checked, two_checked == two_ok,
                         three_checked, three_checked == three_ok, witness)
