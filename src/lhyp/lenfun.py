"""Checks for length functions on groups.

A length function assigns to each group element a value in Z^n under
the right lexicographic order.  Everything here consumes a LengthTable
(finitely many elements with known lengths) and renders radius-stamped
verdicts: a property can only be confirmed on the listed elements, so
reports carry counts of checked and skipped items, where a skip means
some needed product fell outside the table.

All comparisons are exact.  Gromov products are half-integers at worst,
so internally the doubled quantity l(g) + l(h) - l(g^-1 h) is used and
halved only for display.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .catalog import GroupHandle, LengthTable
from .errors import ConstructionError, InputError
from .lspace import FiniteLambdaSpace, validate_metric
from .ordgroup import LexElem, Packing, QLexElem, height

Elem = Any


def _c2(l: LengthTable, g: Elem, h: Elem) -> Optional[LexElem]:
    """Doubled Gromov product 2 c(g,h), or None if l(g^-1 h) is unknown."""
    w = l.group.mul(l.group.inv(g), h)
    if not l.has(w):
        return None
    return l.values[g] + l.values[h] - l.values[w]


def gromov_product(l: LengthTable, g: Elem, h: Elem) -> QLexElem:
    c2 = _c2(l, g, h)
    if c2 is None:
        raise InputError("product %s outside the length table"
                         % l.group.render(l.group.mul(l.group.inv(g), h)))
    return QLexElem(c2, 2)


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the four length function axioms on a sample."""

    nonneg_ok: bool
    nonneg_witness: Optional[str]
    symmetric_ok: bool
    symmetric_witness: Optional[str]
    subadditive_ok: bool
    subadditive_witness: Optional[Tuple[str, str]]
    delta: Optional[QLexElem]
    delta_witness: Optional[Tuple[str, str, str]]
    inv_skipped: int
    pairs_checked: int
    pairs_skipped: int
    triples_checked: int
    triples_skipped: int
    radius: Optional[int]

    @property
    def ok(self) -> bool:
        return self.nonneg_ok and self.symmetric_ok and self.subadditive_ok


def _min_delta(l: LengthTable, sample: Sequence[Elem]):
    """Smallest delta making the hyperbolicity axiom hold on the sample.

    Returns (delta, witness, checked, skipped); delta is None when no
    triple had all three Gromov products available.  The doubled Gromov
    products are scanned as packed ints.
    """
    n = len(sample)
    c2 = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            val = _c2(l, sample[i], sample[j])
            c2[i][j] = val
            c2[j][i] = val
    packing = Packing([LexElem.zero(l.rank)] + [v for row in c2 for v in row if v is not None])
    c2 = [[None if v is None else packing.pack(v) for v in row] for row in c2]
    best = None
    witness = None
    checked = 0
    skipped = 0
    for i, j, k in combinations(range(n), 3):
        cij, cik, cjk = c2[i][j], c2[i][k], c2[j][k]
        if cij is None or cik is None or cjk is None:
            skipped += 1
            continue
        checked += 1
        for pair, a, b, other in ((cij, cik, cjk, k), (cik, cij, cjk, j),
                                  (cjk, cij, cik, i)):
            defect = (a if a < b else b) - pair
            if best is None or best < defect:
                best = defect
                if other == k:
                    witness = (i, j, k)
                elif other == j:
                    witness = (i, k, j)
                else:
                    witness = (j, k, i)
    if best is None:
        return None, None, checked, skipped
    names = tuple(l.group.render(sample[t]) for t in witness)
    return QLexElem(packing.unpack(max(best, 0)), 2), names, checked, skipped


def check_axioms(l: LengthTable, sample: Optional[Sequence[Elem]] = None) -> AxiomReport:
    if sample is None:
        sample = l.elements()
    G = l.group
    zero = LexElem((0,) * l.rank)
    nonneg_ok, nonneg_witness = True, None
    if l.values[G.identity()] != zero:
        nonneg_ok, nonneg_witness = False, G.render(G.identity())
    if nonneg_ok:
        for g in sample:
            if l.l(g) < zero:
                nonneg_ok, nonneg_witness = False, G.render(g)
                break
    symmetric_ok, symmetric_witness = True, None
    inv_skipped = 0
    for g in sample:
        gi = G.inv(g)
        if not l.has(gi):
            inv_skipped += 1
            continue
        if l.values[g] != l.values[gi]:
            symmetric_ok, symmetric_witness = False, G.render(g)
            break
    subadditive_ok, subadditive_witness = True, None
    pairs_checked = 0
    pairs_skipped = 0
    for g in sample:
        for h in sample:
            gh = G.mul(g, h)
            if not l.has(gh):
                pairs_skipped += 1
                continue
            pairs_checked += 1
            if l.values[g] + l.values[h] < l.values[gh]:
                if subadditive_ok:
                    subadditive_ok = False
                    subadditive_witness = (G.render(g), G.render(h))
    delta, delta_witness, triples_checked, triples_skipped = _min_delta(l, sample)
    return AxiomReport(nonneg_ok, nonneg_witness, symmetric_ok, symmetric_witness,
                       subadditive_ok, subadditive_witness, delta, delta_witness,
                       inv_skipped, pairs_checked, pairs_skipped,
                       triples_checked, triples_skipped, l.radius)


def from_action(group: GroupHandle, act: Mapping[Elem, Mapping[str, str]],
                X: FiniteLambdaSpace, v: str) -> LengthTable:
    """Length table l(g) = d(v, g v) read off a partial action on X.

    Every act[g] must be a partial isometry of X given as a point map;
    elements whose map does not cover v are left out of the table.  The
    action identity act[g](act[h](p)) = act[gh](p) is verified wherever
    all three sides are defined.
    """
    if v not in X.labels:
        raise InputError("base point %r is not in the space" % v)
    labels = set(X.labels)
    for g, m in act.items():
        for p, q in m.items():
            if p not in labels or q not in labels:
                raise InputError("map of %s mentions unknown point %r"
                                 % (group.render(g), p if p not in labels else q))
        for p, q in combinations(m, 2):
            if X.d(m[p], m[q]) != X.d(p, q):
                raise InputError("map of %s is not a partial isometry at (%s,%s)"
                                 % (group.render(g), p, q))
    if group.identity() not in act:
        raise InputError("action does not list the identity")
    for g, mg in act.items():
        for h, mh in act.items():
            gh = group.mul(g, h)
            mgh = act.get(gh)
            if mgh is None:
                continue
            for p, q in mh.items():
                lhs = mg.get(q)
                rhs = mgh.get(p)
                if lhs is not None and rhs is not None and lhs != rhs:
                    raise InputError("not an action: maps of %s after %s and of "
                                     "their product disagree at %s"
                                     % (group.render(g), group.render(h), p))
    values = {g: X.d(v, m[v]) for g, m in act.items() if v in m}
    if group.identity() not in values:
        raise InputError("identity map does not cover the base point")
    return LengthTable(group, values)


@dataclass(frozen=True)
class KernelReport:
    elements: Tuple[Elem, ...]
    coset_ok: bool
    witness: Optional[Tuple[str, str]]
    checked: int
    skipped: int


def kernel(l: LengthTable, sample: Optional[Sequence[Elem]] = None) -> KernelReport:
    """Zero set of the length function, with two-sided coset constancy.

    For a in the kernel, l(ag) and l(ga) must equal l(g) whenever those
    products stay inside the table.
    """
    if sample is None:
        sample = l.elements()
    G = l.group
    zero = LexElem((0,) * l.rank)
    ker = tuple(g for g in sample if l.l(g) == zero)
    checked = 0
    skipped = 0
    coset_ok = True
    witness = None
    for a in ker:
        for g in sample:
            for prod in (G.mul(a, g), G.mul(g, a)):
                if not l.has(prod):
                    skipped += 1
                    continue
                checked += 1
                if l.values[prod] != l.values[g] and coset_ok:
                    coset_ok = False
                    witness = (G.render(a), G.render(g))
    return KernelReport(ker, coset_ok, witness, checked, skipped)


@dataclass(frozen=True)
class Lambda0Report:
    elements: Tuple[Elem, ...]
    height_bound: int
    vacuous_ok: Optional[bool]
    witness: Optional[Tuple[str, str, str]]
    triples_checked: int
    triples_skipped: int


def lambda0_kernel(l: LengthTable, i: int,
                   delta: Optional[LexElem] = None) -> Lambda0Report:
    """Elements whose length lies in the first i coordinates.

    Those lengths form a convex subgroup, so the elements form a
    subgroup of the ambient group.  When delta sits strictly above the
    subgroup, the hyperbolicity axiom restricted here holds for the
    empty reason: every deficit min - delta is negative while Gromov
    products are not.  Passing such a delta switches on that check.
    """
    if not 0 <= i <= l.rank:
        raise InputError("height bound must be within 0..%d" % l.rank)
    members = tuple(g for g in l.elements() if height(l.values[g]) <= i)
    vacuous_ok: Optional[bool] = None
    witness = None
    checked = 0
    skipped = 0
    if delta is not None and not delta.is_zero() and height(delta) > i:
        vacuous_ok = True
        d2 = delta * 2
        zero = LexElem((0,) * l.rank)
        n = len(members)
        c2 = [[_c2(l, members[a], members[b]) for b in range(n)] for a in range(n)]
        for a, b, c in combinations(range(n), 3):
            cab, cac, cbc = c2[a][b], c2[a][c], c2[b][c]
            if cab is None or cac is None or cbc is None:
                skipped += 1
                continue
            checked += 1
            for pair, u, w in ((cab, cac, cbc), (cac, cab, cbc), (cbc, cab, cac)):
                low = u if u < w else w
                if not (low - d2 < zero <= pair):
                    if vacuous_ok:
                        vacuous_ok = False
                        witness = tuple(l.group.render(members[t]) for t in (a, b, c))
    return Lambda0Report(members, i, vacuous_ok, witness, checked, skipped)


@dataclass
class CosetSpace:
    """Coset space of the kernel, metrized by d(gA, hA) = l(g^-1 h)."""

    space: FiniteLambdaSpace
    base: str
    reps: Dict[str, Elem]
    members: Dict[Elem, str]
    table: LengthTable


def to_space(l: LengthTable, sample: Optional[Sequence[Elem]] = None) -> CosetSpace:
    """Build the coset metric space over a product-closed sample.

    Needs l(g^-1 h) for every pair of sample elements; a missing value
    is an input error, not a skip, because a partially defined distance
    table is useless downstream.
    """
    if sample is None:
        sample = l.elements()
    sample = list(sample)
    G = l.group
    if G.identity() not in sample:
        raise InputError("sample misses the identity")
    n = len(sample)
    lv = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            w = G.mul(G.inv(sample[i]), sample[j])
            if not l.has(w):
                raise InputError("sample is not product closed: l(%s) unknown for "
                                 "the pair (%s, %s)"
                                 % (G.render(w), G.render(sample[i]),
                                    G.render(sample[j])))
            lv[i][j] = l.values[w]
    zero = LexElem((0,) * l.rank)
    # zero-distance classes; class representative is the earliest member
    class_of = list(range(n))
    for i in range(n):
        if class_of[i] != i:
            continue
        for j in range(i + 1, n):
            if class_of[j] == j and lv[i][j] == zero:
                class_of[j] = i
    reps_idx = sorted(set(class_of))
    members_of: Dict[int, List[int]] = {r: [] for r in reps_idx}
    for i in range(n):
        members_of[class_of[i]].append(i)
    for a in reps_idx:
        for b in reps_idx:
            want = lv[a][b]
            for i in members_of[a]:
                for j in members_of[b]:
                    if lv[i][j] != want:
                        raise ConstructionError(
                            "coset distance ill defined: l(%s^-1 %s) differs from "
                            "l(%s^-1 %s)" % (G.render(sample[a]), G.render(sample[b]),
                                             G.render(sample[i]), G.render(sample[j])))
    labels = [G.render(sample[r]) for r in reps_idx]
    dist = [[lv[a][b] for b in reps_idx] for a in reps_idx]
    space = FiniteLambdaSpace(labels, dist)
    report = validate_metric(space)
    if not report.ok:
        raise ConstructionError("coset distances fail %s at %s; the length "
                                "axioms do not hold on the sample"
                                % (report.axiom, report.witness))
    reps = {G.render(sample[r]): sample[r] for r in reps_idx}
    members = {sample[i]: G.render(sample[class_of[i]]) for i in range(n)}
    base = members[G.identity()]
    return CosetSpace(space, base, reps, members, l)


@dataclass(frozen=True)
class RegularReport:
    """Search outcome for the two regularity conditions at level k.

    r1 asks for a common prefix u with both halves and the remainder
    overlapping by at most k delta; r2 asks for u of the right length
    within k delta of all three Gromov products.  The two conditions
    imply one another with k shifted by one, which is cross-checked.
    """

    k: int
    r1_ok: bool
    r1_witness: Optional[Tuple[str, str]]
    r2_ok: bool
    r2_witness: Optional[Tuple[str, str]]
    r2_shift_ok: bool
    r2_shift_witness: Optional[Tuple[str, str]]
    implication_r1_to_r2: bool
    implication_r2_to_r1: bool
    pairs_checked: int
    pairs_skipped: int


def check_regular(l: LengthTable, sample: Sequence[Elem], k: int,
                  delta: LexElem) -> RegularReport:
    G = l.group
    sample = list(sample)
    kd2 = delta * (2 * k)
    kd2s = delta * (2 * (k + 1))
    pairs_checked = 0
    pairs_skipped = 0
    r1_bad = None
    r2_bad = None
    r2s_bad = None
    inv_cache = {g: G.inv(g) for g in sample}
    for g in sample:
        lg = l.values[g]
        for h in sample:
            lh = l.values[h]
            w = G.mul(inv_cache[g], h)
            if not l.has(w):
                pairs_skipped += 1
                continue
            lw = l.values[w]
            pairs_checked += 1
            c_gh2 = lg + lh - lw          # 2 c(g,h)
            c_g2 = lg + lw - lh           # 2 c(g^-1, g^-1 h)
            c_h2 = lh + lw - lg           # 2 c(h^-1, h^-1 g)
            need1 = r1_bad is None
            need2 = r2_bad is None
            need2s = r2s_bad is None
            found1 = found2 = found2s = False
            for u in sample:
                ui = inv_cache[u]
                ug = G.mul(ui, g)
                uh = G.mul(ui, h)
                if not (l.has(ug) and l.has(uh)):
                    continue
                lu = l.values[u]
                lug = l.values[ug]
                luh = l.values[uh]
                if not found1 and (lu + lug - lg <= kd2 and lu + luh - lh <= kd2
                                   and lug + luh - lw <= kd2):
                    found1 = True
                two_lu = lu * 2
                if not found2 and (two_lu <= c_gh2 + kd2
                                   and lug * 2 <= c_g2 + kd2
                                   and luh * 2 <= c_h2 + kd2):
                    found2 = True
                if not found2s and (two_lu <= c_gh2 + kd2s
                                    and lug * 2 <= c_g2 + kd2s
                                    and luh * 2 <= c_h2 + kd2s):
                    found2s = True
                if found1 and found2 and found2s:
                    break
            if need1 and not found1:
                r1_bad = (G.render(g), G.render(h))
            if need2 and not found2:
                r2_bad = (G.render(g), G.render(h))
            if need2s and not found2s:
                r2s_bad = (G.render(g), G.render(h))
    r1_ok = r1_bad is None
    r2_ok = r2_bad is None
    r2s_ok = r2s_bad is None
    return RegularReport(
        k, r1_ok, r1_bad, r2_ok, r2_bad, r2s_ok, r2s_bad,
        implication_r1_to_r2=(not r1_ok) or r2s_ok,
        implication_r2_to_r1=(not r2_ok) or r1_ok,
        pairs_checked=pairs_checked, pairs_skipped=pairs_skipped)


@dataclass(frozen=True)
class CompleteReport:
    complete: bool
    witness: Optional[Tuple[str, int]]
    prefix_gap_ok: bool
    prefix_gap_witness: Optional[Tuple[str, str, str, str]]
    prefix_gap_max: Optional[LexElem]
    elements_checked: int
    pairs_checked: int
    decomposition_pairs: int


def check_complete(l: LengthTable, sample: Sequence[Elem],
                   delta: LexElem) -> CompleteReport:
    """Every length below l(g) is realized by an exact prefix of g.

    Only integer lengths are scanned, so the table must be Z valued.
    The companion bound says two exact prefixes of g and h of equal
    length up to c(g,h) differ by at most 4 delta; its largest observed
    value is reported.
    """
    if l.rank != 1:
        raise InputError("completeness scan needs Z-valued lengths")
    G = l.group
    sample = list(sample)
    by_len: Dict[int, List[Elem]] = {}
    for u in sample:
        by_len.setdefault(l.values[u].coords[0], []).append(u)
    # exact splits g = u (u^-1 g) with no length lost, grouped by l(u)
    splits: Dict[Elem, Dict[int, List[Elem]]] = {}
    remainder: Dict[Tuple[Elem, Elem], Elem] = {}
    for g in sample:
        lg = l.values[g].coords[0]
        mine: Dict[int, List[Elem]] = {}
        for u in sample:
            ug = G.mul(G.inv(u), g)
            if not l.has(ug):
                continue
            lu = l.values[u].coords[0]
            if lu + l.values[ug].coords[0] == lg:
                mine.setdefault(lu, []).append(u)
                remainder[(u, g)] = ug
        splits[g] = mine
    complete = True
    witness = None
    elements_checked = 0
    for g in sample:
        lg = l.values[g].coords[0]
        elements_checked += 1
        for alpha in range(lg + 1):
            if not splits[g].get(alpha):
                if complete:
                    complete = False
                    witness = (G.render(g), alpha)
                break
    gap_ok = True
    gap_witness = None
    gap_max = None
    bound = delta * 4
    pairs_checked = 0
    decomposition_pairs = 0
    for g, h in combinations(sample, 2):
        c2 = _c2(l, g, h)
        if c2 is None:
            continue
        pairs_checked += 1
        for alpha, us in splits[g].items():
            if LexElem((2 * alpha,)) > c2:
                continue
            vs = splits[h].get(alpha)
            if not vs:
                continue
            for u in us:
                for v in vs:
                    uv = G.mul(G.inv(u), v)
                    if not l.has(uv):
                        continue
                    decomposition_pairs += 1
                    val = l.values[uv]
                    if gap_max is None or gap_max < val:
                        gap_max = val
                    if val > bound and gap_ok:
                        gap_ok = False
                        gap_witness = (G.render(g), G.render(h),
                                       G.render(u), G.render(v))
    return CompleteReport(complete, witness, gap_ok, gap_witness, gap_max,
                          elements_checked, pairs_checked, decomposition_pairs)


@dataclass(frozen=True)
class FreeReport:
    free: bool
    witness: Optional[str]
    kernel_trivial: bool
    checked: int
    skipped: int


def check_free(l: LengthTable, sample: Sequence[Elem],
               delta: LexElem) -> FreeReport:
    """Squares must gain more than 3 delta over the element itself."""
    G = l.group
    e = G.identity()
    bound = delta * 3
    checked = 0
    skipped = 0
    bad = None
    for g in sample:
        if g == e:
            continue
        gg = G.mul(g, g)
        if not l.has(gg):
            skipped += 1
            continue
        checked += 1
        if not l.values[gg] > l.values[g] + bound:
            if bad is None:
                bad = G.render(g)
    zero = LexElem((0,) * l.rank)
    kernel_trivial = all(l.values[g] != zero for g in sample if g != e)
    free = bad is None
    if free and not kernel_trivial:
        # a zero-length g has l(g^2) <= 0, so the scan cannot have passed
        raise ConstructionError("free verdict with a nontrivial kernel")
    return FreeReport(free, bad, kernel_trivial, checked, skipped)


@dataclass(frozen=True)
class QuasiReport:
    ok: bool
    witness: Optional[Tuple[str, str, str, str]]
    pairs_checked: int
    point_pairs_checked: int
    points_skipped: int


def quasigeodesic_check(cs: CosetSpace, delta: LexElem) -> QuasiReport:
    """Discrete paths from exact splits stay within 4 delta of geodesics.

    For cosets gA, hA every split g^-1 h = u (u^-1 g^-1 h) with no
    length lost yields a path point (g u)A at parameter l(u).  Any two
    such points must be at distance between their parameter gap and
    that gap plus 4 delta.
    """
    l = cs.table
    G = l.group
    sample = [cs.reps[lab] for lab in cs.space.labels]
    C = delta * 4
    ok = True
    witness = None
    pairs_checked = 0
    point_pairs = 0
    skipped = 0
    for g, h in combinations(sample, 2):
        w = G.mul(G.inv(g), h)
        if not l.has(w):
            continue
        lw = l.values[w]
        pairs_checked += 1
        stops: List[Tuple[LexElem, str]] = []
        for u in l.elements():
            uw = G.mul(G.inv(u), w)
            if not l.has(uw) or l.values[u] + l.values[uw] != lw:
                continue
            stop = G.mul(g, u)
            lab = cs.members.get(stop)
            if lab is None:
                skipped += 1
                continue
            stops.append((l.values[u], lab))
        for (alpha, pa), (beta, qb) in combinations(stops, 2):
            if beta < alpha:
                alpha, beta, pa, qb = beta, alpha, qb, pa
            point_pairs += 1
            gap = beta - alpha
            dd = cs.space.d(pa, qb)
            if not (gap <= dd <= gap + C):
                if ok:
                    ok = False
                    witness = (G.render(g), G.render(h), pa, qb)
    return QuasiReport(ok, witness, pairs_checked, point_pairs, skipped)


@dataclass(frozen=True)
class BallGroupReport:
    """Diagnostics for recovering a hyperbolic group from short elements."""

    short_count: int
    generates: bool
    unreached: Optional[str]
    delta: Optional[QLexElem]
    delta_witness: Optional[Tuple[str, str, str]]
    triples_checked: int
    triples_skipped: int


def finite_ball_hyperbolic_group_check(l: LengthTable,
                                       sample: Optional[Sequence[Elem]] = None
                                       ) -> BallGroupReport:
    """Short elements S = {l <= 1} should rebuild the sample by products."""
    if l.rank != 1:
        raise InputError("short-element scan needs Z-valued lengths")
    if sample is None:
        sample = l.elements()
    sample = list(sample)
    G = l.group
    one = LexElem((1,))
    short = [g for g in sample if l.values[g] <= one]
    in_sample = set(sample)
    reached = {G.identity()}
    frontier = [G.identity()]
    while frontier:
        g = frontier.pop()
        for s in short:
            h = G.mul(g, s)
            if h in in_sample and h not in reached:
                reached.add(h)
                frontier.append(h)
    unreached = next((G.render(g) for g in sample if g not in reached), None)
    delta, dwit, checked, skipped = _min_delta(l, sample)
    return BallGroupReport(len(short), unreached is None, unreached,
                           delta, dwit, checked, skipped)


@dataclass(frozen=True)
class Axiom4Scan:
    """Pairwise scan of the hyperbolicity axiom at a fixed delta."""

    violating_pairs: int
    witness: Optional[Tuple[str, str, str]]
    pairs_checked: int


def axiom4_scan(l: LengthTable, delta: LexElem,
                sample: Optional[Sequence[Elem]] = None) -> Axiom4Scan:
    """Count pairs (f,g) violating c(f,g) >= min(c(f,h), c(g,h)) - delta.

    The doubled Gromov products and 2*delta are packed into ints whose
    order and subtraction are those of the group, so the h scan runs at C
    speed.  Every product l(f^-1 g) must be present; use a table of twice
    the sample radius.
    """
    if sample is None:
        sample = l.elements()
    sample = list(sample)
    G = l.group
    n = len(sample)
    d2 = delta * 2
    rows: List[List[LexElem]] = []
    for i in range(n):
        row = []
        for j in range(n):
            val = _c2(l, sample[i], sample[j])
            if val is None:
                raise InputError("pair (%s, %s) has no Gromov product in the table"
                                 % (G.render(sample[i]), G.render(sample[j])))
            row.append(val)
        rows.append(row)
    packing = Packing([d2] + [v for row in rows for v in row])
    keys = [[packing.pack(v) for v in row] for row in rows]
    slack = packing.pack(d2)
    violations = 0
    witness = None
    pairs = 0
    for i in range(n):
        ki = keys[i]
        for j in range(i + 1, n):
            kj = keys[j]
            pairs += 1
            bar = max(map(min, ki, kj)) - slack
            if ki[j] < bar:
                violations += 1
                if witness is None:
                    h = max(range(n), key=lambda t: min(ki[t], kj[t]))
                    witness = (G.render(sample[i]), G.render(sample[j]),
                               G.render(sample[h]))
    return Axiom4Scan(violations, witness, pairs)
