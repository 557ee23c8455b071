"""Checks for length functions on groups.

A length function assigns to each group element a value in Z^n under
the right lexicographic order.  Everything here consumes a LengthTable
(finitely many elements with known lengths) and renders radius-stamped
verdicts: a property can only be confirmed on the listed elements, so
reports carry counts of checked and skipped items, where a skip means
some needed product fell outside the table.

All comparisons are exact.  Gromov products are half-integers at worst,
so internally the doubled quantity l(g) + l(h) - l(g^-1 h) is used and
halved only for display.  The scans over a sample index it once: a
_Sample holds every l(s_a) and l(s_a^-1 s_b), packed once into ints by
one Packing, so their loops compare ints and multiply no group elements.
The group elements come from the group's quotients table of s_a^-1 s_b,
which a direct product builds from its factors' tables, and the lengths
read off it are kept for the last table and sample, so the modes of one
lenfun command build one table.  The least delta is
``lspace.defect_scan``'s, over the known products, as for a basepoint;
the triples with a product unknown count as skipped.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import (Any, Dict, List, Mapping, NamedTuple, Optional, Sequence,
                    Tuple)

from .catalog import GroupHandle, LengthTable, generated_within
from .errors import ConstructionError, InputError
from .lspace import FiniteLambdaSpace, defect_scan, level_masks, validate_metric
from .ordgroup import LexElem, Packing, QLexElem, height

Elem = Any


@lru_cache(maxsize=1)
def _quotient_lengths(l: LengthTable, sample: Tuple[Elem, ...]):
    """The lengths a _Sample packs; the last table and sample's are kept,
    so the modes of one command multiply the sample once.

    Returns (lengths, quot): lengths[a] is l(s_a) and quot[a][b] is
    l(s_a^-1 s_b), one G.quotients table, or None when s_a^-1 s_b is
    outside the table.  The cache knows a table by its identity, so a
    table's values must not change once it has been read; every caller
    gets the same objects, so the rows are tuples.
    """
    get = l.values.get
    lengths = tuple([l.l(g) for g in sample])
    quot = tuple([tuple(map(get, row)) for row in l.group.quotients(sample, sample)])
    return lengths, quot


class _Sample:
    """A sample indexed 0..m-1, with its lengths packed into ints.

    ``elems[a]`` is the a-th element s_a, ``lengths[a]`` the code of
    l(s_a) and ``quot[a][b]`` the code of l(s_a^-1 s_b), or None when
    s_a^-1 s_b is outside the table; they come from _quotient_lengths.
    One Packing, built per sample, covers these lengths and ``extra``,
    the other lengths a scan compares against, whose codes are
    ``self.extra``; ``codes`` packs any row of them.  Every scan compares
    signed sums of at most PACK_HEADROOM codes, so integer order is the
    order of the group.  relhyp.RelCayley reads its edge weights and
    coset lengths off a sample of its coset representatives, with N as
    the one extra.
    """

    def __init__(self, l: LengthTable, sample: Sequence[Elem],
                 extra: Sequence[LexElem] = ()):
        elems = self.elems = list(sample)
        lengths, quot = _quotient_lengths(l, tuple(elems))
        self.packing = Packing([*lengths, *(v for row in quot for v in row if v is not None),
                                *extra])
        self.lengths = self.codes(lengths)
        self.quot = [self.codes(row) for row in quot]
        self.extra = self.codes(extra)

    def codes(self, row: Sequence[Optional[LexElem]]) -> List[Optional[int]]:
        pack = self.packing.pack
        return [None if v is None else pack(v) for v in row]

    def c2(self, a: int, b: int) -> Optional[int]:
        """Code of 2 c(s_a, s_b), or None if l(s_a^-1 s_b) is unknown."""
        q = self.quot[a][b]
        return None if q is None else self.lengths[a] + self.lengths[b] - q


def gromov_product(l: LengthTable, g: Elem, h: Elem) -> QLexElem:
    G = l.group
    w = G.mul(G.inv(g), h)
    if not l.has(w):
        raise InputError("product %s outside the length table" % G.render(w))
    return QLexElem(l.values[g] + l.values[h] - l.values[w], 2)


class AxiomReport(NamedTuple):
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


def _min_delta(l: LengthTable, S: _Sample):
    """Smallest delta making the hyperbolicity axiom hold on the sample.

    Returns (delta, witness, checked, skipped).  A sample of fewer than
    three elements holds the axiom vacuously, at delta zero; delta is
    None when the sample has triples but none had all three Gromov
    products available.  Only the products c(s_i, s_j) with i < j are
    read: ``defect_scan`` takes them mirrored, each row holding its known
    columns but the diagonal, with the known pairs i < j.  A second pass
    at delta finds the witness: the first triple in combinations order
    with a defect of delta, at the first of its pairs (i,j), (i,k), (j,k)
    with that defect, then the third point.  A pair's least such
    (triple, pair) key is at its lowest column.  S must pack zero among
    its extras.
    """
    L, Q = S.lengths, S.quot
    m = len(L)
    if m < 3:
        return QLexElem.zero(l.rank), None, 0, 0
    # D[i][j] = 2c(s_i, s_j) for a known pair i < j, and D[j][i] its mirror
    D = [{} for _ in L]
    partners = []
    for i, (la, row) in enumerate(zip(L, Q)):
        Di = D[i]
        js = [j for j in range(i + 1, m) if row[j] is not None]
        for j in js:
            Di[j] = D[j][i] = la + L[j] - row[j]
        partners.append(js)
    best, _, levels, above = defect_scan(D, partners, [Di.keys() for Di in D])
    checked, key, witness = 0, None, None
    for i, js in enumerate(partners):
        Di, li, ai = D[i], levels[i], above[i]
        # past row f, the first of the best key, only columns up to f beat it
        low = -1 if key is None or key[0][0] >= i else (2 << key[0][0]) - 1
        for j in js:
            checked += ((ai[0] & above[j][0]) >> (j + 1)).bit_count()
            bar = best + Di[j] - 1
            hit = ai[bisect_right(li, bar)] & above[j][bisect_right(levels[j], bar)] & low
            if hit:
                k = (hit & -hit).bit_length() - 1
                cand = (sorted((i, j, k)), (k < j) + (k < i))
                if key is None or cand < key:
                    key, witness = cand, (i, j, k)
    skipped = comb(len(S.elems), 3) - checked
    if witness is None:
        return None, None, checked, skipped
    names = tuple(l.group.render(S.elems[t]) for t in witness)
    return QLexElem(S.packing.unpack(best), 2), names, checked, skipped


def check_axioms(l: LengthTable, sample: Optional[Sequence[Elem]] = None) -> AxiomReport:
    """Non-negativity, symmetry, subadditivity and the least delta.

    Symmetry compares l(s_a^-1) with l(s_a), and subadditivity each
    l(s_a s_b) with l(s_a) + l(s_b).  For s_a^-1 = s_c in the sample these
    are l(s_c) and the _Sample's quotient row of c; the other a get theirs
    from one more G.quotients table, packed as the sample's extras.
    """
    if sample is None:
        sample = l.elements()
    G = l.group
    values = l.values
    zero = LexElem.zero(l.rank)
    elems = list(sample)
    index = {g: c for c, g in enumerate(elems)}
    inverses = [G.inv(g) for g in elems]
    outside = [a for a, gi in enumerate(inverses) if gi not in index]
    own = {}
    if outside:
        # (s_a^-1)^-1 s_b = s_a s_b
        rows = G.quotients([inverses[a] for a in outside], elems)
        own = {a: [values.get(inverses[a]), *map(values.get, row)]
               for a, row in zip(outside, rows)}
    S = _Sample(l, elems, [zero, *(v for row in own.values() for v in row if v is not None)])
    lengths = S.lengths
    nonneg_ok, nonneg_witness = True, None
    if values[G.identity()] != zero:
        nonneg_ok, nonneg_witness = False, G.render(G.identity())
    if nonneg_ok:
        a = next((a for a, lg in enumerate(lengths) if lg < 0), None)
        if a is not None:
            nonneg_ok, nonneg_witness = False, G.render(elems[a])
    symmetric_ok, symmetric_witness = True, None
    inv_skipped = 0
    bad = None
    m = len(elems)
    pairs_checked = 0
    for a, (lg, gi) in enumerate(zip(lengths, inverses)):
        if a in own:
            li, *row = S.codes(own[a])
        else:
            c = index[gi]
            li, row = lengths[c], S.quot[c]
        if symmetric_ok:
            if li is None:
                inv_skipped += 1
            elif li != lg:
                symmetric_ok, symmetric_witness = False, G.render(elems[a])
        pairs_checked += m - row.count(None)
        if bad is None:
            b = next((b for b, (lh, q) in enumerate(zip(lengths, row))
                      if q is not None and lg + lh < q), None)
            if b is not None:
                bad = (a, b)
    subadditive_ok = bad is None
    subadditive_witness = None if bad is None else tuple(G.render(elems[t]) for t in bad)
    delta, delta_witness, triples_checked, triples_skipped = _min_delta(l, S)
    return AxiomReport(nonneg_ok, nonneg_witness, symmetric_ok, symmetric_witness,
                       subadditive_ok, subadditive_witness, delta, delta_witness,
                       inv_skipped, pairs_checked, m * m - pairs_checked,
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


class KernelReport(NamedTuple):
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


class Lambda0Report(NamedTuple):
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
        S = _Sample(l, members, (delta * 2,))
        (d2,) = S.extra
        for a, b, c in combinations(range(len(members)), 3):
            cab, cac, cbc = S.c2(a, b), S.c2(a, c), S.c2(b, c)
            if None in (cab, cac, cbc):
                continue
            checked += 1
            if not vacuous_ok:
                continue
            for pair, u, w in ((cab, cac, cbc), (cac, cab, cbc), (cbc, cab, cac)):
                low = u if u < w else w
                if not (low - d2 < 0 <= pair):
                    vacuous_ok = False
                    witness = tuple(l.group.render(members[t]) for t in (a, b, c))
                    break
        skipped = comb(len(members), 3) - checked
    return Lambda0Report(members, i, vacuous_ok, witness, checked, skipped)


class CosetSpace(NamedTuple):
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
    S = _Sample(l, sample)
    lv = S.quot
    n = len(sample)
    for i in range(n):
        for j in range(n):
            if lv[i][j] is None:
                w = G.mul(G.inv(sample[i]), sample[j])
                raise InputError("sample is not product closed: l(%s) unknown for "
                                 "the pair (%s, %s)"
                                 % (G.render(w), G.render(sample[i]),
                                    G.render(sample[j])))
    # zero-distance classes; class representative is the earliest member
    class_of = list(range(n))
    for i in range(n):
        if class_of[i] != i:
            continue
        for j in range(i + 1, n):
            if class_of[j] == j and lv[i][j] == 0:
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
    lex = {c: S.packing.unpack(c) for c in {lv[a][b] for a in reps_idx for b in reps_idx}}
    dist = [[lex[lv[a][b]] for b in reps_idx] for a in reps_idx]
    space = FiniteLambdaSpace(labels, dist)
    report = validate_metric(space)
    if not report.ok:
        raise ConstructionError("coset distances fail %s; the length axioms "
                                "do not hold on the sample" % (report,))
    reps = {G.render(sample[r]): sample[r] for r in reps_idx}
    members = {sample[i]: G.render(sample[class_of[i]]) for i in range(n)}
    base = members[G.identity()]
    return CosetSpace(space, base, reps, members, l)


class RegularReport(NamedTuple):
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
    S = _Sample(l, sample, (delta * (2 * k), delta * (2 * (k + 1))))
    kd2, kd2s = S.extra
    name = [l.group.render(g) for g in S.elems]
    L = S.lengths
    # cols[a][c] = l(s_c^-1 s_a), what is left of s_a after the prefix s_c
    cols = list(zip(*S.quot))
    pairs_checked = pairs_skipped = 0
    r1_bad = r2_bad = r2s_bad = None
    for a, lg in enumerate(L):
        for b, lh in enumerate(L):
            lw = S.quot[a][b]
            if lw is None:
                pairs_skipped += 1
                continue
            pairs_checked += 1
            c_gh2 = lg + lh - lw          # 2 c(g,h)
            c_g2 = lg + lw - lh           # 2 c(g^-1, g^-1 h)
            c_h2 = lh + lw - lg           # 2 c(h^-1, h^-1 g)
            # a condition that already failed needs no further witness
            found1, found2, found2s = (r1_bad is not None, r2_bad is not None,
                                       r2s_bad is not None)
            for lu, lug, luh in zip(L, cols[a], cols[b]):
                if lug is None or luh is None:
                    continue
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
            if not found1:
                r1_bad = (name[a], name[b])
            if not found2:
                r2_bad = (name[a], name[b])
            if not found2s:
                r2s_bad = (name[a], name[b])
    r1_ok = r1_bad is None
    r2_ok = r2_bad is None
    r2s_ok = r2s_bad is None
    return RegularReport(
        k, r1_ok, r1_bad, r2_ok, r2_bad, r2s_ok, r2s_bad,
        implication_r1_to_r2=(not r1_ok) or r2s_ok,
        implication_r2_to_r1=(not r2_ok) or r1_ok,
        pairs_checked=pairs_checked, pairs_skipped=pairs_skipped)


class CompleteReport(NamedTuple):
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
    S = _Sample(l, sample, (delta * 4,))
    (bound,) = S.extra
    # rank one: the codes are the lengths themselves
    L, Q = S.lengths, S.quot
    # splits[b][alpha]: the a with s_b = s_a (s_a^-1 s_b) and no length lost,
    # that is l(s_a) = alpha and l(s_a) + l(s_a^-1 s_b) = l(s_b)
    splits: List[Dict[int, List[int]]] = []
    for b, lg in enumerate(L):
        mine: Dict[int, List[int]] = {}
        for a, lu in enumerate(L):
            rest = Q[a][b]
            if rest is not None and lu + rest == lg:
                mine.setdefault(lu, []).append(a)
        splits.append(mine)
    complete = True
    witness = None
    elements_checked = 0
    for b, lg in enumerate(L):
        elements_checked += 1
        for alpha in range(lg + 1):
            if not splits[b].get(alpha):
                if complete:
                    complete = False
                    witness = (G.render(S.elems[b]), alpha)
                break
    gap_ok, gap_witness, gap_max = True, None, None
    pairs_checked = decomposition_pairs = 0
    for g, h in combinations(range(len(L)), 2):
        c2 = S.c2(g, h)
        if c2 is None:
            continue
        pairs_checked += 1
        for alpha, us in splits[g].items():
            if 2 * alpha > c2:
                continue
            vs = splits[h].get(alpha)
            if not vs:
                continue
            for u in us:
                for v in vs:
                    val = Q[u][v]
                    if val is None:
                        continue
                    decomposition_pairs += 1
                    if gap_max is None or gap_max < val:
                        gap_max = val
                    if val > bound and gap_ok:
                        gap_ok = False
                        gap_witness = tuple(G.render(S.elems[t]) for t in (g, h, u, v))
    if gap_max is not None:
        gap_max = S.packing.unpack(gap_max)
    return CompleteReport(complete, witness, gap_ok, gap_witness, gap_max,
                          elements_checked, pairs_checked, decomposition_pairs)


class FreeReport(NamedTuple):
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


class QuasiReport(NamedTuple):
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
    splits = [(u, G.inv(u), lu) for u, lu in l.values.items()]
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
        for u, uinv, lu in splits:
            luw = l.values.get(G.mul(uinv, w))
            if luw is None or lu + luw != lw:
                continue
            lab = cs.members.get(G.mul(g, u))
            if lab is None:
                skipped += 1
                continue
            stops.append((lu, lab))
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


class BallGroupReport(NamedTuple):
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
    short = [g for g in sample if l.l(g) <= one]
    reached = generated_within(G, short, set(sample))
    unreached = next((G.render(g) for g in sample if g not in reached), None)
    S = _Sample(l, sample, (LexElem.zero(l.rank),))
    delta, dwit, checked, skipped = _min_delta(l, S)
    return BallGroupReport(len(short), unreached is None, unreached,
                           delta, dwit, checked, skipped)


class Axiom4Scan(NamedTuple):
    """Pairwise scan of the hyperbolicity axiom at a fixed delta."""

    violating_pairs: int
    witness: Optional[Tuple[str, str, str]]
    pairs_checked: int


def axiom4_scan(l: LengthTable, delta: LexElem,
                sample: Optional[Sequence[Elem]] = None) -> Axiom4Scan:
    """Count pairs (f,g) violating c(f,g) >= min(c(f,h), c(g,h)) - delta.

    The pair (s_i, s_j), i < j, violates exactly when some column t has
    both 2c(s_i, s_t) and 2c(s_j, s_t) above 2c(s_i, s_j) + 2 delta.  Each
    row keeps its distinct doubled products in increasing order and, for
    each, the bitmask of the columns at or above it; bisection finds the
    two masks above the threshold and the pair violates when they meet.
    The witness h, a column maximising min(c(f,h), c(g,h)), is found for
    the first violation only.  Every product l(f^-1 g) must be present;
    use a table of twice the sample radius.
    """
    if sample is None:
        sample = l.elements()
    G = l.group
    S = _Sample(l, sample, (delta * 2,))
    n = len(S.elems)
    keys = []
    for i in range(n):
        row = [S.c2(i, j) for j in range(n)]
        if None in row:
            j = row.index(None)
            raise InputError("pair (%s, %s) has no Gromov product in the table"
                             % (G.render(S.elems[i]), G.render(S.elems[j])))
        keys.append(row)
    (slack,) = S.extra
    levels, above = zip(*map(level_masks, keys, [range(n)] * n)) if keys else ((), ())
    violations = 0
    witness = None
    for i in range(n):
        ki, li, ai = keys[i], levels[i], above[i]
        for j in range(i + 1, n):
            bar = ki[j] + slack
            if ai[bisect_right(li, bar)] & above[j][bisect_right(levels[j], bar)]:
                violations += 1
                if witness is None:
                    kj = keys[j]
                    h = max(range(n), key=lambda t: min(ki[t], kj[t]))
                    witness = (G.render(S.elems[i]), G.render(S.elems[j]),
                               G.render(S.elems[h]))
    return Axiom4Scan(violations, witness, n * (n - 1) // 2)
