"""Isometries of finite spaces and their classification certificates.

An isometry of a finite space is a permutation of its points that
preserves every distance.  On finite models only certificates can be
issued: an orbit bound certifies elliptic behaviour, the doubling
inequality d(x, pi^2 x) > d(x, pi x) + 3 delta certifies that the map
is not elliptic (it moves some point too fast), and inversions show up
through the action on classes of the convex-subgroup relation.
Parabolic behaviour needs unbounded orbits and has no finite witness,
so the residual tag is Undetermined.
"""

from __future__ import annotations

from itertools import combinations
from math import lcm
from typing import (Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from .errors import ConstructionError, InputError, int_token, quoted
from .lspace import (FiniteLambdaSpace, _tokens, convex_classes, min_delta_4pt,
                     quotient_by_convex, require_four_point, require_metric)
from .ordgroup import LexElem, height


class IsoPerm:
    """A verified isometric permutation of a finite space."""

    __slots__ = ("space", "perm", "cycles", "order")

    def __init__(self, space: FiniteLambdaSpace, perm: Sequence[int]) -> None:
        n = len(space)
        perm = tuple(perm)
        if len(perm) != n:
            raise InputError("permutation has %d images for %d points" % (len(perm), n))
        if sorted(perm) != list(range(n)):
            raise InputError("not a permutation of 0..%d: %s"
                             % (n - 1, quoted(" ".join(map(str, perm)))))
        ok, witness = check_isometry(space, perm)
        if not ok:
            raise InputError("permutation does not preserve d(%s, %s)" % witness)
        self.space = space
        self.perm = perm
        # cycles start at their least points, in the order of those points,
        # so the elliptic witness is the first label whose orbit is short
        cycles = []
        seen = set()
        for i in range(n):
            if i not in seen:
                cycle = [i]
                while perm[cycle[-1]] != i:
                    cycle.append(perm[cycle[-1]])
                seen.update(cycle)
                cycles.append(tuple(cycle))
        self.cycles = tuple(cycles)
        self.order = lcm(*map(len, cycles))

    def apply(self, label: str) -> str:
        return self.space.labels[self.perm[self.space.index(label)]]

    def power(self, k: int) -> "IsoPerm":
        image = [0] * len(self.perm)
        for cycle in self.cycles:
            for t, i in enumerate(cycle):
                image[i] = cycle[(t + k) % len(cycle)]
        return IsoPerm(self.space, image)

    def inverse(self) -> "IsoPerm":
        inv = [0] * len(self.perm)
        for i, j in enumerate(self.perm):
            inv[j] = i
        return IsoPerm(self.space, inv)

    def compose(self, other: "IsoPerm") -> "IsoPerm":
        # self after other
        if other.space is not self.space and other.space.labels != self.space.labels:
            raise InputError("cannot compose isometries of different spaces")
        return IsoPerm(self.space, tuple(self.perm[j] for j in other.perm))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IsoPerm) and other.perm == self.perm

    def __hash__(self) -> int:
        return hash(self.perm)

    def __repr__(self) -> str:
        return "IsoPerm(%r)" % (self.perm,)


def identity_perm(space: FiniteLambdaSpace) -> IsoPerm:
    return IsoPerm(space, range(len(space)))


def check_isometry(space: FiniteLambdaSpace, perm: Sequence[int]
                   ) -> Tuple[bool, Optional[Tuple[str, str]]]:
    """True when the permutation preserves all distances; else a witness pair."""
    perm = tuple(perm)
    dist = space.dist
    for i, j in combinations(range(len(space)), 2):
        if dist[perm[i]][perm[j]] != dist[i][j]:
            return False, (space.labels[i], space.labels[j])
    return True, None


def orbit_diameter(space: FiniteLambdaSpace, pi: IsoPerm, x: str) -> LexElem:
    i = space.index(x)
    orbit = next(c for c in pi.cycles if i in c)
    best = space.dist[i][i]
    for a, b in combinations(orbit, 2):
        if space.dist[a][b] > best:
            best = space.dist[a][b]
    return best


class ClassCert(NamedTuple):
    """Classification certificate; kind names what was witnessed.

    elliptic: some orbit has diameter at most K delta.
    hyperbolic_or_inversion: some x moves faster than 3 delta allows;
    on finite models the two cases cannot be told apart without
    comparability of delta and the displacement.
    inversion: no class of the delta-convexity relation is preserved,
    but the square preserves one.
    undetermined: none of the above within the scanned horizon.
    """

    kind: str
    witness: Optional[str]
    K: Optional[int]
    horizon: str


def classify_certificate(space: FiniteLambdaSpace, pi: IsoPerm, delta: LexElem,
                         K: int) -> ClassCert:
    if K < 0:
        raise InputError("K must be a natural number")
    if len(delta.coords) != space.rank:
        raise InputError("delta rank %d does not match the space rank %d"
                         % (len(delta.coords), space.rank))
    # the four-point scans are exact only on a metric, which nothing
    # before this point checks
    require_metric(space)
    require_four_point(space, delta)
    horizon = "%d basepoints, K=%d" % (len(space), K)
    bound3 = delta * 3
    for i, lab in enumerate(space.labels):
        j = pi.perm[i]
        jj = pi.perm[j]
        if space.dist[i][jj] > space.dist[i][j] + bound3:
            return ClassCert("hyperbolic_or_inversion", lab, None, horizon)
    bound_orb = delta * K
    for cycle in pi.cycles:
        lab = space.labels[cycle[0]]
        if orbit_diameter(space, pi, lab) <= bound_orb:
            return ClassCert("elliptic", lab, K, horizon)
    i = height(delta)
    if 0 < i <= space.rank:
        cls = convex_classes(space, i)
        induced = _induced_class_map(pi, cls)
        fixed = [c for c in range(len(cls)) if induced[c] == c]
        if not fixed:
            square = [induced[induced[c]] for c in range(len(cls))]
            fixed2 = [c for c in range(len(cls)) if square[c] == c]
            if fixed2:
                members = cls[fixed2[0]]
                name = ",".join(space.labels[m] for m in members)
                return ClassCert("inversion", name, None, horizon)
    return ClassCert("undetermined", None, None, horizon)


def _induced_class_map(pi: IsoPerm, cls: List[List[int]]) -> List[int]:
    where = {}
    for c, members in enumerate(cls):
        for m in members:
            where[m] = c
    out = []
    for c, members in enumerate(cls):
        images = {where[pi.perm[m]] for m in members}
        if len(images) != 1:
            raise ConstructionError("isometry does not permute convexity classes; "
                                    "class %d scatters to %s" % (c, sorted(images)))
        out.append(images.pop())
    return out


PartialMap = Mapping[str, str]


def _apply_partial(pi: Union[IsoPerm, PartialMap], label: str) -> Optional[str]:
    if isinstance(pi, IsoPerm):
        return pi.apply(label)
    return pi.get(label)


class TreeTranslationReport(NamedTuple):
    value: Optional[LexElem]
    independent: bool
    profile: Tuple[Tuple[str, LexElem], ...]


def translation_length_tree(space: FiniteLambdaSpace,
                            pi: Union[IsoPerm, PartialMap],
                            y: Optional[str] = None) -> TreeTranslationReport:
    """max{d(y, pi^2 y) - d(y, pi y), 0} on a 0-hyperbolic space.

    Accepts a partial point map (a dict) so shifts of finite segments
    can be measured; the formula is evaluated wherever pi y and pi^2 y
    exist.  On tree metrics the value does not depend on y, which the
    report states after a full sweep.
    """
    require_metric(space)
    if not min_delta_4pt(space).is_zero():
        raise InputError("translation length needs a 0-hyperbolic space")
    if not isinstance(pi, IsoPerm):
        for a, b in combinations(pi, 2):
            if pi[a] not in space.labels or pi[b] not in space.labels:
                raise InputError("partial map leaves the space")
            if space.d(pi[a], pi[b]) != space.d(a, b):
                raise InputError("partial map is not an isometry at (%s, %s)"
                                 % (a, b))
    zero = LexElem((0,) * space.rank)
    profile: List[Tuple[str, LexElem]] = []
    for lab in space.labels:
        once = _apply_partial(pi, lab)
        if once is None:
            continue
        twice = _apply_partial(pi, once)
        if twice is None:
            continue
        gain = space.d(lab, twice) - space.d(lab, once)
        profile.append((lab, gain if gain > zero else zero))
    if y is not None:
        if y not in space.labels:
            raise InputError("basepoint %r is not in the space" % y)
        chosen = dict(profile).get(y)
        if chosen is None:
            raise InputError("the map is undefined at %r or its image" % y)
    else:
        chosen = profile[0][1] if profile else None
    independent = len({v for _, v in profile}) <= 1
    return TreeTranslationReport(chosen, independent, tuple(profile))


def induce_on_quotient(space: FiniteLambdaSpace, pi: IsoPerm,
                       i: int) -> Tuple[FiniteLambdaSpace, IsoPerm]:
    """Push the isometry down to the quotient by the i-th convex level."""
    cls = convex_classes(space, i)
    quotient = quotient_by_convex(space, i)
    induced = _induced_class_map(pi, cls)
    try:
        qperm = IsoPerm(quotient, induced)
    except InputError as exc:
        raise ConstructionError("induced class map is not an isometry of the "
                                "quotient: %s" % exc) from exc
    return quotient, qperm


def preserved_convex_systems(space: FiniteLambdaSpace,
                             pi: IsoPerm) -> Tuple[Tuple[int, str], ...]:
    """Proper invariant classes of each convexity level, as a diagnostic.

    An empty result at every level means no obstruction to minimality
    was found among the class systems; it is not a minimality proof.
    """
    n = len(space)
    out: List[Tuple[int, str]] = []
    for i in range(space.rank):
        cls = convex_classes(space, i)
        induced = _induced_class_map(pi, cls)
        for c, members in enumerate(cls):
            if induced[c] == c and len(members) < n:
                out.append((i, ",".join(space.labels[m] for m in members)))
    return tuple(out)


def isometries_extending(space: FiniteLambdaSpace, fixed: Mapping[str, str],
                         limit: Optional[int] = None) -> Iterator[IsoPerm]:
    """All isometries agreeing with a partial assignment, by backtracking.

    Yields at most ``limit`` results.  Used to confirm uniqueness of
    completion extensions by exhausting the alternatives.
    """
    n = len(space)
    dist = space.dist
    assign = [-1] * n
    used = [False] * n
    for src, dst in fixed.items():
        i, j = space.index(src), space.index(dst)
        if assign[i] not in (-1, j) or (used[j] and assign[i] != j):
            raise InputError("inconsistent partial assignment at %r" % src)
        assign[i] = j
        used[j] = True
    pinned = [i for i in range(n) if assign[i] >= 0]
    for a, b in combinations(pinned, 2):
        if dist[a][b] != dist[assign[a]][assign[b]]:
            return iter(())  # no isometry can extend a distorted assignment
    free = [i for i in range(n) if assign[i] < 0]
    found = 0

    def fits(i: int, j: int) -> bool:
        for k in range(n):
            if assign[k] >= 0 and dist[i][k] != dist[j][assign[k]]:
                return False
        return True

    def rec(pos: int) -> Iterator[IsoPerm]:
        nonlocal found
        if limit is not None and found >= limit:
            return
        if pos == len(free):
            found += 1
            yield IsoPerm(space, assign)
            return
        i = free[pos]
        for j in range(n):
            if not used[j] and fits(i, j):
                assign[i] = j
                used[j] = True
                yield from rec(pos + 1)
                assign[i] = -1
                used[j] = False
                if limit is not None and found >= limit:
                    return

    return rec(0)


def read_perm(text: str) -> Tuple[int, ...]:
    """One line of space-separated image indices."""
    perm = tuple(int_token(t, "image") for t in _tokens(text))
    if sorted(perm) != list(range(len(perm))):
        raise InputError("not a permutation of 0..%d" % (len(perm) - 1))
    return perm


def write_perm(perm: Sequence[int]) -> str:
    return " ".join(str(i) for i in perm) + "\n"
