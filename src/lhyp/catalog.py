"""Group handles and length data used throughout the toolkit.

Four families of groups are supported: free groups of finite rank,
finite groups given by a multiplication table, direct products and
free products of two previously built groups.  Elements are kept in
canonical form (reduced words, table indices, pairs, alternating
syllable strings), so equality of canonical forms is equality in the
group.

The module also hosts the plain length-data containers: finite balls,
length tables, and the two composite length constructions (direct
product lengths with the second factor dominating, free product
lengths with a unit mark in the extra coordinate).
"""

from __future__ import annotations

import string
from collections import deque
from functools import lru_cache
from operator import add
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .errors import ConstructionError, InputError, int_token, quoted
from .lspace import FiniteLambdaSpace, _lines, validate_metric
from .ordgroup import LexElem
from .geodspace import GeodesicGraph

Elem = Any


class GroupHandle:
    """Common protocol for group implementations.

    Subclasses provide identity/mul/inv/gens plus a render/parse pair
    that round-trips canonical forms through single whitespace-free
    tokens.  ``kind`` names the family for serialization.  quotients
    yields the rows of the table of x^-1 y over two lists of elements; a
    family may build them faster than one mul per pair.
    """

    kind = "abstract"

    def identity(self) -> Elem:
        raise NotImplementedError

    def mul(self, a: Elem, b: Elem) -> Elem:
        raise NotImplementedError

    def inv(self, a: Elem) -> Elem:
        raise NotImplementedError

    def gens(self) -> Tuple[Elem, ...]:
        raise NotImplementedError

    def render(self, a: Elem) -> str:
        raise NotImplementedError

    def parse(self, text: str) -> Elem:
        raise NotImplementedError

    def quotients(self, xs: Sequence[Elem], ys: Sequence[Elem]) -> Iterator[List[Elem]]:
        """The rows of the table of x^-1 y, one at a time: row a holds
        xs[a]^-1 ys[b] at column b."""
        mul, inv = self.mul, self.inv
        return ([mul(xi, y) for y in ys] for xi in map(inv, xs))


@lru_cache(maxsize=None)
def _letter_codes(rank: int) -> Dict[str, int]:
    """The letters of the free group of that rank, mapped to their ints."""
    codes = {}
    for i in range(rank):
        codes[string.ascii_lowercase[i]] = i + 1
        codes[string.ascii_uppercase[i]] = -(i + 1)
    return codes


class FreeGroup(GroupHandle):
    """Free group of rank r; elements are reduced words.

    A word is a tuple of nonzero integers, letter i meaning the i-th
    generator and -i its inverse.  Rendering uses a..z for generators
    and A..Z for their inverses, so the rank is capped at 26.
    """

    kind = "free"
    __slots__ = ("rank",)

    def __init__(self, rank: int) -> None:
        if not isinstance(rank, int) or rank < 1 or rank > 26:
            raise InputError("free group rank must be an integer in 1..26")
        self.rank = rank

    def identity(self) -> Tuple[int, ...]:
        return ()

    def mul(self, a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
        # a and b are reduced, so only the letters where they meet cancel
        if not a or not b or a[-1] != -b[0]:
            return a + b
        n = len(a)
        k = 1
        top = min(n, len(b))
        while k < top and a[n - 1 - k] == -b[k]:
            k += 1
        return a[:n - k] + b[k:]

    def inv(self, a: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(-x for x in reversed(a))

    def gens(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple((i,) for i in range(1, self.rank + 1))

    def render(self, a: Tuple[int, ...]) -> str:
        if not a:
            return "1"
        chars = []
        for x in a:
            letter = string.ascii_lowercase[abs(x) - 1]
            chars.append(letter if x > 0 else letter.upper())
        return "".join(chars)

    def parse(self, text: str) -> Tuple[int, ...]:
        if text == "1":
            return ()
        codes = _letter_codes(self.rank)
        try:
            letters = tuple([codes[ch] for ch in text])
        except KeyError:
            # name the first character the table lacks
            ch = next(ch for ch in text if ch not in codes)
            if ch not in string.ascii_letters:
                raise InputError("bad letter %s in word %s"
                                 % (quoted(ch), quoted(text))) from None
            raise InputError("letter %s outside rank %d" % (quoted(ch), self.rank)) from None
        if 0 in map(add, letters, letters[1:]):
            raise InputError("word %s is not reduced" % quoted(text))
        return letters

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FreeGroup) and other.rank == self.rank

    def __hash__(self) -> int:
        return hash(("free", self.rank))

    def __repr__(self) -> str:
        return "FreeGroup(%d)" % self.rank


class FiniteGroup(GroupHandle):
    """Finite group given by a full multiplication table.

    table[i][j] is the index of the product of elements i and j; index
    0 must be the identity.  The table is checked to be a Latin square
    with inverses and associative, so a bad table fails fast.
    """

    kind = "finite"
    __slots__ = ("table", "names", "_inv")

    def __init__(self, table: Sequence[Sequence[int]],
                 names: Optional[Sequence[str]] = None) -> None:
        k = len(table)
        if k < 1:
            raise InputError("empty multiplication table")
        tab = tuple(tuple(row) for row in table)
        for row in tab:
            if len(row) != k or any(not (0 <= v < k) for v in row):
                raise InputError("multiplication table must be %d x %d over 0..%d"
                                 % (k, k, k - 1))
        for i in range(k):
            if tab[0][i] != i or tab[i][0] != i:
                raise InputError("index 0 is not an identity")
            if len(set(tab[i])) != k or len({tab[j][i] for j in range(k)}) != k:
                raise InputError("row or column %d is not a permutation" % i)
        inv = [-1] * k
        for i in range(k):
            for j in range(k):
                if tab[i][j] == 0:
                    inv[i] = j
        if any(v < 0 for v in inv):
            raise InputError("some element has no inverse")
        for i in range(k):
            for j in range(k):
                for m in range(k):
                    if tab[tab[i][j]][m] != tab[i][tab[j][m]]:
                        raise InputError(
                            "table is not associative at (%d,%d,%d)" % (i, j, m))
        if names is None:
            names = ["1"] + ["g%d" % i for i in range(1, k)]
        names = tuple(names)
        if len(names) != k or len(set(names)) != k:
            raise InputError("need %d distinct element names" % k)
        if any((not n) or n.split() != [n] for n in names):
            raise InputError("element names must be nonempty single tokens")
        self.table = tab
        self.names = names
        self._inv = tuple(inv)

    @classmethod
    def cyclic(cls, m: int) -> "FiniteGroup":
        if m < 1:
            raise InputError("cyclic group order must be positive")
        table = [[(i + j) % m for j in range(m)] for i in range(m)]
        names = ["1"] + (["r"] if m > 1 else []) + ["r%d" % i for i in range(2, m)]
        return cls(table, names)

    def identity(self) -> int:
        return 0

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def gens(self) -> Tuple[int, ...]:
        # every non-identity element; minimal generating sets are not needed
        return tuple(range(1, len(self.table)))

    def render(self, a: int) -> str:
        return self.names[a]

    def parse(self, text: str) -> int:
        try:
            return self.names.index(text)
        except ValueError:
            raise InputError("unknown element name %s" % quoted(text)) from None

    def __len__(self) -> int:
        return len(self.table)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FiniteGroup) and other.table == self.table
                and other.names == self.names)

    def __hash__(self) -> int:
        return hash(("finite", self.table, self.names))

    def __repr__(self) -> str:
        return "FiniteGroup(order=%d)" % len(self.table)


def _positions(items: Sequence[Elem]) -> Dict[Elem, int]:
    """Each distinct item mapped to its place among them, in order of
    first appearance."""
    positions: Dict[Elem, int] = {}
    for c in items:
        positions.setdefault(c, len(positions))
    return positions


class DirectProduct(GroupHandle):
    """Direct product of two groups; elements are pairs."""

    kind = "product"
    __slots__ = ("left", "right")

    def __init__(self, left: GroupHandle, right: GroupHandle) -> None:
        self.left = left
        self.right = right

    def identity(self) -> Tuple[Elem, Elem]:
        return (self.left.identity(), self.right.identity())

    def mul(self, a: Tuple[Elem, Elem], b: Tuple[Elem, Elem]) -> Tuple[Elem, Elem]:
        return (self.left.mul(a[0], b[0]), self.right.mul(a[1], b[1]))

    def inv(self, a: Tuple[Elem, Elem]) -> Tuple[Elem, Elem]:
        return (self.left.inv(a[0]), self.right.inv(a[1]))

    def quotients(self, xs: Sequence[Tuple[Elem, Elem]],
                  ys: Sequence[Tuple[Elem, Elem]]) -> Iterator[List[Tuple[Elem, Elem]]]:
        # each factor builds its table once over its distinct components,
        # and each pair reads its two entries off those tables by index
        halves = []
        for side, factor in enumerate((self.left, self.right)):
            xcomp = [x[side] for x in xs]
            ycomp = [y[side] for y in ys]
            xpos = _positions(xcomp)
            ypos = _positions(ycomp)
            table = list(factor.quotients(list(xpos), list(ypos)))
            halves.append(([table[xpos[c]] for c in xcomp], [ypos[c] for c in ycomp]))
        (lrows, lcols), (rrows, rcols) = halves
        return (list(zip(map(lrow.__getitem__, lcols), map(rrow.__getitem__, rcols)))
                for lrow, rrow in zip(lrows, rrows))

    def gens(self) -> Tuple[Tuple[Elem, Elem], ...]:
        el, er = self.left.identity(), self.right.identity()
        return (tuple((g, er) for g in self.left.gens())
                + tuple((el, g) for g in self.right.gens()))

    def render(self, a: Tuple[Elem, Elem]) -> str:
        return "%s|%s" % (self.left.render(a[0]), self.right.render(a[1]))

    def parse(self, text: str) -> Tuple[Elem, Elem]:
        # the left component must not itself contain a separator
        if "|" not in text:
            raise InputError("product element %s lacks a | separator" % quoted(text))
        ls, rs = text.split("|", 1)
        return (self.left.parse(ls), self.right.parse(rs))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, DirectProduct) and other.left == self.left
                and other.right == self.right)

    def __hash__(self) -> int:
        return hash(("product", self.left, self.right))

    def __repr__(self) -> str:
        return "DirectProduct(%r, %r)" % (self.left, self.right)


class FreeProduct(GroupHandle):
    """Free product of two groups.

    Elements are tuples of syllables (side, x) with side 0 for the left
    factor and 1 for the right one, sides alternating and every x a
    non-identity element of its factor.  Multiplication concatenates
    and merges at the seam until the form is alternating again.
    """

    kind = "freeprod"
    __slots__ = ("factors",)

    def __init__(self, left: GroupHandle, right: GroupHandle) -> None:
        self.factors = (left, right)

    def identity(self) -> Tuple[Tuple[int, Elem], ...]:
        return ()

    def element(self, syllables: Sequence[Tuple[int, Elem]]) -> Tuple[Tuple[int, Elem], ...]:
        """Validate raw syllables and return the alternating normal form."""
        for side, x in syllables:
            if side not in (0, 1):
                raise InputError("syllable side must be 0 or 1, got %r" % (side,))
        out: Tuple[Tuple[int, Elem], ...] = ()
        for syl in syllables:
            out = self.mul(out, (syl,) if syl[1] != self.factors[syl[0]].identity() else ())
        return out

    def mul(self, a, b):
        out = list(a)
        for side, x in b:
            if out and out[-1][0] == side:
                pside, px = out.pop()
                prod = self.factors[side].mul(px, x)
                if prod != self.factors[side].identity():
                    out.append((side, prod))
            else:
                out.append((side, x))
        return tuple(out)

    def inv(self, a):
        return tuple((side, self.factors[side].inv(x)) for side, x in reversed(a))

    def gens(self):
        return (tuple(((0, g),) for g in self.factors[0].gens())
                + tuple(((1, g),) for g in self.factors[1].gens()))

    def render(self, a) -> str:
        if not a:
            return "1"
        tags = "LR"
        return "*".join("%s(%s)" % (tags[side], self.factors[side].render(x))
                        for side, x in a)

    def parse(self, text: str):
        if text == "1":
            return ()
        # split at each * outside parentheses, so nested syllables stay whole
        tokens, depth, start = [], 0, 0
        for k, ch in enumerate(text):
            depth += (ch == "(") - (ch == ")")
            if ch == "*" and depth == 0:
                tokens.append(text[start:k])
                start = k + 1
        tokens.append(text[start:])
        syllables = []
        for tok in tokens:
            if len(tok) < 4 or tok[0] not in "LR" or tok[1] != "(" or tok[-1] != ")":
                raise InputError("bad syllable %s, expected L(...) or R(...)" % quoted(tok))
            side = 0 if tok[0] == "L" else 1
            x = self.factors[side].parse(tok[2:-1])
            if x == self.factors[side].identity():
                raise InputError("identity syllable %s in normal form" % quoted(tok))
            syllables.append((side, x))
        for first, second in zip(syllables, syllables[1:]):
            if first[0] == second[0]:
                raise InputError("syllables in %s do not alternate" % quoted(text))
        return tuple(syllables)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FreeProduct) and other.factors == self.factors

    def __hash__(self) -> int:
        return hash(("freeprod", self.factors))

    def __repr__(self) -> str:
        return "FreeProduct(%r, %r)" % self.factors


class Ball:
    """A radius-stamped, inversion-closed chunk of a group.

    ``length`` maps each element to its word length with respect to the
    generating set the ball was grown from.
    """

    def __init__(self, group: GroupHandle, radius: int,
                 elements: Tuple[Elem, ...], length: Dict[Elem, int]):
        seen = set(elements)
        if len(seen) != len(elements):
            raise ConstructionError("ball has repeated elements")
        if group.identity() not in seen:
            raise ConstructionError("ball misses the identity")
        for g in elements:
            if group.inv(g) not in seen:
                raise ConstructionError("ball is not closed under inversion")
        self.group = group
        self.radius = radius
        self.elements = elements
        self.length = length

    def __contains__(self, g: Elem) -> bool:
        return g in self.length

    def __len__(self) -> int:
        return len(self.elements)


def _symmetrized(group: GroupHandle, gens: Sequence[Elem]) -> List[Elem]:
    out: List[Elem] = []
    for s in gens:
        for t in (s, group.inv(s)):
            if t == group.identity():
                raise InputError("identity listed as a generator")
            if t not in out:
                out.append(t)
    return out

def ball_of(group: GroupHandle, gens: Sequence[Elem], radius: int) -> Ball:
    """Breadth-first ball of the given radius around the identity."""
    if radius < 0:
        raise InputError("radius must be nonnegative")
    sym = _symmetrized(group, gens)
    e = group.identity()
    length = {e: 0}
    order = [e]
    frontier = deque([e])
    while frontier:
        g = frontier.popleft()
        if length[g] == radius:
            continue
        for s in sym:
            h = group.mul(g, s)
            if h not in length:
                length[h] = length[g] + 1
                order.append(h)
                frontier.append(h)
    return Ball(group, radius, tuple(order), length)


def generated_within(group: GroupHandle, steps: Sequence[Elem],
                     universe: Set[Elem]) -> Set[Elem]:
    """The identity and every element that right products of ``steps``
    reach from it without leaving ``universe``."""
    e = group.identity()
    reached = {e}
    frontier = [e]
    while frontier:
        g = frontier.pop()
        for s in steps:
            h = group.mul(g, s)
            if h in universe and h not in reached:
                reached.add(h)
                frontier.append(h)
    return reached


def free_ball(rank: int, radius: int) -> Ball:
    group = FreeGroup(rank)
    return ball_of(group, group.gens(), radius)


def cayley_graph(group: GroupHandle, gens: Sequence[Elem], radius: int) -> GeodesicGraph:
    """Cayley graph on the radius ball, as an unlabeled-edge unit graph."""
    b = ball_of(group, gens, radius)
    sym = _symmetrized(group, gens)
    labels = [group.render(g) for g in b.elements]
    if len(set(labels)) != len(labels):
        raise ConstructionError("element rendering is not injective on the ball")
    index = {g: i for i, g in enumerate(b.elements)}
    edges = set()
    for g in b.elements:
        for s in sym:
            h = group.mul(g, s)
            if h in index:
                i, j = index[g], index[h]
                if i != j:
                    edges.add((min(i, j), max(i, j)))
    return GeodesicGraph(labels, sorted(edges))


class LengthTable:
    """Length values for finitely many group elements.

    ``values`` maps canonical forms to LexElem lengths of a common
    rank.  ``radius`` records how the table was produced (None for ad
    hoc tables); verdicts downstream quote it.
    """

    def __init__(self, group: GroupHandle, values: Dict[Elem, LexElem],
                 radius: Optional[int] = None):
        ranks = {len(v.coords) for v in values.values()}
        if len(ranks) > 1:
            raise InputError("length values of mixed ranks: %s" % sorted(ranks))
        if not values:
            raise InputError("empty length table")
        if group.identity() not in values:
            raise InputError("length table misses the identity")
        self.group = group
        self.values = values
        self.radius = radius

    @property
    def rank(self) -> int:
        return len(next(iter(self.values.values())).coords)

    def l(self, g: Elem) -> LexElem:
        try:
            return self.values[g]
        except KeyError:
            raise InputError("element %s outside the length table"
                             % self.group.render(g)) from None

    def has(self, g: Elem) -> bool:
        return g in self.values

    def elements(self) -> Tuple[Elem, ...]:
        return tuple(self.values)

    def __len__(self) -> int:
        return len(self.values)


def word_length_table(group: GroupHandle, gens: Sequence[Elem], radius: int) -> LengthTable:
    b = ball_of(group, gens, radius)
    values = {g: LexElem((n,)) for g, n in b.length.items()}
    return LengthTable(group, values, radius=radius)


def product_length(lf: LengthTable, lg: LengthTable) -> LengthTable:
    """Length on the direct product: the pair of factor lengths.

    Coordinates of the left factor come first, so under the right
    lexicographic order the second factor dominates.
    """
    group = DirectProduct(lf.group, lg.group)
    rf = lf.rank
    rg = lg.rank
    values = {}
    for a, va in lf.values.items():
        for b, vb in lg.values.items():
            values[(a, b)] = LexElem(va.coords + vb.coords)
    table = LengthTable(group, values)
    assert table.rank == rf + rg
    return table


def free_product_length(fp: FreeProduct, g: Elem, l1: LengthTable,
                        l2: LengthTable) -> LexElem:
    """Length of a free product element: summed syllable lengths, then 1.

    The extra last coordinate is 0 exactly for the identity and 1
    otherwise, so any nontrivial element outweighs the whole base
    group of lengths.
    """
    if l1.rank != l2.rank:
        raise InputError("factor length tables have different ranks")
    rank = l1.rank
    if g == ():
        return LexElem((0,) * (rank + 1))
    tables = (l1, l2)
    total = [0] * rank
    for side, x in g:
        coords = tables[side].l(x).coords
        for i, c in enumerate(coords):
            total[i] += c
    return LexElem(tuple(total) + (1,))


def product_space(X: FiniteLambdaSpace, T: FiniteLambdaSpace,
                  Y: Sequence[str]) -> FiniteLambdaSpace:
    """Bundle of copies of X over the points of T, coupled through Y.

    Points are pairs x|t.  Within one fiber the distance is the X
    distance padded with zeros; across fibers it routes through the
    subset Y, paying both exit costs plus the T distance, which sits in
    the dominating coordinates.
    """
    ylist = list(dict.fromkeys(Y))
    if not ylist:
        raise InputError("coupling subset is empty")
    for y in ylist:
        if y not in X.labels:
            raise InputError("coupling point %r is not in the fiber space" % y)
    if X.domain != T.domain:
        raise InputError("fiber and base value groups differ: %s vs %s"
                         % (X.domain, T.domain))
    rx, rt = X.rank, T.rank
    zero_t = (0,) * rt
    # exit cost: distance from x to the nearest point of Y
    toY = {x: min(X.d(x, y) for y in ylist) for x in X.labels}
    labels = ["%s|%s" % (x, t) for t in T.labels for x in X.labels]
    pairs = [(x, t) for t in T.labels for x in X.labels]
    n = len(pairs)
    dist = [[LexElem((0,) * (rx + rt))] * n for _ in range(n)]
    for i, (x1, t1) in enumerate(pairs):
        for j, (x2, t2) in enumerate(pairs):
            if j < i:
                continue
            if t1 == t2:
                val = LexElem(X.d(x1, x2).coords + zero_t)
            else:
                near = toY[x1] + toY[x2]
                val = LexElem(near.coords + T.d(t1, t2).coords)
            dist[i][j] = val
            dist[j][i] = val
    space = FiniteLambdaSpace(labels, dist, domain=X.domain)
    report = validate_metric(space)
    if not report.ok:
        raise ConstructionError("bundle distance fails %s" % (report,))
    return space


# ---------------------------------------------------------------------------
# serialization


def write_grp(group: GroupHandle, gens: Optional[Sequence[Elem]] = None,
              refs: Optional[Tuple[str, str]] = None) -> str:
    lines = []
    if isinstance(group, FreeGroup):
        lines.append("free %d" % group.rank)
    elif isinstance(group, FiniteGroup):
        k = len(group.table)
        lines.append("finite %d" % k)
        lines.append("names " + " ".join(group.names))
        for row in group.table:
            lines.append(" ".join(str(v) for v in row))
    elif isinstance(group, (DirectProduct, FreeProduct)):
        if refs is None:
            raise InputError("writing a %s needs file references for both factors"
                             % group.kind)
        lines.append("%s %s %s" % (group.kind, refs[0], refs[1]))
    else:
        raise InputError("cannot serialize group kind %r" % type(group).__name__)
    if gens is not None:
        lines.append("gens " + " ".join(group.render(g) for g in gens))
    return "\n".join(lines) + "\n"


# product and freeprod files may refer to one another this many levels deep
MAX_GROUP_NESTING = 200


def read_grp(text: str, loader: Optional[Callable[[str], str]] = None
             ) -> Tuple[GroupHandle, Tuple[Elem, ...]]:
    """Parse a .grp description; referenced factor files go through loader."""
    return _read_grp(text, loader, ())


def _read_grp(text: str, loader: Optional[Callable[[str], str]],
              open_refs: Tuple[str, ...]) -> Tuple[GroupHandle, Tuple[Elem, ...]]:
    rows = _lines(text)
    if not rows:
        raise InputError("empty group description")
    head = rows[0]
    rest = rows[1:]
    kind = head[0]
    if kind == "free":
        if len(head) != 2:
            raise InputError("free header needs exactly one rank")
        group: GroupHandle = FreeGroup(int_token(head[1], "rank"))
    elif kind == "finite":
        if len(head) != 2:
            raise InputError("finite header needs exactly one order")
        k = int_token(head[1], "order")
        names = None
        if rest and rest[0][0] == "names":
            names = rest[0][1:]
            rest = rest[1:]
        if len(rest) < k:
            raise InputError("finite table needs %d rows" % k)
        table = [[int_token(v, "table entry") for v in row] for row in rest[:k]]
        rest = rest[k:]
        group = FiniteGroup(table, names)
    elif kind in ("product", "freeprod"):
        if len(head) != 3:
            raise InputError("%s header needs exactly two factor references" % kind)
        if loader is None:
            raise InputError("no loader supplied for factor references")
        factors = []
        for ref in head[1:]:
            # open_refs are the files still being read further up; meeting
            # one again means the files refer to each other without end
            if ref in open_refs:
                raise InputError("group file %s refers back to itself" % quoted(ref))
            # each level costs every group operation a few stack frames, so
            # a deeper chain would run into Python's recursion limit
            if len(open_refs) == MAX_GROUP_NESTING:
                raise InputError("group file %s is nested more than %d "
                                 "files deep" % (quoted(ref), MAX_GROUP_NESTING))
            factors.append(_read_grp(loader(ref), loader, open_refs + (ref,))[0])
        left, right = factors
        group = DirectProduct(left, right) if kind == "product" else FreeProduct(left, right)
    else:
        raise InputError("unknown group kind %s" % quoted(kind))
    gens = None
    for row in rest:
        if row[0] == "gens":
            gens = tuple(group.parse(tok) for tok in row[1:])
        else:
            raise InputError("unexpected line %s" % quoted(" ".join(row)))
    if gens is None:
        if open_refs:
            # a factor's generators are never used, and the default ones
            # of a nested product cost a walk down its whole nesting
            return group, ()
        gens = group.gens()
    if not gens:
        raise InputError("empty generating set")
    return group, gens


def write_len(table: LengthTable, group_ref: str) -> str:
    lines = ["group %s" % group_ref, "lambda Z^%d" % table.rank]
    if table.radius is not None:
        lines.append("radius %d" % table.radius)
    for g in table.values:
        coords = table.values[g].coords
        lines.append(table.group.render(g) + " " + " ".join(str(c) for c in coords))
    return "\n".join(lines) + "\n"


def read_len(text: str, loader: Callable[[str], str]) -> LengthTable:
    rows = _lines(text)
    if len(rows) < 2 or rows[0][0] != "group" or rows[1][0] != "lambda":
        raise InputError("length file must start with group and lambda lines")
    if len(rows[0]) != 2:
        raise InputError("group line needs exactly one reference")
    group, _ = read_grp(loader(rows[0][1]), loader)
    lam = rows[1]
    if len(lam) != 2 or not lam[1].startswith("Z^"):
        raise InputError("lambda line must read: lambda Z^<rank>")
    rank = int_token(lam[1][2:], "rank")
    if rank < 1:
        raise InputError("rank must be positive")
    rows = rows[2:]
    radius = None
    if rows and rows[0][0] == "radius":
        if len(rows[0]) != 2:
            raise InputError("radius line needs exactly one value")
        radius = int_token(rows[0][1], "radius")
        rows = rows[1:]
    values: Dict[Elem, LexElem] = {}
    # each distinct tuple of coordinate tokens is converted once, at its
    # first line, and one LexElem per distinct length is shared by every
    # element holding it
    by_text: Dict[Tuple[str, ...], LexElem] = {}
    lex: Dict[Tuple[int, ...], LexElem] = {}
    for row in rows:
        if len(row) != 1 + rank:
            raise InputError("value line %s needs a form and %d coordinates"
                             % (quoted(" ".join(row)), rank))
        g = group.parse(row[0])
        if g in values:
            raise InputError("element %s listed twice" % quoted(row[0]))
        tokens = tuple(row[1:])
        value = by_text.get(tokens)
        if value is None:
            try:
                coords = tuple(map(int, tokens))
            except ValueError:
                raise InputError("bad coordinates in %s" % quoted(" ".join(row))) from None
            value = by_text[tokens] = lex.setdefault(coords, LexElem(coords))
        values[g] = value
    return LengthTable(group, values, radius=radius)
