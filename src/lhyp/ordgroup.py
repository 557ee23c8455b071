"""Ordered abelian groups Z^n and Q^n under the right lexicographic order.

Elements compare by their rightmost differing coordinate, so the last
coordinate is the most significant one.  Fractions lambda/m over Z^n form
the divisible hull and carry the induced order.

Both element types define all six comparisons directly on coordinate
tuples: a LexElem compares its reversed coordinates, and a QLexElem
compares lambda*k with mu*m coordinate by coordinate for lambda/m against
mu/k, building no element on the way.  Equality across ranks or domains
is False, ordering across them raises InputError, and any other type gets
NotImplemented.
"""

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from typing import Iterable, List, Optional, Tuple, Union

from .errors import InputError, quoted

Coord = Union[int, Fraction]


def _check_compatible(a: "LexElem", b: "LexElem") -> None:
    if a.rank != b.rank or a.domain != b.domain:
        raise InputError(
            "incompatible elements: %s^%d vs %s^%d"
            % (a.domain, a.rank, b.domain, b.rank)
        )


class LexElem:
    """An element of Z^n or Q^n, ordered right-lexicographically."""

    __slots__ = ("coords", "domain")

    def __init__(self, coords: Iterable[Coord], domain: str = "Z"):
        if domain == "Z":
            cs = tuple(coords)
            # plain ints, the common case, are kept as they are
            for c in cs:
                if type(c) is not int:
                    cs = _int_coords(cs)
                    break
        elif domain == "Q":
            cs = tuple(Fraction(c) for c in coords)
        else:
            raise InputError("domain must be 'Z' or 'Q', got %r" % (domain,))
        object.__setattr__(self, "coords", cs)
        object.__setattr__(self, "domain", domain)

    def __setattr__(self, name, value):
        raise AttributeError("LexElem is immutable")

    @property
    def rank(self) -> int:
        return len(self.coords)

    @classmethod
    def zero(cls, rank: int, domain: str = "Z") -> "LexElem":
        return cls((0,) * rank, domain)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other: "LexElem") -> "LexElem":
        _check_compatible(self, other)
        return LexElem(tuple(a + b for a, b in zip(self.coords, other.coords)), self.domain)

    def __sub__(self, other: "LexElem") -> "LexElem":
        _check_compatible(self, other)
        return LexElem(tuple(a - b for a, b in zip(self.coords, other.coords)), self.domain)

    def __neg__(self) -> "LexElem":
        return LexElem(tuple(-a for a in self.coords), self.domain)

    def __mul__(self, k: int) -> "LexElem":
        if not isinstance(k, int):
            raise InputError("scalar must be an integer, got %r" % (k,))
        return LexElem(tuple(k * a for a in self.coords), self.domain)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, LexElem):
            return NotImplemented
        return self.coords == other.coords and self.domain == other.domain

    def __ne__(self, other) -> bool:
        if not isinstance(other, LexElem):
            return NotImplemented
        return self.coords != other.coords or self.domain != other.domain

    def _keys(self, other):
        """Both coordinate tuples reversed, so that tuple order is the
        group order; None for a foreign type."""
        if not isinstance(other, LexElem):
            return None
        if len(self.coords) != len(other.coords) or self.domain != other.domain:
            _check_compatible(self, other)
        return self.coords[::-1], other.coords[::-1]

    def __lt__(self, other) -> bool:
        keys = self._keys(other)
        return NotImplemented if keys is None else keys[0] < keys[1]

    def __le__(self, other) -> bool:
        keys = self._keys(other)
        return NotImplemented if keys is None else keys[0] <= keys[1]

    def __gt__(self, other) -> bool:
        keys = self._keys(other)
        return NotImplemented if keys is None else keys[0] > keys[1]

    def __ge__(self, other) -> bool:
        keys = self._keys(other)
        return NotImplemented if keys is None else keys[0] >= keys[1]

    def __hash__(self):
        return hash((self.coords, self.domain))

    def __abs__(self) -> "LexElem":
        return -self if self.coords[::-1] < (0,) * self.rank else self

    def sign(self) -> int:
        rev = self.coords[::-1]
        zero = (0,) * self.rank
        if rev < zero:
            return -1
        return 0 if rev == zero else 1

    def height(self) -> int:
        """Index of the smallest convex subgroup Lambda_i containing this element."""
        for i in range(self.rank, 0, -1):
            if self.coords[i - 1] != 0:
                return i
        return 0

    def render(self) -> str:
        return "(%s)" % ",".join(_render_coord(c) for c in self.coords)

    def __repr__(self):
        return "LexElem(%s, %r)" % (self.render(), self.domain)


def _int_coords(cs: Tuple) -> Tuple[int, ...]:
    """Coordinates for Z^n: ints, or Fractions with denominator 1."""
    for c in cs:
        if isinstance(c, Fraction):
            if c.denominator != 1:
                raise InputError("non-integer coordinate %s in Z^n" % (c,))
        elif not isinstance(c, int):
            raise InputError("bad coordinate %r" % (c,))
    return tuple(int(c) for c in cs)


def _render_coord(c: Coord) -> str:
    if isinstance(c, Fraction) and c.denominator != 1:
        return "%d/%d" % (c.numerator, c.denominator)
    return "%d" % (c,)


# The longest combination any kernel forms from packed table entries: the
# basepoint sweep's defect min{2(x.z)_v, 2(z.y)_v} - 2(x.y)_v is a signed
# sum of six distances, and so is lenfun.check_regular's test of 2 l(u)
# against l(g) + l(h) - l(g^-1 h) + 2(k+1) delta.
PACK_HEADROOM = 6


def distinct(elems: Iterable) -> List:
    """The distinct objects among elems, by identity, in order of first
    appearance.  Tables that share one object per value shrink to their
    values, so a check or a conversion of each costs little."""
    elems = list(elems)
    return list(dict(zip(map(id, elems), elems)).values())


class Packing:
    """Exact encoding of elements of one Z^n or Q^n as Python ints.

    Built from a set of elements, of which each distinct object is checked
    and measured once.  Each coordinate, scaled by the LCM of the
    denominators in the set, becomes a signed digit in base 2**width, and
    the last coordinate is the most significant digit; for rank-one Z the
    code of an element is its coordinate.  The width leaves room for
    signed sums of up to PACK_HEADROOM elements of the set: every digit of
    such a sum stays below half the base, so integer order, equality and
    addition on the codes agree with the right lexicographic order and the
    group law, and unpack recovers the element.
    """

    __slots__ = ("rank", "domain", "scale", "width")

    def __init__(self, elems: Iterable[LexElem]):
        elems = distinct(elems)
        first = elems[0]
        rank, domain = len(first.coords), first.domain
        for e in elems:
            if len(e.coords) != rank or e.domain != domain:
                _check_compatible(first, e)
        self.rank, self.domain = rank, domain
        coords = [c for e in elems for c in e.coords]
        # coordinates over Z are ints
        self.scale = lcm(*(c.denominator for c in coords)) if domain == "Q" else 1
        top = max(map(abs, coords), default=0)
        self.width = int(PACK_HEADROOM * top * self.scale).bit_length() + 1

    def pack(self, e: LexElem) -> int:
        """Code of e, which must lie in the set the packing was built from."""
        code = 0
        for c in reversed(e.coords):
            code = (code << self.width) + int(c * self.scale)
        return code

    def unpack(self, code: int) -> LexElem:
        """The element that a code, or a signed sum of codes, stands for.

        Over Z the scale is 1 and each digit is an int coordinate; over Q
        it is a Fraction over the scale.
        """
        base = 1 << self.width
        half = base >> 1
        coords = []
        for _ in range(self.rank):
            digit = code & (base - 1)
            if digit >= half:
                digit -= base
            coords.append(digit)
            code = (code - digit) >> self.width
        if self.domain == "Q":
            coords = [Fraction(c, self.scale) for c in coords]
        return LexElem(coords, self.domain)


def lex_cmp(a: LexElem, b: LexElem) -> int:
    """Three-way right-lexicographic comparison."""
    _check_compatible(a, b)
    ra, rb = a.coords[::-1], b.coords[::-1]
    if ra < rb:
        return -1
    return 0 if ra == rb else 1


def height(a: LexElem) -> int:
    return a.height()


def in_convex(a: LexElem, i: int) -> bool:
    """Membership of a in the convex subgroup Lambda_i (first i coordinates)."""
    if not 0 <= i <= a.rank:
        raise InputError("convex index %d out of range for rank %d" % (i, a.rank))
    return a.height() <= i


def project_quotient(a: LexElem, i: int) -> LexElem:
    """Image of a in Lambda/Lambda_i, an element of rank n-i."""
    if not 0 <= i <= a.rank:
        raise InputError("convex index %d out of range for rank %d" % (i, a.rank))
    return LexElem(a.coords[i:], a.domain)


def minimal_positive(rank: int, domain: str = "Z") -> LexElem:
    """The least positive element (1,0,...,0) of Z^n; Q^n has none."""
    if domain != "Z":
        raise InputError("Q^n is densely ordered and has no minimal positive element")
    if rank < 1:
        raise InputError("rank must be at least 1")
    return LexElem((1,) + (0,) * (rank - 1), "Z")


class QLexElem:
    """A fraction lam/m over Z^n or Q^n, with lam/m = mu/k iff k*lam = m*mu."""

    __slots__ = ("num", "den")

    def __init__(self, num: LexElem, den: int = 1):
        if not isinstance(den, int) or den == 0:
            raise InputError("denominator must be a nonzero integer, got %r" % (den,))
        if den < 0:
            num, den = -num, -den
        if num.domain == "Q":
            if den != 1:
                num = LexElem(tuple(c / den for c in num.coords), "Q")
                den = 1
        else:
            g = reduce(gcd, (abs(c) for c in num.coords), den)
            if g > 1:
                num = LexElem(tuple(c // g for c in num.coords), "Z")
                den //= g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("QLexElem is immutable")

    @property
    def rank(self) -> int:
        return self.num.rank

    @property
    def domain(self) -> str:
        return self.num.domain

    @classmethod
    def zero(cls, rank: int, domain: str = "Z") -> "QLexElem":
        return cls(LexElem.zero(rank, domain), 1)

    @classmethod
    def from_lex(cls, e: LexElem) -> "QLexElem":
        return cls(e, 1)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "QLexElem") -> "QLexElem":
        other = _coerce_q(other)
        return QLexElem(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "QLexElem") -> "QLexElem":
        other = _coerce_q(other)
        return QLexElem(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "QLexElem":
        return QLexElem(-self.num, self.den)

    def __mul__(self, k: int) -> "QLexElem":
        return QLexElem(self.num * k, self.den)

    __rmul__ = __mul__

    def _cross(self, other):
        """For self = lam/m and other = mu/k: the coordinates of lam*k and
        mu*m, last first, so that list order is the group order; None for
        a foreign type.  Raises InputError across ranks or domains."""
        parts = _parts(other)
        if parts is None:
            return None
        (lam, m), (mu, k) = (self.num, self.den), parts
        if len(lam.coords) != len(mu.coords) or lam.domain != mu.domain:
            _check_compatible(lam, mu)
        return ([c * k for c in reversed(lam.coords)],
                [c * m for c in reversed(mu.coords)])

    def __eq__(self, other) -> bool:
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        (lam, m), (mu, k) = (self.num, self.den), parts
        # lists of different lengths differ, so ranks need no test
        return (lam.domain == mu.domain
                and [c * k for c in lam.coords] == [c * m for c in mu.coords])

    def __ne__(self, other) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __lt__(self, other) -> bool:
        keys = self._cross(other)
        return NotImplemented if keys is None else keys[0] < keys[1]

    def __le__(self, other) -> bool:
        keys = self._cross(other)
        return NotImplemented if keys is None else keys[0] <= keys[1]

    def __gt__(self, other) -> bool:
        keys = self._cross(other)
        return NotImplemented if keys is None else keys[0] > keys[1]

    def __ge__(self, other) -> bool:
        keys = self._cross(other)
        return NotImplemented if keys is None else keys[0] >= keys[1]

    def __hash__(self):
        # a whole value equals its LexElem, so it hashes as one
        return hash(self.num) if self.den == 1 else hash((self.num, self.den))

    def __abs__(self) -> "QLexElem":
        return -self if self.num.sign() < 0 else self

    def sign(self) -> int:
        return self.num.sign()

    def as_fraction(self) -> Fraction:
        if self.rank != 1:
            raise InputError("as_fraction needs rank 1, got rank %d" % (self.rank,))
        return Fraction(self.num.coords[0], self.den)

    def render(self) -> str:
        if self.den == 1:
            return self.num.render()
        return "%s/%d" % (self.num.render(), self.den)

    def __repr__(self):
        return "QLexElem(%s)" % (self.render(),)


def _parts(x) -> Optional[Tuple[LexElem, int]]:
    """(lam, m) for x = lam/m, with a LexElem as lam/1; None for any other
    type."""
    if isinstance(x, QLexElem):
        return x.num, x.den
    if isinstance(x, LexElem):
        return x, 1
    return None


def _coerce_q(other) -> QLexElem:
    if isinstance(other, LexElem):
        return QLexElem.from_lex(other)
    if not isinstance(other, QLexElem):
        raise InputError("expected a group element, got %r" % (other,))
    return other


def qdiv(e: LexElem, m: int) -> QLexElem:
    """e/m in the divisible hull."""
    return QLexElem(e, m)


def qmax(a: QLexElem, b: QLexElem) -> QLexElem:
    return a if a >= b else b


def qmin(a: QLexElem, b: QLexElem) -> QLexElem:
    return a if a <= b else b


def parse_coord(tok: str, domain: str) -> Coord:
    try:
        if "/" not in tok:
            v = int(tok)
            return Fraction(v) if domain == "Q" else v
        p, q = tok.split("/", 1)
        frac = Fraction(int(p), int(q))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError("bad coordinate %s" % quoted(tok)) from exc
    # raised outside the try: InputError is a ValueError, and the
    # handler above would replace this message with "bad coordinate"
    if domain == "Z":
        raise InputError("fractional coordinate %s in Z^n" % quoted(tok))
    return frac


def parse_lex(text: str, rank: int = None, domain: str = "Z") -> LexElem:
    """Parse '(a_1,...,a_n)', or a bare scalar for rank 1."""
    text = text.strip()
    if text.startswith("("):
        if not text.endswith(")"):
            raise InputError("unbalanced parentheses in %s" % quoted(text))
        body = text[1:-1].strip()
        toks = [t.strip() for t in body.split(",")] if body else []
    else:
        toks = [text]
    e = LexElem(tuple(parse_coord(t, domain) for t in toks), domain)
    if rank is not None and e.rank != rank:
        raise InputError("expected rank %d, got %s" % (rank, quoted(text)))
    return e


def parse_qlex(text: str, rank: int = None, domain: str = "Z") -> QLexElem:
    """Parse '(...)/m' or any LexElem form."""
    text = text.strip()
    if text.startswith("(") and ")/" in text:
        body, den = text.rsplit("/", 1)
        try:
            m = int(den)
        except ValueError as exc:
            raise InputError("bad denominator in %r" % (text,)) from exc
        return QLexElem(parse_lex(body, rank, domain), m)
    if not text.startswith("(") and "/" in text and (rank in (None, 1)):
        p, q = text.split("/", 1)
        try:
            return QLexElem(LexElem((int(p),), "Z") if domain == "Z" else LexElem((Fraction(int(p)),), "Q"), int(q))
        except ValueError as exc:
            raise InputError("bad rational %r" % (text,)) from exc
    return QLexElem.from_lex(parse_lex(text, rank, domain))
