from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lhyp.errors import InputError
from lhyp.ordgroup import (PACK_HEADROOM, LexElem, Packing, QLexElem, height,
                           in_convex, lex_cmp, minimal_positive, parse_lex,
                           parse_qlex, project_quotient, qdiv, qmax, qmin)

from oracles import rkey

coords = st.integers(min_value=-50, max_value=50)
vec = st.lists(coords, min_size=1, max_size=4)
pair = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(st.lists(coords, min_size=n, max_size=n),
                        st.lists(coords, min_size=n, max_size=n)))


@given(pair)
def test_order_matches_reversed_tuple_oracle(ab):
    a, b = ab
    ea, eb = LexElem(a), LexElem(b)
    assert (ea < eb) == (rkey(a) < rkey(b))
    assert (ea == eb) == (a == b)
    assert lex_cmp(ea, eb) == (-1 if rkey(a) < rkey(b) else (0 if a == b else 1))


def test_last_coordinate_dominates():
    assert LexElem((100, 0)) < LexElem((0, 1))
    assert LexElem((-5, 1)) > LexElem((5, 0))


@given(pair)
def test_group_laws(ab):
    a, b = ab
    ea, eb = LexElem(a), LexElem(b)
    assert ea + eb == eb + ea
    assert ea - ea == LexElem.zero(ea.rank)
    assert -(-ea) == ea
    assert (ea + eb) - eb == ea
    assert ea * 3 == ea + ea + ea


@given(pair)
def test_order_translation_invariant(ab):
    a, b = ab
    ea, eb = LexElem(a), LexElem(b)
    c = LexElem([7] * ea.rank)
    assert (ea < eb) == (ea + c < eb + c)


@given(vec)
def test_abs_and_sign(v):
    e = LexElem(v)
    assert abs(e).sign() >= 0
    assert abs(e) == (e if e.sign() >= 0 else -e)
    assert e.sign() == (0 if e.is_zero() else (1 if LexElem.zero(e.rank) < e else -1))


@given(vec)
def test_height_is_last_nonzero_index(v):
    e = LexElem(v)
    nz = [i + 1 for i, c in enumerate(v) if c != 0]
    assert e.height() == (max(nz) if nz else 0)
    assert height(e) == e.height()
    for i in range(e.rank + 1):
        assert in_convex(e, i) == (e.height() <= i)


@given(vec, st.integers(min_value=0, max_value=4))
def test_quotient_projection_drops_low_coords(v, i):
    e = LexElem(v)
    if i > e.rank:
        with pytest.raises(InputError):
            project_quotient(e, i)
    else:
        assert project_quotient(e, i).coords == tuple(v[i:])


def test_minimal_positive():
    assert minimal_positive(3) == LexElem((1, 0, 0))
    z = LexElem.zero(3)
    assert z < minimal_positive(3)
    with pytest.raises(InputError):
        minimal_positive(3, "Q")


@given(pair, st.integers(min_value=1, max_value=9),
       st.integers(min_value=1, max_value=9))
def test_qlex_compare_matches_fraction_oracle(ab, m, k):
    a, b = ab
    qa, qb = QLexElem(LexElem(a), m), QLexElem(LexElem(b), k)
    fa = tuple(Fraction(c, m) for c in a)
    fb = tuple(Fraction(c, k) for c in b)
    assert (qa < qb) == (rkey(fa) < rkey(fb))
    assert (qa == qb) == (rkey(fa) == rkey(fb))


@given(vec, st.integers(min_value=1, max_value=9))
def test_qlex_normalization_keeps_value(v, m):
    q = qdiv(LexElem(v), m)
    assert q == QLexElem(LexElem(v) * 2, m * 2)
    assert q * m == QLexElem.from_lex(LexElem(v)) or m != q.den * (m // q.den)
    # halving then doubling is the identity
    assert qdiv(LexElem(v), 2) * 2 == QLexElem.from_lex(LexElem(v))


def test_qlex_mixed_comparison_with_lex():
    assert QLexElem(LexElem((1,)), 2) < LexElem((1,))
    assert QLexElem(LexElem((2,)), 2) == LexElem((1,))


@given(vec, st.integers(min_value=1, max_value=4), st.sampled_from(("Z", "Q")))
def test_equal_lex_and_qlex_elements_hash_equal(v, m, domain):
    e = LexElem(v, domain)
    # from_lex, and a fraction whose denominator cancels
    forms = (QLexElem.from_lex(e), QLexElem(e * m, m))
    for q in forms:
        assert q == e and hash(q) == hash(e)
        assert len({e, q}) == 1
        assert {e: "lex"}[q] == "lex" and {q: "qlex"}[e] == "qlex"
    half = QLexElem(e, 2)
    assert len({e, half}) == (1 if e.is_zero() else 2)


@given(pair, st.integers(min_value=1, max_value=5))
def test_qmax_qmin(ab, m):
    a, b = ab
    qa, qb = qdiv(LexElem(a), m), QLexElem.from_lex(LexElem(b))
    assert qmax(qa, qb) >= qmin(qa, qb)
    assert {qmax(qa, qb), qmin(qa, qb)} == {qa, qb}


def test_negative_denominator_flips_sign():
    assert QLexElem(LexElem((3,)), -2) == QLexElem(LexElem((-3,)), 2)


@given(vec)
def test_parse_render_round_trip(v):
    e = LexElem(v)
    assert parse_lex(e.render()) == e
    assert parse_qlex(QLexElem(e, 3).render()) == QLexElem(e, 3)


def test_parse_forms():
    assert parse_lex("(1,-2,3)") == LexElem((1, -2, 3))
    assert parse_lex("7") == LexElem((7,))
    assert parse_qlex("(3)/2").as_fraction() == Fraction(3, 2)
    assert parse_qlex("3/2").as_fraction() == Fraction(3, 2)
    with pytest.raises(InputError):
        parse_lex("(1,2", 2)
    with pytest.raises(InputError):
        parse_lex("(1,2)", 3)
    with pytest.raises(InputError):
        parse_lex("(1/2)")


def test_q_domain_accepts_fractions():
    e = parse_lex("(1/2,3)", domain="Q")
    assert e.coords == (Fraction(1, 2), Fraction(3))
    with pytest.raises(InputError):
        LexElem((Fraction(1, 2),), "Z")


def test_incompatible_ranks_refuse():
    with pytest.raises(InputError):
        LexElem((1,)) + LexElem((1, 2))
    with pytest.raises(InputError):
        lex_cmp(LexElem((1,)), LexElem((1,), "Q"))


@st.composite
def packing_cases(draw):
    """A set of elements and two signed sums of up to PACK_HEADROOM of them.

    The set always holds (top,...,top) and (top,-top,top,...), so its
    largest coordinate, the one the packing width is computed from, is
    reached in every digit and with both signs.
    """
    rank = draw(st.integers(min_value=1, max_value=3))
    domain = draw(st.sampled_from(("Z", "Q")))
    top = draw(st.integers(min_value=0, max_value=10 ** 12))
    coord = st.integers(min_value=-top, max_value=top)
    if domain == "Q":
        coord = st.builds(Fraction, coord, st.integers(min_value=1, max_value=12))
    elems = draw(st.lists(st.lists(coord, min_size=rank, max_size=rank),
                          max_size=6))
    elems += [[top] * rank, [top if i % 2 == 0 else -top for i in range(rank)]]
    elems = [LexElem(cs, domain) for cs in elems]
    term = st.tuples(st.integers(min_value=0, max_value=len(elems) - 1),
                     st.sampled_from((1, -1)))
    sums = st.lists(term, max_size=PACK_HEADROOM)
    return elems, draw(sums), draw(sums)


@given(packing_cases())
def test_packing_matches_lex_arithmetic(case):
    elems, terms_a, terms_b = case
    P = Packing(elems)
    codes = [P.pack(e) for e in elems]
    for e, c in zip(elems, codes):
        assert P.unpack(c) == e
        if e.rank == 1 and e.domain == "Z":
            assert c == e.coords[0]
        # a coordinate at the width limit, six times over, either sign
        assert P.unpack(c * PACK_HEADROOM) == e * PACK_HEADROOM
        assert P.unpack(-c * PACK_HEADROOM) == -e * PACK_HEADROOM

    def combine(terms):
        value, code = LexElem.zero(P.rank, P.domain), 0
        for t, sign in terms:
            value = value + elems[t] if sign > 0 else value - elems[t]
            code += sign * codes[t]
        return value, code

    a, ca = combine(terms_a)
    b, cb = combine(terms_b)
    assert P.unpack(ca) == a and P.unpack(cb) == b
    assert (ca < cb) == (a < b)
    assert (ca == cb) == (a == b)


# Every comparison operator, against Fractions compared as reversed tuples.
SIX = (
    ("<", lambda a, b: a < b),
    ("<=", lambda a, b: a <= b),
    (">", lambda a, b: a > b),
    (">=", lambda a, b: a >= b),
    ("==", lambda a, b: a == b),
    ("!=", lambda a, b: a != b),
)


@st.composite
def lambda_fractions(draw):
    """Two elements lam/m and mu/k of one Z^n or Q^n, n = 1..3, m and k in
    +-1..9, each drawn as a QLexElem or, when its denominator is 1, as a
    LexElem too; with the Fraction coordinates of their values."""
    rank = draw(st.integers(min_value=1, max_value=3))
    domain = draw(st.sampled_from(("Z", "Q")))
    # few distinct coordinates, so that ties in the top coordinates are common
    coord = st.integers(min_value=-3, max_value=3)
    if domain == "Q":
        coord = st.builds(Fraction, coord, st.integers(min_value=1, max_value=4))
    den = st.integers(min_value=1, max_value=9).flatmap(
        lambda m: st.sampled_from((m, -m)))
    sides = []
    for _ in range(2):
        lam = LexElem(draw(st.lists(coord, min_size=rank, max_size=rank)), domain)
        m = draw(den)
        value = tuple(Fraction(c) / m for c in lam.coords)
        elem = QLexElem(lam, m)
        if m == 1 and draw(st.booleans()):
            elem = lam
        sides.append((elem, value))
    return sides


@given(lambda_fractions())
def test_all_six_comparisons_match_the_fraction_oracle(sides):
    (a, fa), (b, fb) = sides
    for name, op in SIX:
        assert op(a, b) == op(rkey(fa), rkey(fb)), name
        assert op(b, a) == op(rkey(fb), rkey(fa)), name


@given(pair)
def test_all_six_lex_comparisons_match_the_reversed_tuple_oracle(ab):
    a, b = ab
    for name, op in SIX:
        assert op(LexElem(a), LexElem(b)) == op(rkey(a), rkey(b)), name
        assert op(LexElem(a, "Q"), LexElem(b, "Q")) == op(rkey(a), rkey(b)), name


def test_comparisons_across_ranks_and_domains():
    pairs = [(LexElem((1,)), LexElem((1, 0))), (LexElem((1,)), LexElem((1,), "Q")),
             (QLexElem(LexElem((1,)), 2), QLexElem(LexElem((1, 0)), 2)),
             (QLexElem(LexElem((1,))), QLexElem(LexElem((1,), "Q"))),
             (QLexElem(LexElem((2,)), 2), LexElem((1, 0))),
             (QLexElem(LexElem((1,), "Q")), LexElem((1,)))]
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            assert not x == y and x != y
            for name, op in SIX[:4]:
                with pytest.raises(InputError, match="incompatible elements"):
                    op(x, y)


def test_comparisons_with_a_foreign_type():
    for e in (LexElem((1,)), QLexElem(LexElem((1,)), 2), QLexElem(LexElem((2,), "Q"))):
        for x, y in ((e, 1), (1, e)):
            assert not x == y and x != y
            for name, op in SIX[:4]:
                with pytest.raises(TypeError):
                    op(x, y)
