from itertools import permutations
from random import Random

import pytest
from hypothesis import given, strategies as st

from lhyp.catalog import (Ball, DirectProduct, FiniteGroup, FreeGroup,
                          FreeProduct, LengthTable, ball_of, cayley_graph, free_ball,
                          free_product_length, product_length, product_space,
                          read_grp, read_len, word_length_table, write_grp,
                          write_len)
from lhyp.errors import ConstructionError, InputError
from lhyp.lspace import min_delta_4pt, validate_metric
from lhyp.ordgroup import LexElem

from helpers import L, f2_table, space_rank1
from oracles import word_lengths_free

# |B_r| in F_2: 1 + 4*3^0 + 4*3 + ...
F2_BALL = {0: 1, 1: 5, 2: 17, 3: 53, 4: 161}


def test_free_ball_sizes():
    for r, size in F2_BALL.items():
        assert len(free_ball(2, r).elements) == size


def test_free_group_words_reduce():
    F = FreeGroup(2)
    a, b = F.gens()
    w = F.mul(a, F.mul(b, F.inv(b)))
    assert w == a
    assert F.mul(F.inv(a), a) == F.identity()
    assert F.render(F.mul(a, F.inv(b))) == "aB"
    assert F.parse("aB") == F.mul(a, F.inv(b))
    assert F.parse("1") == F.identity()
    with pytest.raises(InputError):
        F.parse("c")
    for word in ("aA", "bAab", "abBB"):
        with pytest.raises(InputError, match="not reduced"):
            F.parse(word)
    # a bad letter is reported before a cancelling pair
    with pytest.raises(InputError, match="outside rank"):
        F.parse("aAc")


def test_word_lengths_match_oracle():
    table = f2_table(3)
    F = table.group
    want = word_lengths_free(2, 3)
    assert len(table) == len(want)
    for w, length in want.items():
        g = F.identity()
        for c in w:
            step = F.gens()[abs(c) - 1]
            g = F.mul(g, step if c > 0 else F.inv(step))
        assert table.l(g) == L(length)


def test_cyclic_group_table():
    C = FiniteGroup.cyclic(4)
    e = C.identity()
    g = C.gens()[0]
    x = e
    for _ in range(4):
        x = C.mul(x, g)
    assert x == e
    assert C.inv(g) == C.mul(C.mul(g, g), g)


def test_cayley_graph_of_z_is_a_path():
    Z = FreeGroup(1)
    G = cayley_graph(Z, Z.gens(), 3)
    assert len(G) == 7
    degs = sorted(len(nbrs) for nbrs in G.adj)
    assert degs == [1, 1, 2, 2, 2, 2, 2]
    assert G.dist[G.index("aaa")][G.index("AAA")] == 6


def test_cayley_graph_f2_is_a_tree():
    G = cayley_graph(FreeGroup(2), FreeGroup(2).gens(), 2)
    assert len(G) == 17
    assert len(G.edges()) == 16  # tree
    X = G.as_space()
    assert min_delta_4pt(X).is_zero()


def test_length_table_lookup_and_errors():
    t = f2_table(2)
    F = t.group
    assert t.l(F.identity()) == L(0)
    assert t.has(F.parse("ab")) and not t.has(F.parse("aba"))
    with pytest.raises(InputError):
        t.l(F.parse("aba"))
    assert t.radius == 2 and t.rank == 1


F1 = FreeGroup(1)
E, A = F1.identity(), F1.gens()[0]


@pytest.mark.parametrize("build, error, message", [
    (lambda: Ball(F1, 1, (E, A, A, F1.inv(A)), {}), ConstructionError,
     "ball has repeated elements"),
    (lambda: Ball(F1, 1, (A, F1.inv(A)), {}), ConstructionError,
     "ball misses the identity"),
    (lambda: Ball(F1, 1, (E, A), {}), ConstructionError,
     "ball is not closed under inversion"),
    (lambda: LengthTable(F1, {E: L(0), A: L(1, 0)}), InputError,
     "length values of mixed ranks: [1, 2]"),
    (lambda: LengthTable(F1, {}), InputError, "empty length table"),
    (lambda: LengthTable(F1, {A: L(1)}), InputError,
     "length table misses the identity"),
])
def test_ball_and_length_table_reject_malformed_contents(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_product_length_concatenates_coordinates():
    t1 = f2_table(1)
    t2 = f2_table(1)
    p = product_length(t1, t2)
    assert p.rank == 2 and len(p) == 25
    F = t1.group
    a = F.parse("a")
    e = F.identity()
    assert p.l((a, e)) == L(1, 0)
    assert p.l((e, a)) == L(0, 1)
    # the second factor dominates in the right lexicographic order
    assert p.l((a, e)) < p.l((e, a))


def test_direct_product_group_ops():
    D = DirectProduct(FreeGroup(1), FiniteGroup.cyclic(2))
    za = D.left.gens()[0]
    cb = D.right.gens()[0]
    g = (za, cb)
    assert D.mul(g, D.inv(g)) == D.identity()
    assert D.render(g) == "a|r"
    assert D.parse("a|r") == g


def symmetric3():
    """S3 on the permutations of 0..2, identity first: not abelian, so a
    table of y x^-1 or of x y^-1 in place of x^-1 y would show."""
    perms = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return FiniteGroup([[index[tuple(q[k] for k in p)] for q in perms] for p in perms])


QUOTIENT_GROUPS = {
    "free": lambda: FreeGroup(2),
    "finite": symmetric3,
    "free x finite": lambda: DirectProduct(FreeGroup(2), FiniteGroup.cyclic(3)),
    "(finite x free) x free": lambda: DirectProduct(
        DirectProduct(symmetric3(), FreeGroup(1)), FreeGroup(2)),
    "free product of products": lambda: FreeProduct(
        DirectProduct(FreeGroup(1), FiniteGroup.cyclic(2)),
        DirectProduct(symmetric3(), FreeGroup(1))),
    "free product x product": lambda: DirectProduct(
        FreeProduct(FiniteGroup.cyclic(2), FiniteGroup.cyclic(3)),
        DirectProduct(FreeGroup(1), symmetric3())),
}


@pytest.mark.parametrize("name", sorted(QUOTIENT_GROUPS))
def test_quotients_equal_the_pairwise_products(name):
    G = QUOTIENT_GROUPS[name]()
    elements = ball_of(G, G.gens(), 2).elements
    rng = Random(7)
    for _ in range(20):
        # drawn with repeats, so elements and their components recur
        xs = rng.choices(elements, k=rng.randint(0, 12))
        ys = rng.choices(elements, k=rng.randint(0, 9))
        for xs, ys in ((xs, ys), (xs, xs), (xs + xs[:2], ys)):
            want = [[G.mul(G.inv(x), y) for y in ys] for x in xs]
            assert list(G.quotients(xs, ys)) == want


def test_free_product_normal_form_and_length():
    FP = FreeProduct(FiniteGroup.cyclic(2), FiniteGroup.cyclic(3))
    x = FP.element([(0, 1)])
    y = FP.element([(1, 1)])
    w = FP.mul(x, y)
    assert w == ((0, 1), (1, 1))
    # x has order two, so the syllables cancel back
    assert FP.mul(x, FP.mul(x, y)) == y
    l1 = LengthTable(FiniteGroup.cyclic(2), {0: L(0), 1: L(1)})
    l2 = LengthTable(FiniteGroup.cyclic(3), {0: L(0), 1: L(1), 2: L(1)})
    assert free_product_length(FP, FP.identity(), l1, l2) == L(0, 0)
    assert free_product_length(FP, w, l1, l2) == L(2, 1)
    # any nontrivial element beats every purely-first-coordinate value
    assert L(10 ** 6, 0) < free_product_length(FP, x, l1, l2)


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_ball_closure_under_inverse(seed):
    rng = Random(seed)
    ball = ball_of(FreeGroup(2), FreeGroup(2).gens(), 2)
    g = rng.choice(ball.elements)
    F = ball.group
    assert F.inv(g) in ball.elements
    assert ball.length[g] == ball.length[F.inv(g)]


def test_product_space_fiber_and_coupling():
    X = space_rank1([[0, 1], [1, 0]], labels=["p", "q"])
    T = space_rank1([[0, 2], [2, 0]], labels=["s", "t"])
    P = product_space(X, T, ["p"])
    assert len(P) == 4 and P.rank == 2
    assert P.d("p|s", "q|s") == L(1, 0)
    # crossing fibers routes through the coupling point p
    assert P.d("q|s", "q|t") == L(2, 2)
    assert P.d("p|s", "p|t") == L(0, 2)
    assert validate_metric(P).ok


def test_grp_round_trips():
    F = FreeGroup(2)
    text = write_grp(F, F.gens())
    G, gens = read_grp(text)
    assert isinstance(G, FreeGroup) and G.rank == 2
    assert gens == tuple(F.gens())

    C = FiniteGroup.cyclic(3)
    G2, _ = read_grp(write_grp(C))
    assert isinstance(G2, FiniteGroup)
    assert G2.mul(1, 2) == C.mul(1, 2)

    D = DirectProduct(FreeGroup(1), FiniteGroup.cyclic(2))
    refs = {"l.grp": write_grp(FreeGroup(1)), "r.grp": write_grp(FiniteGroup.cyclic(2))}
    G3, _ = read_grp(write_grp(D, refs=("l.grp", "r.grp")), loader=refs.__getitem__)
    assert isinstance(G3, DirectProduct)
    assert G3.identity() == D.identity()


def test_deep_product_chain_builds_default_generators_once(monkeypatch):
    # f0 is Z; each f<k> is the product of f<k-1> with Z, nested 150 deep.
    # Only the outermost file's default generators are built, so the
    # identity calls grow with the square of the depth, not its cube.
    depth = 150
    files = {"f0.grp": "free 1\n"}
    for k in range(1, depth + 1):
        files["f%d.grp" % k] = "product f%d.grp f0.grp\n" % (k - 1)
    calls = [0]
    identity = FreeGroup.identity

    def counted(self):
        calls[0] += 1
        return identity(self)

    monkeypatch.setattr(FreeGroup, "identity", counted)
    G, gens = read_grp(files["f%d.grp" % depth], loader=files.__getitem__)
    assert len(gens) == depth + 1
    assert calls[0] <= depth ** 2
    # a malformed gens line in a factor file is still read and rejected
    files["f1.grp"] += "gens a|b\n"
    with pytest.raises(InputError):
        read_grp(files["f%d.grp" % depth], loader=files.__getitem__)


def nested_free_products():
    C2, C3, Z = FiniteGroup.cyclic(2), FiniteGroup.cyclic(3), FreeGroup(1)
    inner = FreeProduct(C2, C3)
    return (FreeProduct(inner, Z), FreeProduct(Z, inner),
            FreeProduct(DirectProduct(C2, Z), DirectProduct(Z, C3)))


def test_nested_free_products_parse_what_they_render():
    for G in nested_free_products():
        for g in ball_of(G, G.gens(), 3).elements:
            assert G.parse(G.render(g)) == g
    G = nested_free_products()[0]
    for bad in ("L(L(r)*R(r)", "L(L(r))*R(a))", "L(L(r)*L(r))"):
        with pytest.raises(InputError):
            G.parse(bad)


def test_nested_free_product_len_round_trip():
    G = nested_free_products()[0]
    files = {"c2.grp": write_grp(FiniteGroup.cyclic(2)),
             "c3.grp": write_grp(FiniteGroup.cyclic(3)),
             "z.grp": write_grp(FreeGroup(1)),
             "c2c3.grp": write_grp(G.factors[0], refs=("c2.grp", "c3.grp")),
             "g.grp": write_grp(G, refs=("c2c3.grp", "z.grp"))}
    t = word_length_table(G, G.gens(), 2)
    back = read_len(write_len(t, "g.grp"), files.__getitem__)
    assert back.group == G and back.values == t.values


def test_len_round_trip():
    t = f2_table(2)
    text = write_len(t, "f2.grp")
    back = read_len(text, {"f2.grp": write_grp(FreeGroup(2))}.__getitem__)
    assert len(back) == len(t) and back.radius == t.radius
    F = back.group
    for g in back.elements():
        assert back.l(g) == t.l(g)
    with pytest.raises(InputError):
        read_len("lambda Z^1\n", lambda r: "")
