from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lhyp.catalog import (FiniteGroup, FreeGroup, LengthTable, cayley_graph,
                          product_length, word_length_table, write_grp, write_len)
from lhyp.cli import main
from lhyp.errors import InputError
from lhyp.lenfun import (QuasiReport, _quotient_lengths, axiom4_scan,
                         check_axioms, check_complete, check_free, check_regular,
                         finite_ball_hyperbolic_group_check, from_action,
                         gromov_product, kernel, lambda0_kernel,
                         quasigeodesic_check, to_space)
from lhyp.lspace import FiniteLambdaSpace, min_delta_4pt, min_delta_at
from lhyp.ordgroup import LexElem, QLexElem
from lhyp.relhyp import RelCayley

from helpers import L, f2_table, space_rank1, z_table
from oracles import (oracle_axiom4, oracle_axioms, oracle_complete, oracle_lambda0,
                     oracle_regular)

seeds = st.integers(min_value=0, max_value=10 ** 6)


def test_axioms_hold_on_free_words():
    ax = check_axioms(f2_table(3))
    assert ax.ok
    assert ax.delta is not None and ax.delta.is_zero()
    assert ax.inv_skipped == 0


def test_axioms_catch_violations():
    Z = FreeGroup(1)
    a = Z.gens()[0]
    e = Z.identity()
    bad = LengthTable(Z, {e: L(0), a: L(2), Z.inv(a): L(1)})
    ax = check_axioms(bad)
    assert not ax.symmetric_ok and ax.symmetric_witness == "a"
    neg = LengthTable(Z, {e: L(0), a: L(-1), Z.inv(a): L(-1)})
    assert not check_axioms(neg).nonneg_ok


def test_gromov_product_is_exact_rational():
    t = f2_table(2)
    F = t.group
    a, b = F.gens()
    # c(a, b) = (1 + 1 - 2)/2
    assert gromov_product(t, a, b) == L(0)
    assert gromov_product(t, a, a) == L(1)
    ab = F.parse("ab")
    assert gromov_product(t, a, ab) == L(1)
    with pytest.raises(InputError):
        gromov_product(t, F.parse("aa"), F.parse("bb"))


def test_kernel_of_positive_table_is_identity():
    t = f2_table(2)
    k = kernel(t)
    assert k.elements == (t.group.identity(),)
    assert k.coset_ok


def test_kernel_coset_constancy_detects_break():
    C = FiniteGroup.cyclic(2)
    # l(r)=0 puts r in the kernel, so l must be constant on cosets; it is not
    t = LengthTable(C, {0: L(0), 1: L(0)})
    k = kernel(t)
    assert len(k.elements) == 2 and k.coset_ok
    C4 = FiniteGroup.cyclic(4)
    t4 = LengthTable(C4, {0: L(0), 1: L(1), 2: L(0), 3: L(2)})
    assert not kernel(t4).coset_ok


def test_lambda0_kernel_heights():
    t2 = product_length(f2_table(1), f2_table(1))
    r = lambda0_kernel(t2, 1)
    F = t2.group.left
    e = F.identity()
    # height <= 1 means trivial second coordinate: pairs (w, e)
    assert all(g[1] == e for g in r.elements)
    assert len(r.elements) == 5
    high = lambda0_kernel(t2, 1, delta=L(0, 1))
    assert high.vacuous_ok is True


def test_lambda0_kernel_vacuous_check_scans_triples():
    t = product_length(z_table(3), z_table(1))
    r = lambda0_kernel(t, 1, delta=L(0, 1))
    assert len(r.elements) == 7 and r.triples_checked == 13
    assert r.vacuous_ok is True and r.witness is None
    # l(AA) above l(a) + l(A) makes the Gromov product of a and A negative
    G = t.group
    values = dict(t.values)
    values[G.parse("AA|1")] = L(10, 0)
    broken = lambda0_kernel(LengthTable(G, values), 1, delta=L(0, 1))
    assert broken.vacuous_ok is False
    assert broken.witness == ("1|1", "a|1", "A|1")


def test_from_action_reads_lengths_off_orbit():
    Z = FreeGroup(1)
    a = Z.gens()[0]
    X = space_rank1([[abs(i - j) for j in range(5)] for i in range(5)],
                    labels=list("pqrst"))
    act = {
        Z.identity(): {c: c for c in "pqrst"},
        a: {"p": "q", "q": "r", "r": "s", "s": "t"},
        Z.inv(a): {"q": "p", "r": "q", "s": "r", "t": "s"},
        Z.mul(a, a): {"p": "r", "q": "s", "r": "t"},
    }
    t = from_action(Z, act, X, "r")
    assert t.l(Z.identity()) == L(0)
    assert t.l(a) == L(1) and t.l(Z.mul(a, a)) == L(2)
    # base point not covered: element simply missing
    assert not t.has(Z.inv(a)) or t.l(Z.inv(a)) == L(1)


def test_from_action_rejects_distorted_maps():
    Z = FreeGroup(1)
    a = Z.gens()[0]
    X = space_rank1([[0, 1, 3], [1, 0, 2], [3, 2, 0]])
    # d(v0,v1)=1 but the images v2,v1 sit at distance 2
    act = {Z.identity(): {c: c for c in X.labels},
           a: {"v0": "v2", "v1": "v1"}}
    with pytest.raises(InputError):
        from_action(Z, act, X, "v0")


def ball_sample(t, r):
    return [g for g in t.elements() if t.l(g) <= L(r)]


def test_to_space_reproduces_word_metric():
    # pair distances need products up to twice the sample radius
    t = f2_table(2)
    cs = to_space(t, ball_sample(t, 1))
    assert len(cs.space) == 5
    assert cs.base in cs.space.labels
    assert min_delta_4pt(cs.space).is_zero()
    a, b = t.group.gens()
    assert cs.space.d(cs.members[a], cs.members[b]) == L(2)


def test_to_space_needs_closed_sample():
    t = f2_table(2)
    F = t.group
    sample = [F.identity(), F.parse("ab")] + [F.parse("a")]
    with pytest.raises(InputError):
        to_space(t, sample + [F.parse("bb")])


def test_round_trip_table_action_table():
    # radius-2 ball acting on its own tree by left translation
    t = f2_table(4)
    cs = to_space(t, ball_sample(t, 2))
    F = t.group
    sample = ball_sample(t, 2)
    act = {}
    for g in sample:
        m = {}
        for h in sample:
            gh = F.mul(g, h)
            if gh in cs.members:
                m[cs.members[h]] = cs.members[gh]
        act[g] = m
    back = from_action(F, act, cs.space, cs.base)
    for g in sample:
        if back.has(g):
            assert back.l(g) == t.l(g)
    assert back.has(F.parse("a")) and back.has(F.parse("ab"))


def test_regular_conditions_on_free_group():
    t = f2_table(3)
    sample = t.elements()
    rg = check_regular(t, sample, 1, LexElem.zero(1))
    assert rg.r1_ok and rg.r2_ok
    assert rg.implication_r1_to_r2 and rg.implication_r2_to_r1


def z_power(k):
    Z = FreeGroup(1)
    g = Z.identity()
    step = Z.gens()[0] if k >= 0 else Z.inv(Z.gens()[0])
    for _ in range(abs(k)):
        g = Z.mul(g, step)
    return g


def test_regular_fails_on_bumped_generator():
    # l(a)=3 destroys every nontrivial exact split
    Z = FreeGroup(1)
    vals = {z_power(k): L({0: 0, 1: 3}.get(abs(k), abs(k)))
            for k in range(-4, 5)}
    t = LengthTable(Z, vals)
    sample = [z_power(k) for k in range(-2, 3)]
    rg = check_regular(t, sample, 1, LexElem.zero(1))
    assert not rg.r1_ok
    # the cross implications are still theorems
    assert rg.implication_r1_to_r2 and rg.implication_r2_to_r1


def test_complete_and_free_on_free_group():
    t = f2_table(3)
    sample = t.elements()
    cp = check_complete(t, sample, LexElem.zero(1))
    assert cp.complete and cp.prefix_gap_ok
    assert cp.prefix_gap_max == L(0)
    fr = check_free(t, sample, LexElem.zero(1))
    assert fr.free and fr.kernel_trivial


def test_free_fails_on_torsion():
    C = FiniteGroup.cyclic(2)
    t = LengthTable(C, {0: L(0), 1: L(5)})
    fr = check_free(t, [0, 1], LexElem.zero(1))
    # r^2 = 1 has length 0, not above l(r) + 3 delta
    assert not fr.free and fr.witness == "r"


def test_complete_detects_gap():
    Z = FreeGroup(1)
    vals = {}
    for k in range(-2, 3):
        g = Z.identity()
        step = Z.gens()[0] if k >= 0 else Z.inv(Z.gens()[0])
        for _ in range(abs(k)):
            g = Z.mul(g, step)
        vals[g] = L(2 * abs(k))
    t = LengthTable(Z, vals)
    cp = check_complete(t, t.elements(), LexElem.zero(1))
    assert not cp.complete and cp.witness is not None


def test_quasigeodesic_check_on_tree():
    t = f2_table(4)
    cs = to_space(t, ball_sample(t, 2))
    qr = quasigeodesic_check(cs, LexElem.zero(1))
    assert qr.ok and qr.pairs_checked > 0


def test_quasigeodesic_report_golden():
    t = f2_table(4)
    cs = to_space(t, ball_sample(t, 2))
    assert quasigeodesic_check(cs, LexElem.zero(1)) == QuasiReport(
        True, None, 136, 862, 0)
    # a negative slack fails the first pair of path points
    assert quasigeodesic_check(cs, L(-1)) == QuasiReport(
        False, ("1", "a", "1", "a"), 136, 862, 0)


def test_ball_group_check():
    r = finite_ball_hyperbolic_group_check(f2_table(3))
    assert r.short_count == 5
    assert r.generates and r.unreached is None
    assert r.delta is not None and r.delta.is_zero()


def test_ball_group_check_names_a_sample_element_outside_the_table():
    Z = FreeGroup(1)
    sample = [Z.identity(), Z.parse("aaa")]
    with pytest.raises(InputError, match="^element aaa outside the length table$"):
        finite_ball_hyperbolic_group_check(z_table(2), sample)


@given(seeds)
def test_axiom4_scan_encoded_matches_plain(seed):
    rng = Random(seed)
    Z = FreeGroup(1)
    lengths = {0: 0}
    for k in range(1, 7):
        lengths[k] = lengths[k - 1] + rng.randint(1, 2)
    vals = {z_power(k): L(lengths[abs(k)]) for k in range(-6, 7)}
    t = LengthTable(Z, vals)
    sample = [z_power(k) for k in range(-3, 4)]
    delta = LexElem((rng.randint(0, 7),))
    fast = axiom4_scan(t, delta, sample)
    # scaling lengths and delta together changes the packing width only
    big = LengthTable(Z, {k: v * 1000 for k, v in vals.items()})
    slow = axiom4_scan(big, delta * 1000, sample)
    assert fast.violating_pairs == slow.violating_pairs
    assert (fast.witness is None) == (slow.witness is None)


def test_axiom4_scan_counts_violations():
    # l(a)=4 but l(a^2)=1 makes products collapse below the minimum
    Z = FreeGroup(1)
    lengths = {0: 0, 1: 4, 2: 1, 3: 5, 4: 6}
    vals = {z_power(k): L(lengths[abs(k)]) for k in range(-4, 5)}
    t = LengthTable(Z, vals)
    sample = [z_power(k) for k in range(-2, 3)]
    r0 = axiom4_scan(t, L(0), sample)
    r9 = axiom4_scan(t, L(9), sample)
    assert r0.violating_pairs > 0 and r0.witness is not None
    assert r9.violating_pairs == 0 and r9.witness is None


def free_reduce(word):
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def free_mul(a, b):
    return free_reduce(a + b)


def free_inv(a):
    return tuple(-x for x in reversed(a))


FREE_LAW = (free_mul, free_inv)


def cyclic_law(n):
    return (lambda a, b: (a + b) % n, lambda a: -a % n)


def product_law(left, right):
    """The law of a direct product of two groups, from their laws."""
    (lmul, linv), (rmul, rinv) = left, right
    return (lambda a, b: (lmul(a[0], b[0]), rmul(a[1], b[1])),
            lambda a: (linv(a[0]), rinv(a[1])))


pair_mul, pair_inv = product_law(FREE_LAW, FREE_LAW)


def cyclic_table(n):
    C = FiniteGroup.cyclic(n)
    return word_length_table(C, (1,), n // 2)


def random_length_table(rng, kind):
    """A length table with its group law written out for the oracles.

    "f2": the F2 ball of radius 2 with holes and +-1 bumps; "z": lengths
    on a^k, |k| <= 2..6, of rank 1-3, top coordinate |k| with bumps and
    lower coordinates up to 2 or 10^7; "f2xf2": the product of two F2
    balls of radius 1, with holes; "f2xc3": the F2 ball of radius 1 times
    C3, and "c2xzxz": (C2 x Z) x Z on |k| <= 1 and |k| <= 2, both with
    holes and +-1 bumps in the first coordinate.
    """
    if kind in ("f2xc3", "c2xzxz"):
        if kind == "f2xc3":
            prod = product_length(f2_table(1), cyclic_table(3))
            law = product_law(FREE_LAW, cyclic_law(3))
        else:
            prod = product_length(product_length(cyclic_table(2), z_table(1)),
                                  z_table(2))
            law = product_law(product_law(cyclic_law(2), FREE_LAW), FREE_LAW)
        e = prod.group.identity()
        bump = [LexElem((b,) + (0,) * (prod.rank - 1)) for b in (0, 0, 1, -1)]
        values = {g: v + rng.choice(bump) if g != e else v
                  for g, v in prod.values.items() if g == e or rng.random() > 0.1}
        return (LengthTable(prod.group, values),) + law
    if kind == "f2":
        values = {g: L(v.coords[0] + (rng.choice((0, 0, 1, -1)) if g else 0))
                  for g, v in f2_table(2).values.items()
                  if not g or rng.random() > 0.15}
        return LengthTable(FreeGroup(2), values), free_mul, free_inv
    if kind == "z":
        rank, spread = rng.randint(1, 3), rng.choice((2, 10 ** 7))
        values = {}
        for k in range(-rng.randint(2, 6), rng.randint(2, 6) + 1):
            low = [rng.randint(-spread, spread) if k else 0 for _ in range(rank - 1)]
            top = abs(k) + rng.choice((0, 0, 1, -1)) if k else 0
            values[z_power(k)] = LexElem(low + [top])
        return LengthTable(FreeGroup(1), values), free_mul, free_inv
    prod = product_length(f2_table(1), f2_table(1))
    values = {g: v for g, v in prod.values.items()
              if g == ((), ()) or rng.random() > 0.1}
    return LengthTable(prod.group, values), pair_mul, pair_inv


KINDS = ("f2", "z", "f2xf2", "f2xc3", "c2xzxz")


def rendered(G, elems):
    return None if elems is None else tuple(G.render(g) for g in elems)


@given(seeds, st.sampled_from(KINDS), st.integers(0, 2),
       st.integers(0, 1))
def test_regular_and_complete_match_oracles(seed, kind, k, d):
    rng = Random(seed)
    t, mul, inv = random_length_table(rng, kind)
    G = t.group
    sample = list(t.elements())
    rng.shuffle(sample)
    sample = sample[:rng.randint(1, len(sample))]
    coords = [0] * t.rank
    coords[rng.randrange(t.rank)] = d
    delta = LexElem(coords)
    length = {g: v.coords for g, v in t.values.items()}
    want = oracle_regular(sample, length, mul, inv, k, tuple(coords))
    for key in ("r1_witness", "r2_witness", "r2_shift_witness"):
        want[key] = rendered(G, want[key])
    assert check_regular(t, sample, k, delta)._asdict() == want
    if t.rank != 1:
        with pytest.raises(InputError):
            check_complete(t, sample, delta)
        return
    want = oracle_complete(sample, length, mul, inv, tuple(coords))
    if want["witness"] is not None:
        want["witness"] = (G.render(want["witness"][0]), want["witness"][1])
    want["prefix_gap_witness"] = rendered(G, want["prefix_gap_witness"])
    got = check_complete(t, sample, delta)._asdict()
    if got["prefix_gap_max"] is not None:
        got["prefix_gap_max"] = got["prefix_gap_max"].coords
    assert got == want


def fractions(q):
    return None if q is None else tuple(Fraction(c, q.den) for c in q.num.coords)


def product_closed(sample, length, mul, inv):
    """The longest prefix-greedy subsample with every l(x^-1 y) known."""
    kept = []
    for g in sample:
        if all(mul(inv(x), y) in length for x in kept + [g] for y in kept + [g]):
            kept.append(g)
    return kept


@given(seeds, st.sampled_from(KINDS), st.integers(0, 1))
# a table that is not inversion-symmetric: c(s_j, s_i) differs from c(s_i, s_j)
@example(seed=0, kind="z", d=0)
def test_axiom_scans_match_oracles(seed, kind, d):
    # random tables with holes; a subsample is rarely closed under
    # inverses, so check_axioms also runs the rows that multiply
    rng = Random(seed)
    t, mul, inv = random_length_table(rng, kind)
    G = t.group
    sample = list(t.elements())
    rng.shuffle(sample)
    if rng.random() < 0.7:
        sample = sample[:rng.randint(1, len(sample))]
    length = {g: v.coords for g, v in t.values.items()}

    want = oracle_axioms(sample, length, mul, inv)
    for key in ("subadditive_witness", "delta_witness"):
        want[key] = rendered(G, want[key])
    for key in ("nonneg_witness", "symmetric_witness"):
        if want[key] is not None:
            want[key] = G.render(want[key])
    got = check_axioms(t, sample)._asdict()
    assert got.pop("radius") == t.radius
    got["delta"] = fractions(got["delta"])
    assert got == want
    if t.rank == 1:
        ball = finite_ball_hyperbolic_group_check(t, sample)
        assert (fractions(ball.delta), ball.delta_witness, ball.triples_checked,
                ball.triples_skipped) == (want["delta"], want["delta_witness"],
                                          want["triples_checked"], want["triples_skipped"])

    coords = [0] * t.rank
    coords[rng.randrange(t.rank)] = d
    for part in (product_closed(sample, length, mul, inv), sample[:8]):
        want4 = oracle_axiom4(part, length, mul, inv, tuple(coords))
        if want4 is None:
            with pytest.raises(InputError):
                axiom4_scan(t, LexElem(coords), part)
            continue
        want4["witness"] = rendered(G, want4["witness"])
        assert axiom4_scan(t, LexElem(coords), part)._asdict() == want4

    # F2 x Z lengths with holes and bumps in the F2 coordinate: the
    # subgroup below height 1 is F2, with many triples to scan
    prod = product_length(f2_table(2), z_table(1))
    values = {g: v + L(rng.choice((0, 0, 0, 1, -1)) if g != ((), ()) else 0, 0)
              for g, v in prod.values.items() if g == ((), ()) or rng.random() > 0.1}
    for t, mul, inv in ((t, mul, inv), (LengthTable(prod.group, values), pair_mul, pair_inv)):
        length = {g: v.coords for g, v in t.values.items()}
        i = rng.randint(0, t.rank)
        delta = [rng.randint(0, 2) for _ in range(t.rank)]
        want0 = oracle_lambda0(t.elements(), length, mul, inv, i, tuple(delta))
        want0["witness"] = rendered(t.group, want0["witness"])
        assert lambda0_kernel(t, i, LexElem(delta))._asdict() == want0


# -- the length function of a Cayley graph and its metric -----------------


def permutation_group(*gens):
    """The group of permutations of 0..n-1 that gens generate, identity
    first, with the indices of gens in it; no gens generate the trivial
    group."""
    one = tuple(range(len(gens[0]) if gens else 1))
    elems, todo = {one}, [one]
    while todo:
        p = todo.pop()
        for g in gens:
            q = tuple(p[k] for k in g)
            if q not in elems:
                elems.add(q)
                todo.append(q)
    perms = sorted(elems)
    index = {p: i for i, p in enumerate(perms)}
    G = FiniteGroup([[index[tuple(q[k] for k in p)] for q in perms] for p in perms])
    return G, [index[g] for g in gens]


@pytest.mark.parametrize("gens", [
    ((1, 0, 2), (0, 2, 1)),                  # S3 by two transpositions
    ((1, 2, 3, 0), (0, 3, 2, 1)),            # D4 by a rotation and a reflection
    ((1, 0, 2, 3), (1, 2, 3, 0)),            # S4 by a transposition and a 4-cycle
    ((1, 0, 2, 3, 4), (1, 2, 3, 4, 0)),      # S5 by a transposition and a 5-cycle
], ids=["S3", "D4", "S4", "S5"])
def test_word_length_delta_is_the_cayley_graph_constant(gens):
    # l(g) = d(1, g) on the Cayley graph, so the length function's delta
    # is the triple constant at the identity; the group acts transitively
    # by isometries, so that is the four-point constant too
    G, S = permutation_group(*gens)
    radius = len(G.table)    # past the diameter: every l(g^-1 h) is known
    X = cayley_graph(G, S, radius).as_space()
    delta = check_axioms(word_length_table(G, S, radius)).delta
    assert delta == min_delta_at(X, G.render(G.identity())) == min_delta_4pt(X)


@st.composite
def permutation_gens(draw):
    """One to three distinct permutations of 0..3 or 0..4, none the
    identity."""
    one = tuple(range(draw(st.sampled_from((4, 5)))))
    return draw(st.lists(st.permutations(one).map(tuple).filter(lambda g: g != one),
                         min_size=1, max_size=3, unique=True))


@settings(derandomize=True, max_examples=40)
@given(permutation_gens())
@example([])                                 # the trivial group
@example([(1, 0, 2, 3)])                     # a group of order 2
def test_word_length_delta_is_the_cayley_graph_constant_on_drawn_subgroups(gens):
    G, S = permutation_group(*gens)
    # groups of order 1 and 2 have no triple, and delta 0 on both sides;
    # S5 itself is a fixed case above, and its four-point scan takes a second
    assume(len(G.table) < 120)
    radius = len(G.table)
    X = cayley_graph(G, S, radius).as_space()
    delta = check_axioms(word_length_table(G, S, radius)).delta
    assert delta == min_delta_at(X, G.render(G.identity())) == min_delta_4pt(X)


def assert_unit_coset_graph_is_the_cayley_graph(G, S, R):
    # at N = 1 two cosets are joined exactly when a generator moves one to
    # the other, and the word length has a trivial kernel; a table of
    # radius 2R holds l(g^-1 h) for every pair of the radius-R ball
    rc = RelCayley(G, word_length_table(G, S, 2 * R), 1, R, gens=S)
    X = cayley_graph(G, S, R)
    assert sorted(rc.labels) == sorted(X.labels)
    at = [rc.index(lab) for lab in X.labels]
    assert [[rc.d[i][j] for j in at] for i in at] == [list(row) for row in X.dist]


@pytest.mark.parametrize("R", [1, 2, 3])
def test_unit_coset_graph_of_f2_is_its_cayley_graph(R):
    F = FreeGroup(2)
    assert_unit_coset_graph_is_the_cayley_graph(F, F.gens(), R)


@settings(derandomize=True, max_examples=20)
@given(permutation_gens(), st.integers(min_value=1, max_value=3))
def test_unit_coset_graph_is_the_cayley_graph_on_drawn_subgroups(gens, R):
    G, S = permutation_group(*gens)
    assert_unit_coset_graph_is_the_cayley_graph(G, S, R)


# -- one quotient table per table and sample ------------------------------


def test_one_lenfun_command_builds_one_quotient_table(tmp_path, monkeypatch):
    built = []
    quotients = FreeGroup.quotients

    def counting(self, xs, ys):
        built.append((len(xs), len(ys)))
        return quotients(self, xs, ys)

    monkeypatch.setattr(FreeGroup, "quotients", counting)
    (tmp_path / "f2.grp").write_text(write_grp(FreeGroup(2)))
    path = tmp_path / "f2.len"
    # the ball is closed under inverses, so no row multiplies s_a s_b
    path.write_text(write_len(f2_table(2), "f2.grp"))
    assert main(["lenfun", "--len", str(path), "--axioms", "--regular", "1",
                 "--complete"]) == 0
    assert built == [(17, 17)]


def test_back_to_back_tables_and_samples_keep_their_own_results():
    t = f2_table(2)
    bumped = LengthTable(t.group, {g: v + L(1) if g else v for g, v in t.values.items()})
    elements = list(t.elements())
    half = elements[::2]
    zero = LexElem.zero(1)
    runs = [(t, elements), (bumped, elements), (t, half), (bumped, half), (t, elements)]

    def results(table, sample):
        return (check_axioms(table, sample), check_regular(table, sample, 1, zero),
                check_complete(table, sample, zero))

    want = []
    for table, sample in runs:
        _quotient_lengths.cache_clear()
        want.append(results(table, sample))
    _quotient_lengths.cache_clear()
    assert [results(table, sample) for table, sample in runs] == want
    # the bump loses every exact split, and the half sample drops pairs
    assert want[0] != want[1] and want[0] != want[2] and want[0] == want[4]
