from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from lhyp import geodspace, relhyp
from lhyp.catalog import (DirectProduct, FiniteGroup, FreeGroup, LengthTable,
                          word_length_table)
from lhyp.errors import ConstructionError, InputError
from lhyp.lenfun import finite_ball_hyperbolic_group_check
from lhyp.ordgroup import LexElem
from lhyp.relhyp import (QiReport, RelCayley, RelGeodReport, check_Pn,
                         check_proper, check_qi, pn_L, pn_threshold,
                         scale_lengths, short_pair_report,
                         verify_relhyp_geodesics)

from helpers import L, f2_table, z_table
from oracles import (oracle_ball_property, oracle_reached, oracle_relcayley,
                     word_lengths_free)

Z = FreeGroup(1)
F2 = FreeGroup(2)


def z_rc(N=2, radius=5, table_radius=10):
    return RelCayley(Z, z_table(table_radius), N, radius)


def f2_rc(N=1, radius=2, table_radius=4):
    return RelCayley(F2, f2_table(table_radius), N, radius)


def z_like_table(lengths):
    """Ad hoc symmetric table on powers of the Z generator."""
    values = {Z.identity(): L(0)}
    for k, v in lengths.items():
        values[(1,) * k] = L(v)
        values[(-1,) * k] = L(v)
    return LengthTable(Z, values)


# -- coset graphs ---------------------------------------------------------


def test_z_coset_graph_golden():
    rc = z_rc()
    assert len(rc) == 11
    assert rc.labels[0] == "1"
    i5 = rc.index("aaaaa")
    assert rc.dist[0][i5] == L(5)
    assert rc.rel_dist[0][i5] == 5
    assert rc.coset_length(i5) == L(5)
    assert rc.weight(0, i5) is None  # 5 > N, the edge is dropped
    assert rc.weight(rc.index("aaa"), i5) == L(2)
    assert rc.weight(0, 0) == L(0)
    with pytest.raises(InputError):
        rc.index("bb")


def test_f2_coset_graph_golden():
    rc = f2_rc()
    assert len(rc) == 17
    rep = check_qi(rc)
    assert rep.pairs_checked == 136 and rep.unreachable == 0
    assert rep.N_prime == 1
    assert rep.alpha == L(0) and rep.alpha_star == L(1)
    assert rep.upper_ok and rep.lower_ok and rep.witness is None


def test_f2_rel_dist_is_the_reduced_word_length():
    # the kernel is trivial, so every coset is one reduced word; a word's
    # geodesic to another runs through their common prefix, inside the ball
    rc = f2_rc(N=1, radius=3, table_radius=6)
    assert len(rc) == 53

    def reduced_length(word):
        out = []
        for x in word:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        return len(out)

    words = [mem[0] for mem in rc.members]
    assert all(len(mem) == 1 for mem in rc.members)
    for u, wu in enumerate(words):
        inverse = [-x for x in reversed(wu)]
        for v, wv in enumerate(words):
            assert rc.rel_dist[u][v] == reduced_length(inverse + list(wv))


def test_kernel_cosets_fold_a_finite_factor():
    G = DirectProduct(FiniteGroup.cyclic(2), Z)
    values = {}
    for c in range(2):
        for k in range(-8, 9):
            z = (1,) * k if k >= 0 else (-1,) * (-k)
            values[(c, z)] = L(abs(k))
    table = LengthTable(G, values)
    rc = RelCayley(G, table, N=2, radius=4)
    assert len(rc) == 9
    assert all(len(mem) == 2 for mem in rc.members)
    assert rc.dist[0][rc.index("1|aaaa")] == L(4)


def test_z_qi_report_golden():
    rep = check_qi(z_rc())
    assert rep.N_prime == 2
    assert rep.alpha == L(0) and rep.alpha_star == L(1)
    assert rep.pairs_checked == 55 and rep.unreachable == 0
    assert rep.upper_ok and rep.lower_ok


# -- short pairs ----------------------------------------------------------


def test_z_short_pairs_collapse():
    rep = short_pair_report(z_rc())
    assert rep.checked == 18
    assert rep.ok and rep.witness is None


def test_short_pair_failure_is_witnessed():
    # a length bump makes the two-step 1 -> a -> aa geodesic with no
    # direct edge of weight <= N left to replace it
    table = z_like_table({1: 1, 2: 3, 3: 4, 4: 5, 5: 6, 6: 7})
    rc = RelCayley(Z, table, N=2, radius=3)
    rep = short_pair_report(rc)
    assert not rep.ok
    u, m, v = rep.witness
    iu, im, iv = rc.index(u), rc.index(m), rc.index(v)
    assert rc.weight(iu, im) + rc.weight(im, iv) == rc.dist[iu][iv]
    assert rc.weight(iu, iv) is None


# -- geodesic inequalities ------------------------------------------------


def test_z_two_edge_geodesics():
    rep = verify_relhyp_geodesics(z_rc(), 1, L(0))
    assert rep.two_edge_checked == 8 and rep.two_edge_ok
    assert rep.three_edge_checked == 0 and rep.three_edge_ok
    assert rep.witness is None


def test_z_three_edge_geodesics_at_wider_n():
    rc = z_rc(N=4, radius=5)
    rep = verify_relhyp_geodesics(rc, 1, L(0))
    assert rep.two_edge_checked > 0 and rep.two_edge_ok
    assert rep.three_edge_checked > 0 and rep.three_edge_ok


def test_geodesic_report_input_errors():
    rc = z_rc()
    with pytest.raises(InputError):
        verify_relhyp_geodesics(rc, 0, L(0))
    with pytest.raises(InputError):
        verify_relhyp_geodesics(rc, 1, LexElem((0, 0)))


@given(st.integers(min_value=1, max_value=3),
       st.integers(min_value=3, max_value=6))
def test_z_reports_hold_at_any_truncation(N, radius):
    rc = RelCayley(Z, z_table(12), N, radius)
    assert len(rc) == 2 * radius + 1
    assert short_pair_report(rc).ok
    qi = check_qi(rc)
    assert qi.upper_ok and qi.lower_ok
    geo = verify_relhyp_geodesics(rc, 1, L(0))
    assert geo.two_edge_ok and geo.three_edge_ok


# -- rescaling ------------------------------------------------------------


def test_scaled_table_gives_the_same_verdicts():
    rc = z_rc()
    rc3 = RelCayley(Z, scale_lengths(z_table(10), 3), N=6, radius=15)
    assert rc3.labels == rc.labels
    for i in range(len(rc)):
        assert rc3.dist[0][i] == rc.dist[0][i] * 3
    assert short_pair_report(rc3).ok == short_pair_report(rc).ok
    a, b = check_qi(rc3), check_qi(rc)
    assert (a.upper_ok, a.lower_ok) == (b.upper_ok, b.lower_ok)
    assert a.alpha_star == b.alpha_star * 3
    g3 = verify_relhyp_geodesics(rc3, 2, L(0))
    g1 = verify_relhyp_geodesics(rc, 2, L(0))
    assert (g3.two_edge_checked, g3.three_edge_checked) == \
        (g1.two_edge_checked, g1.three_edge_checked)
    assert g3.two_edge_ok and g3.three_edge_ok


def test_scale_needs_a_positive_factor():
    with pytest.raises(InputError):
        scale_lengths(z_table(4), 0)


# -- ball property --------------------------------------------------------


def test_f2_ball_property_golden():
    rep = check_Pn(F2, f2_table(4), 1, 2)
    assert rep.alpha == L(0) and rep.alpha_ok
    assert rep.generates
    assert rep.double_cosets == 5


def test_pn_zero_table_collapses_to_one_double_coset():
    G = FiniteGroup.cyclic(3)
    table = LengthTable(G, {g: L(0) for g in range(3)})
    rep = check_Pn(G, table, 0, 0)
    assert rep.alpha is None and rep.alpha_ok
    assert rep.generates
    assert rep.double_cosets == 1


def test_pn_needs_sane_arguments():
    with pytest.raises(InputError):
        check_Pn(F2, f2_table(4), 3, 2)
    with pytest.raises(InputError):
        pn_threshold(-1)
    with pytest.raises(InputError):
        pn_L(-1)


def test_threshold_brackets_are_certified():
    t = pn_threshold(0)
    assert t.lower == Fraction(363321, 8)
    assert t.upper == Fraction(1453287, 32)
    assert 45415 < t.lower < t.upper < 45416
    assert t.render() == ("6144*log2(154) + 768 + 2288*0 "
                          "in [363321/8, 1453287/32)")
    lo = pn_L(0)
    assert lo.lower == Fraction(363321, 32)
    assert lo.upper == Fraction(1453287, 128)
    assert lo.upper - lo.lower == Fraction(1536, 65536)
    assert 11353 < lo.lower < lo.upper < 11354


def test_the_stored_log2_154_bracket_holds():
    p, e = relhyp._LOG2_154
    power = 154 ** e
    assert 2 ** p <= power < 2 ** (p + 1)


@given(st.integers(min_value=0, max_value=40))
def test_threshold_is_affine_in_delta(d):
    t0, td = pn_threshold(0), pn_threshold(d)
    assert td.lower == t0.lower + 2288 * d
    assert td.upper == t0.upper + 2288 * d
    l0, ld = pn_L(0), pn_L(d)
    assert ld.lower == l0.lower + 572 * d
    # the threshold is exactly four times L, including the brackets
    assert 4 * ld.lower == td.lower and 4 * ld.upper == td.upper


# -- properness tabulation ------------------------------------------------


def test_proper_rows_for_the_free_group():
    rep = check_proper(F2, f2_table(4), 2)
    assert rep.radius == 2 and rep.alpha == L(0)
    rows = [(r.N, r.ball_size, r.rel_diameter) for r in rep.rows]
    assert rows == [(1, 5, 1), (2, 17, 2)]


def test_proper_radius_must_be_positive():
    with pytest.raises(InputError):
        check_proper(F2, f2_table(4), 0)


def test_proper_rejects_an_identity_beyond_the_radius():
    table = z_like_table({1: 1, 2: 2})
    table.values[Z.identity()] = L(5)
    with pytest.raises(InputError, match="identity 1 lies beyond the radius 1"):
        check_proper(Z, table, 1)


# -- construction errors --------------------------------------------------


def test_relcayley_argument_validation():
    with pytest.raises(InputError):
        RelCayley(Z, z_table(4), 0, 2)
    with pytest.raises(InputError):
        RelCayley(Z, z_table(10), 1, 5, gens=[Z.parse("aa")])


def test_relcayley_needs_a_wide_enough_table():
    with pytest.raises(InputError):
        RelCayley(Z, z_table(6), 2, 5)


def test_relcayley_detects_asymmetric_lengths():
    table = LengthTable(Z, {(): L(0), (1,): L(1), (-1,): L(2)})
    with pytest.raises(InputError):
        RelCayley(Z, table, 1, 1)


def test_relcayley_rejects_length_varying_on_a_coset():
    G = DirectProduct(FiniteGroup.cyclic(2), Z)
    values = {(0, ()): L(0), (1, ()): L(0),
              (0, (1,)): L(1), (1, (1,)): L(5),
              (0, (-1,)): L(1), (1, (-1,)): L(5)}
    with pytest.raises(InputError):
        RelCayley(G, LengthTable(G, values), 1, 1)


def test_relcayley_reads_one_sample_over_its_reps(monkeypatch):
    built = []
    sample = relhyp._Sample

    def recording(table, elems, extra=()):
        built.append((table, tuple(elems), tuple(extra)))
        return sample(table, elems, extra)

    monkeypatch.setattr(relhyp, "_Sample", recording)
    rc = z_rc()
    assert built == [(rc.table, rc.reps, (L(2),))]


def test_relcayley_multiplies_only_its_reps(monkeypatch):
    # S3 with kernel K = {e, (01)}: the reps 1, a, b are the least of their
    # cosets, and a^-1 = c lies outside them, yet the sample forms one
    # quotient table
    perms = [(0, 1, 2), (1, 2, 0), (1, 0, 2), (0, 2, 1), (2, 0, 1), (2, 1, 0)]
    table = [[perms.index(tuple(p[i] for i in q)) for q in perms] for p in perms]
    G = FiniteGroup(table, ["1", "a", "k", "b", "c", "t"])
    built = []
    quotients = FiniteGroup.quotients

    def counting(self, xs, ys):
        built.append((len(xs), len(ys)))
        return quotients(self, xs, ys)

    monkeypatch.setattr(FiniteGroup, "quotients", counting)
    lengths = LengthTable(G, {g: L(0 if g in (0, 2) else 1) for g in range(6)})
    rc = RelCayley(G, lengths, 1, 1)
    assert rc.labels == ("1", "a", "b") and G.render(G.inv(1)) == "c"
    assert built == [(3, 3)]


def test_relcayley_disconnected_truncation():
    # a^5 is a vertex but every edge out of it weighs more than N
    table = z_like_table({1: 1, 2: 7, 4: 9, 5: 5, 6: 11, 10: 15})
    with pytest.raises(ConstructionError):
        RelCayley(Z, table, 2, 5)


def test_relcayley_rejects_a_negative_length():
    # a Dijkstra over a negative 2-cycle would never settle
    with pytest.raises(InputError, match="negative"):
        RelCayley(Z, z_like_table({1: -1}), 2, 1)


# -- oracle comparison ----------------------------------------------------


def power(k):
    return (1,) * k if k >= 0 else (-1,) * -k


def power_case(kind, f, N, radius, low=0, gens=None):
    """A table with l(a^k) = f[|k|], |k| <= 2 radius, and its coset reps.

    ``kind`` is "z", "c2z" (C2 x Z, whose C2 factor is the kernel) or
    "zz" (Z x Z on its first-factor generator); the elements of Z x Z
    off the first factor get lengths (lower, j), lower spread over
    +-10^7 from ``low``, and stay outside every N-ball.
    """
    ks = range(-2 * radius, 2 * radius + 1)
    reps = [power(k) for k in ks if f[abs(k)] <= radius]
    if kind == "z":
        values = {power(k): L(f[abs(k)]) for k in ks}
        return Z, LengthTable(Z, values), N, radius, gens, reps
    if kind == "c2z":
        G = DirectProduct(FiniteGroup.cyclic(2), Z)
        values = {(c, power(k)): L(f[abs(k)]) for c in range(2) for k in ks}
        return G, LengthTable(G, values), N, radius, gens, \
            [(0, r) for r in reps]
    G = DirectProduct(Z, Z)
    values = {}
    for k in ks:
        values[(power(k), ())] = L(f[abs(k)], 0)
        for j in (1, 2):
            lower = (low * (k + 7) * j) % (2 * 10 ** 7 + 1) - 10 ** 7
            values[(power(k), power(j))] = values[(power(-k), power(-j))] = \
                L(lower, j)
    return G, LengthTable(G, values), N, radius, [((1,), ())], \
        [(r, ()) for r in reps]


@st.composite
def coset_cases(draw):
    """A coset-graph case: table, N, radius, gens, coset reps, k, delta.

    Lengths of a^k, |k| <= radius, are |k| bumped by -1 to +2 (and
    l(a) <= N); beyond the radius they stay above it, so the table
    covers every pair of the ball.  The F2 ball gets the same bumps on
    its words of length 2 to radius.  delta has height 0 (zero), 1
    (first coordinate only) or 2, of either sign.
    """
    kind = draw(st.sampled_from(["z", "c2z", "f2", "zz"]))
    N = draw(st.integers(1, 5))
    radius = draw(st.integers(1, 2 if kind == "f2" else 4))
    if kind == "f2":
        values = dict(f2_table(2 * radius).values)
        for g in sorted(values, key=F2.render):
            if 2 <= len(g) <= radius and g < F2.inv(g):
                values[g] = values[F2.inv(g)] = \
                    L(draw(st.integers(len(g) - 1, len(g) + 2)))
        reps = [g for g, v in values.items() if v <= L(radius)]
        case = (F2, LengthTable(F2, values), N, radius, None, reps)
    else:
        f = {0: 0, 1: draw(st.integers(1, min(N, 2)))}
        for i in range(2, 2 * radius + 1):
            f[i] = draw(st.integers(max(1, i - 1), i + 2) if i <= radius
                        else st.integers(radius + 1, radius + 2))
        case = power_case(kind, f, N, radius,
                          draw(st.integers(-10 ** 7, 10 ** 7)))
    rank = case[1].rank
    height = draw(st.integers(0, rank))
    coords = [0] * rank
    if height:
        coords[height - 1] = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        coords[:height - 1] = [draw(st.integers(-5, 5))
                               for _ in range(height - 1)]
    return case + (draw(st.integers(1, 2)), LexElem(coords))


WORD = {i: i for i in range(9)}


@settings(max_examples=200)
@given(coset_cases())
# three-edge geodesics, all failing under a negative delta, on Z and on
# Z x Z with a delta below Lambda_1
@example(power_case("z", WORD, 4, 3) + (1, L(-1)))
@example(power_case("zz", WORD, 4, 3, low=5) + (2, L(3, -1)))
# a three-edge geodesic whose middle edge is exactly N/2
@example(power_case("z", WORD, 2, 3) + (1, L(0)))
# alpha* d' = 2 N' d_Gamma holds with equality at (a, aaaa)
@example(power_case("z", {0: 0, 1: 5, 2: 4, 3: 4, 4: 4, 5: 6, 6: 5, 7: 6,
                          8: 7}, 6, 4, gens=[power(1), power(3)])
         + (1, L(0)))
# a hole in the ball: unreachable pairs, qi_lower fails
@example(power_case("z", {**WORD, 2: 3, 3: 6, 4: 1, 5: 5, 6: 5, 7: 5,
                          8: 6}, 2, 4) + (1, L(0)))
# a^5 has no edge of weight <= N
@example(power_case("z", {0: 0, 1: 1, 2: 7, 3: 7, 4: 9, 5: 5, 6: 11, 7: 11,
                          8: 11, 9: 11, 10: 15}, 2, 5) + (1, L(0)))
def test_reports_match_the_oracle(case):
    G, table, N, radius, gens, reps, k, delta = case

    def raw(reps):
        weight = {(i, j): table.l(G.mul(G.inv(reps[i]), reps[j])).coords
                  for i in range(len(reps)) for j in range(i + 1, len(reps))}
        return weight, [table.l(r).coords for r in reps]

    try:
        rc = RelCayley(G, table, N, radius, gens=gens)
    except ConstructionError:
        want = oracle_relcayley(*raw(reps), N, None, k, delta.coords)
        assert any(x is None for row in want["dist"] for x in row)
        return
    assert sorted(rc.labels) == sorted(G.render(r) for r in reps)
    n = len(rc)
    want = oracle_relcayley(*raw(rc.reps), N, rc.rel_dist, k, delta.coords)
    assert [[x.coords for x in row] for row in rc.dist] == want["dist"]
    for i in range(n):
        for j in range(n):
            w = rc.weight(i, j)
            expect = want["dist"][i][i] if i == j else want["edge"].get((i, j))
            assert (None if w is None else w.coords) == expect

    def names(ids):
        return ids and tuple(x if isinstance(x, str) else rc.labels[x]
                             for x in ids)

    def lift(coords):
        return coords and LexElem(coords)

    sp = short_pair_report(rc)
    assert (sp.checked, sp.ok, sp.witness) == (
        want["short_checked"], want["short_witness"] is None,
        names(want["short_witness"]))
    wq = want["qi"]
    assert check_qi(rc) == QiReport(
        want["n_prime"], lift(want["alpha"]), lift(want["alpha_star"]),
        wq["checked"], wq["unreachable"], wq["upper_ok"], wq["lower_ok"],
        names(wq["witness"]))
    wg = want["geo"]
    assert verify_relhyp_geodesics(rc, k, delta) == RelGeodReport(
        k, wg["two_checked"], wg["two_bad"] == 0, wg["three_checked"],
        wg["three_bad"] == 0, names(wg["witness"]))


# -- ball property against the oracles ------------------------------------


def free_mul(a, b):
    word = list(a)
    for x in b:
        if word and word[-1] == -x:
            word.pop()
        else:
            word.append(x)
    return tuple(word)


# S3 as permutations of 0, 1, 2, the identity first; H = {1, (0 1)} is
# not normal, so its left, right and double cosets all differ
S3_PERMS = [(0, 1, 2), (1, 0, 2), (1, 2, 0), (0, 2, 1), (2, 1, 0), (2, 0, 1)]


def s3_mul(a, b):
    pa, pb = S3_PERMS[a], S3_PERMS[b]
    return S3_PERMS.index(tuple(pa[pb[i]] for i in range(3)))


S3 = FiniteGroup([[s3_mul(a, b) for b in range(6)] for a in range(6)])


def ball_case(rng):
    """A length table on Z, F2, C2 x Z, C3 x Z or S3 x Z, with its law.

    Lengths are the word length of the free part with bumps of -1 to +2
    per inverse pair (a bump to 0 grows the kernel).  On Cm x Z they ignore
    the finite factor, whose copy at the identity is then the kernel; on
    S3 x Z they add 1 off H, and H is the kernel.  Some tables have holes,
    a single element off its coset's length or negative, or an identity
    of nonzero length.
    """
    kind = rng.choice(["z", "f2", "c2z", "c3z", "s3z"])
    radius = rng.randint(0, 2 if kind == "f2" else 4)
    words = word_lengths_free(2 if kind == "f2" else 1,
                              2 * radius + rng.choice((0, 1)))
    bump = {}
    for w in sorted(words):
        if w not in bump:
            bump[w] = bump[free_mul((), tuple(-x for x in reversed(w)))] = \
                rng.choice((0, 0, 0, 1, -1, 2)) if w else 0
    free = {w: max(0, k + bump[w]) for w, k in words.items()}
    if kind in ("z", "f2"):
        G, mul, length = (FreeGroup(1) if kind == "z" else F2), free_mul, free
    elif kind == "s3z":
        G = DirectProduct(S3, Z)
        length = {(c, w): k + (c > 1) for c in range(6) for w, k in free.items()}

        def mul(a, b):
            return s3_mul(a[0], b[0]), free_mul(a[1], b[1])
    else:
        m = 2 if kind == "c2z" else 3
        G = DirectProduct(FiniteGroup.cyclic(m), Z)
        length = {(c, w): k for c in range(m) for w, k in free.items()}

        def mul(a, b):
            return (a[0] + b[0]) % m, free_mul(a[1], b[1])
    e = G.identity()
    holes = rng.choice((0, 0, 0.05, 0.15))
    length = {g: k for g, k in length.items() if g == e or rng.random() >= holes}
    if rng.random() < 0.2:
        g = rng.choice(sorted(length, key=G.render))
        length[g] = rng.choice((length[g] + 1, length[g] - 1, -1))
    if rng.random() < 0.15:
        length[e] = rng.randint(1, 3)
    table = LengthTable(G, {g: L(k) for g, k in length.items()})
    return G, table, mul, radius


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 6))
@example(1)  # a negative length: B_alpha misses the kernel
@example(24)  # C2 x Z: the kernel folds the n-ball into double cosets
@example(33)  # S3 x Z: four double cosets of H, where one-sided cosets give five
@example(49)  # the identity lies beyond the radius
def test_ball_property_matches_the_oracle(seed):
    rng = Random(seed)
    G, table, mul, radius = ball_case(rng)
    n = rng.randint(0, radius)
    length = {g: v.coords for g, v in table.values.items()}
    e = G.identity()
    want = oracle_ball_property(length, mul, e, n, radius)
    if want["double_cosets"] is None:
        with pytest.raises(InputError):
            check_Pn(G, table, n, radius)
    else:
        rep = check_Pn(G, table, n, radius)
        assert (rep.alpha and rep.alpha.coords, rep.alpha_ok, rep.generates,
                rep.double_cosets) == (want["alpha"], want["alpha_ok"],
                                       want["generates"], want["double_cosets"])
    if radius >= 1:
        try:
            rep = check_proper(G, table, radius)
        except InputError:
            # the coset graph refuses the table, as it must when the
            # identity lies beyond the radius
            pass
        else:
            assert length[e] <= (radius,)
            assert (rep.alpha and rep.alpha.coords) == want["alpha"]
            assert [r.ball_size for r in rep.rows] == want["sizes"]
    # the short elements of a sample should rebuild it, staying inside it
    sample = [g for g in table.elements() if rng.random() < 0.8][:40]
    short = [g for g in sample if length[g] <= (1,)]
    reached = oracle_reached(e, short, set(sample), mul)
    unreached = next((G.render(g) for g in sample if g not in reached), None)
    ball = finite_ball_hyperbolic_group_check(table, sample)
    assert (ball.short_count, ball.generates, ball.unreached) == (
        len(short), unreached is None, unreached)


def test_relcayley_tests_the_weights_once_per_table(monkeypatch):
    # one test for the coset graph's rows and one for the generator steps'
    calls = []
    unit = geodspace._unit_weights
    monkeypatch.setattr(geodspace, "_unit_weights",
                        lambda adj: calls.append(len(adj)) or unit(adj))
    rc = z_rc(N=2, radius=5)
    assert calls == [len(rc), len(rc)]
