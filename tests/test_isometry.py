from random import Random

import pytest
from hypothesis import given, strategies as st

from lhyp.errors import InputError
from lhyp.isometry import (IsoPerm, check_isometry, classify_certificate,
                           identity_perm, induce_on_quotient,
                           isometries_extending, orbit_diameter,
                           preserved_convex_systems, read_perm,
                           translation_length_tree, write_perm)
from lhyp.lspace import FiniteLambdaSpace
from lhyp.ordgroup import LexElem

from helpers import L, cycle_space, random_metric_rows, random_tree_space, space_rank1

seeds = st.integers(min_value=0, max_value=10 ** 6)


def rot(n, k=1):
    return tuple((i + k) % n for i in range(n))


def path_space(n):
    return space_rank1([[abs(i - j) for j in range(n)] for i in range(n)])


def two_level_space():
    # two points separated by an infinitely larger gap than their size
    return FiniteLambdaSpace(["p", "q"], [[L(0, 0), L(0, 1)], [L(0, 1), L(0, 0)]])


def test_isoperm_validates_and_orders():
    X = cycle_space(4)
    r = IsoPerm(X, rot(4))
    assert r.order == 4
    assert r.apply("v0") == "v1"
    assert r.power(2).apply("v0") == "v2"
    assert r.power(-1).perm == r.inverse().perm
    assert r.compose(r.inverse()).perm == identity_perm(X).perm
    with pytest.raises(InputError):
        IsoPerm(X, (0, 1, 2, 2))


def test_order_and_powers_of_a_permutation_of_large_order():
    # one cycle for each of the first nine primes: the order is their
    # product, far beyond composing the permutation with itself
    n = 100
    X = space_rank1([[int(i != j) for j in range(n)] for i in range(n)])
    perm = []
    for m in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        perm += [len(perm) + (t + 1) % m for t in range(m)]
    pi = IsoPerm(X, perm)
    assert pi.order == 223092870
    assert pi.power(pi.order + 1) == pi
    assert pi.power(pi.order) == identity_perm(X)
    assert pi.power(-1) == pi.inverse()


def test_non_isometry_rejected_with_witness():
    X = path_space(3)
    ok, wit = check_isometry(X, (1, 0, 2))
    assert not ok and set(wit) <= set(X.labels)
    with pytest.raises(InputError):
        IsoPerm(X, (1, 0, 2))


def test_orbit_diameter_on_c4():
    X = cycle_space(4)
    assert orbit_diameter(X, IsoPerm(X, rot(4)), "v0") == L(2)
    swap = IsoPerm(X, (2, 3, 0, 1))
    assert orbit_diameter(X, swap, "v0") == L(2)
    assert orbit_diameter(X, identity_perm(X), "v0") == L(0)


def test_identity_is_elliptic_at_k_zero():
    X = cycle_space(4)
    cert = classify_certificate(X, identity_perm(X), L(1), 0)
    assert cert.kind == "elliptic" and cert.K == 0


def test_rotation_elliptic_when_k_budget_allows():
    X = cycle_space(8)
    r = IsoPerm(X, rot(8))
    cert = classify_certificate(X, r, L(2), 2)
    assert cert.kind == "elliptic"
    # with no budget the sweep finds nothing to certify
    cert0 = classify_certificate(X, r, L(2), 0)
    assert cert0.kind == "undetermined"


def test_delta_below_four_point_constant_refused():
    X = cycle_space(8)
    with pytest.raises(InputError):
        classify_certificate(X, identity_perm(X), L(1), 1)


def test_inversion_certificate_on_two_level_swap():
    X = two_level_space()
    swap = IsoPerm(X, (1, 0))
    cert = classify_certificate(X, swap, L(1, 0), 0)
    assert cert.kind == "inversion"
    assert cert.witness in X.labels


@given(seeds)
def test_conjugation_preserves_the_certificate(seed):
    rng = Random(seed)
    X = cycle_space(6)
    pi = IsoPerm(X, rot(6, rng.randrange(6)))
    sigma = IsoPerm(X, rot(6, rng.randrange(6)))
    conj = sigma.compose(pi).compose(sigma.inverse())
    K = rng.randrange(4)
    a = classify_certificate(X, pi, L(1), K)
    b = classify_certificate(X, conj, L(1), K)
    assert a.kind == b.kind


@given(seeds)
def test_elliptic_certificates_survive_powers(seed):
    rng = Random(seed)
    X = cycle_space(8)
    pi = IsoPerm(X, rot(8, rng.randrange(8)))
    cert = classify_certificate(X, pi, L(2), 2)
    if cert.kind == "elliptic":
        sq = classify_certificate(X, pi.power(2), L(2), 2)
        assert sq.kind == "elliptic"


def test_translation_length_of_partial_shift():
    X = path_space(7)
    shift = {"v%d" % i: "v%d" % (i + 2) for i in range(5)}
    rep = translation_length_tree(X, shift)
    assert rep.value == L(2)
    assert rep.independent
    # pi^2 y exists only while y + 4 stays on the segment
    assert len(rep.profile) == 3


def test_translation_length_of_reflection_vanishes():
    X = path_space(5)
    refl = IsoPerm(X, tuple(range(4, -1, -1)))
    rep = translation_length_tree(X, refl)
    assert rep.value == L(0) and rep.independent
    assert translation_length_tree(X, refl, y="v1").value == L(0)


def test_translation_length_needs_a_tree():
    X = cycle_space(4)
    with pytest.raises(InputError):
        translation_length_tree(X, identity_perm(X))


@pytest.mark.parametrize("n", (5, 72))
def test_translation_length_needs_a_metric(n):
    # on both sides of the four-point crossover
    rows = random_metric_rows(Random(n), n, maxw=9)
    rows[0][1] = rows[1][0] = -3
    X = space_rank1(rows)
    with pytest.raises(InputError, match="^input is not a metric space: LM1 at v0,v1$"):
        translation_length_tree(X, identity_perm(X))


@given(seeds)
def test_translation_length_basepoint_free_on_trees(seed):
    X = random_tree_space(Random(seed), 8)
    rep = translation_length_tree(X, identity_perm(X))
    assert rep.value == L(0) and rep.independent
    assert len(rep.profile) == 8


def test_induced_quotient_map():
    X = two_level_space()
    swap = IsoPerm(X, (1, 0))
    Q, qpi = induce_on_quotient(X, swap, 1)
    assert len(Q) == 2 and qpi.perm == (1, 0)
    Q0, qpi0 = induce_on_quotient(X, swap, 0)
    assert len(Q0) == 2 and qpi0.order == 2


def test_preserved_convex_systems_lists_invariant_classes():
    X = two_level_space()
    ident = identity_perm(X)
    levels = dict(preserved_convex_systems(X, ident))
    assert 1 in levels  # singleton classes are preserved by the identity
    swap = IsoPerm(X, (1, 0))
    assert 1 not in dict(preserved_convex_systems(X, swap))


def test_isometry_group_of_c4_is_dihedral():
    X = cycle_space(4)
    all_of_them = list(isometries_extending(X, {}))
    assert len(all_of_them) == 8
    fixed = list(isometries_extending(X, {"v0": "v1"}))
    assert len(fixed) == 2
    assert all(p.apply("v0") == "v1" for p in fixed)
    # pinning v1 next to a fixed v0 at the wrong distance kills everything
    assert list(isometries_extending(X, {"v0": "v0", "v1": "v2"})) == []


def test_isometries_extending_respects_limit():
    X = cycle_space(4)
    assert len(list(isometries_extending(X, {}, limit=3))) == 3


def test_perm_file_round_trip():
    perm = (2, 0, 1)
    assert read_perm(write_perm(perm)) == perm
    assert read_perm("2 0 1  # a comment\n") == perm
    with pytest.raises(InputError):
        read_perm("0 0 1\n")
    with pytest.raises(InputError):
        read_perm("zero one\n")
