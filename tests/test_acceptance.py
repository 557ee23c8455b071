"""Acceptance gate: twelve exact end-to-end checks, one test per claim.

Every test prints a single summary line

    criterion  k PASS   12.34s note

before asserting, so a bare ``pytest -s tests/test_acceptance.py`` reads
as a scorecard.  All arithmetic is integer or rational; there are no
tolerances anywhere, and the stated wall-clock budgets are part of the
checks themselves.
"""

import os
import time
from fractions import Fraction
from random import Random

from lhyp.catalog import FreeGroup, product_length
from lhyp.completion import (ESSENTIAL, check_RS, extend_isometry, gamma1,
                             gamma2, tau_max, write_cg)
from lhyp.geodspace import delta_relations, is_geodesic
from lhyp.isometry import isometries_extending
from lhyp.lenfun import (axiom4_scan, check_complete, check_free,
                         check_regular, from_action, to_space)
from lhyp.lspace import min_delta_4pt, min_delta_at
from lhyp.ordgroup import LexElem, QLexElem
from lhyp.relhyp import (RelCayley, check_qi, pn_L, pn_threshold,
                         verify_relhyp_geodesics)
from lhyp.smallgraphs import connected_graphs, edge_list

from helpers import (L, ceil_delta_int, cycle_space, f2_table,
                     random_metric_space, random_nongeodesic_space,
                     random_tree_space, random_unit_geodesic_space,
                     space_rank1, z_table)
from oracles import floyd


def report(num, ok, t0, note=""):
    msg = "criterion %2d %s %6.2fs %s" % (
        num, "PASS" if ok else "FAIL", time.perf_counter() - t0, note)
    print(msg)
    return msg


def triangle(side=2):
    return space_rank1([[0 if i == j else side for j in range(3)]
                        for i in range(3)], labels=["x", "y", "z"])


def thin_triangle():
    return space_rank1([[0, 2, 5], [2, 0, 5], [5, 5, 0]],
                       labels=["x", "y", "z"])


def unit_space(n, edges):
    return space_rank1(floyd(n, [(u, v, 1) for u, v in edges]))


def ball(table, r):
    return [g for g in table.elements() if table.l(g) <= L(r)]


def test_criterion_01_trees_are_zero_hyperbolic_everywhere():
    """100 random tree metrics: delta is 0 in the 4-point sense and at
    every basepoint, within 5 seconds."""
    t0 = time.perf_counter()
    rng = Random(101)
    ok = True
    for _ in range(100):
        X = random_tree_space(rng, rng.randint(2, 30))
        if not min_delta_4pt(X).is_zero():
            ok = False
            break
        if not all(min_delta_at(X, lab).is_zero() for lab in X.labels):
            ok = False
            break
    ok = ok and time.perf_counter() - t0 < 5.0
    msg = report(1, ok, t0, "100 trees <=30 pts, all basepoints")
    assert ok, msg


def test_criterion_02_basepoint_change_at_most_doubles_delta():
    """200 random metric tables: the basepoint delta at any point is at
    most twice the delta at any other, within 10 seconds."""
    t0 = time.perf_counter()
    rng = Random(202)
    ok = True
    for _ in range(200):
        X = random_metric_space(rng, rng.randint(3, 12), maxw=20)
        ds = [min_delta_at(X, lab) for lab in X.labels]
        if max(ds) > min(ds) * 2:
            ok = False
            break
    ok = ok and time.perf_counter() - t0 < 10.0
    msg = report(2, ok, t0, "200 tables <=12 pts")
    assert ok, msg


def test_criterion_03_constant_relations_on_all_small_graphs():
    """Every connected unit-edge graph on up to 8 vertices satisfies all
    six inequalities between the basepoint, thinness, and slimness
    constants, within 10 minutes."""
    t0 = time.perf_counter()
    total = 0
    ok = True
    for n in range(1, 9):
        for adj in connected_graphs(n):
            rel = delta_relations(unit_space(n, edge_list(adj)))
            total += 1
            if not rel.ok:
                ok = False
                break
        if not ok:
            break
    ok = ok and time.perf_counter() - t0 < 600.0
    msg = report(3, ok, t0, "%d graphs, six checks each" % total)
    assert ok, msg


def test_criterion_04_table_to_space_to_table_round_trip():
    """The radius-3 free-group word lengths survive the trip through the
    coset space and back via the left-translation action, and the base
    coset sees a 0-hyperbolic space.  The enclosing table has twice the
    radius so that pair distances inside the ball stay resolvable."""
    t0 = time.perf_counter()
    t = f2_table(6)
    F = t.group
    sample = ball(t, 3)
    cs = to_space(t, sample)
    act = {}
    for g in sample:
        m = {}
        for h in sample:
            gh = F.mul(g, h)
            if gh in cs.members:
                m[cs.members[h]] = cs.members[gh]
        act[g] = m
    back = from_action(F, act, cs.space, cs.base)
    ok = all(back.has(g) and back.l(g) == t.l(g) for g in sample)
    ok = ok and min_delta_at(cs.space, cs.base).is_zero()
    ok = ok and time.perf_counter() - t0 < 5.0
    msg = report(4, ok, t0, "%d elements of the radius-3 ball" % len(sample))
    assert ok, msg


def test_criterion_05_product_lengths_pass_at_one_one_only():
    """The product of two free-group length functions satisfies the
    fourth axiom at delta (1,1) over the full 289-element sample of
    radius-2 pairs; the same scan at (0,0) runs and its findings are
    recorded in the summary line."""
    t0 = time.perf_counter()
    t = f2_table(4)
    prod = product_length(t, t)
    b2 = ball(t, 2)
    sample = [(g, h) for g in b2 for h in b2]
    assert len(sample) == 289
    good = axiom4_scan(prod, LexElem((1, 1)), sample)
    bad = axiom4_scan(prod, LexElem((0, 0)), sample)
    ok = good.violating_pairs == 0 and good.pairs_checked > 0
    ok = ok and bad.pairs_checked == good.pairs_checked
    ok = ok and time.perf_counter() - t0 < 120.0
    found = ("counterexample %s" % (bad.witness,)
             if bad.violating_pairs else "no violation at this radius")
    msg = report(5, ok, t0, "(1,1): 0 of %d pairs; (0,0): %d pairs, %s"
                 % (good.pairs_checked, bad.violating_pairs, found))
    assert ok, msg


def test_criterion_06_stage_one_contract():
    """Stage one fixes geodesic inputs pointwise and, on non-geodesic
    inputs, returns a geodesic space containing the input isometrically
    with 4-point delta at most 29 times the input delta."""
    t0 = time.perf_counter()
    rng = Random(606)
    ok = True
    for _ in range(50):
        X = random_unit_geodesic_space(rng, rng.randint(2, 10))
        Y = gamma1(X, max(1, ceil_delta_int(X))).derived_space()
        if list(Y.labels) != list(X.labels) or Y.dist != X.dist:
            ok = False
            break
    for _ in range(50):
        if not ok:
            break
        X = random_nongeodesic_space(rng, rng.randint(3, 10))
        d = ceil_delta_int(X)
        g = gamma1(X, d)
        Y = g.derived_space()
        geod, _ = is_geodesic(Y)
        ess = [g.labels[i] for i, k in enumerate(g.klass) if k == ESSENTIAL]
        ok = geod and ess == list(X.labels)
        ok = ok and all(Y.d(a, b) == X.d(a, b)
                        for a in X.labels for b in X.labels)
        ok = ok and min_delta_4pt(Y) <= QLexElem.from_lex(L(29 * d))
    ok = ok and time.perf_counter() - t0 < 120.0
    msg = report(6, ok, t0, "50 geodesic + 50 non-geodesic inputs")
    assert ok, msg


def test_criterion_07_order_invariance_and_unique_lifts():
    """Both completion stages give byte-identical output under 10 random
    processing orders, and every input isometry lifts to an isometry of
    the completion that restricts correctly and is the only extension
    preserving the vertex classes (checked by exhaustive search over the
    completed space).  The class filter matters: a bare metric isometry
    may swap a path point with a bridge point sitting at the same
    distances, and such a swap is not a map of the completion."""
    t0 = time.perf_counter()
    rng = Random(707)
    corpus = [(triangle(), 1), (thin_triangle(), 1), (cycle_space(5), 1),
              (space_rank1([[0, 3, 5], [3, 0, 2], [5, 2, 0]],
                           labels=["a", "m", "b"]), 1),
              (random_tree_space(rng, 5), 1)]
    while True:
        X = random_metric_space(rng, rng.randint(4, 6), maxw=6)
        d = max(1, ceil_delta_int(X))
        if check_RS(X, L(d))[0]:
            corpus.append((X, d))
            break
    ok = True
    for X, d in corpus:
        stages = [gamma1(X, d), gamma2(X, d)]
        texts = [write_cg(g) for g in stages]
        for _ in range(10):
            seed = rng.randrange(10 ** 6)
            ok = ok and write_cg(gamma1(X, d, order_seed=seed)) == texts[0]
            ok = ok and write_cg(gamma2(X, d, order_seed=seed)) == texts[1]
        for pi in isometries_extending(X, {}):
            for g in stages:
                lifted = extend_isometry(g, pi)
                ok = ok and all(lifted.apply(lab) == pi.apply(lab)
                                for lab in X.labels)
                pin = {lab: pi.apply(lab) for lab in X.labels}
                exts = [p for p in
                        isometries_extending(g.derived_space(), pin)
                        if all(g.klass[i] == g.klass[p.perm[i]]
                               for i in range(len(g.labels)))]
                ok = ok and len(exts) == 1 and exts[0].perm == lifted.perm
        if not ok:
            break
    ok = ok and time.perf_counter() - t0 < 120.0
    msg = report(7, ok, t0, "%d instances, both stages" % len(corpus))
    assert ok, msg


def test_criterion_08_path_growth_is_linear_in_delta():
    """tau(n) stays below 4*delta*n for delta up to 5 and n up to 200,
    with the first jump landing exactly on 4*delta."""
    t0 = time.perf_counter()
    ok = all(tau_max(n, d) <= 4 * d * n
             for d in range(1, 6) for n in range(201))
    ok = ok and all(tau_max(2 * d + 1, d) == 4 * d for d in range(1, 6))
    ok = ok and time.perf_counter() - t0 < 1.0
    msg = report(8, ok, t0, "delta 1..5, n <= 200")
    assert ok, msg


def test_criterion_09_stage_two_contract():
    """Stage two fixes geodesic inputs as graphs, keeps the certified
    delta bound over a corpus of midpoint-passing inputs, and its capped
    intermediate stages grow monotonically toward the full output."""
    t0 = time.perf_counter()
    rng = Random(909)
    ok = True
    for _ in range(15):
        X = random_unit_geodesic_space(rng, rng.randint(2, 8))
        d = max(1, ceil_delta_int(X))
        if not check_RS(X, L(d))[0]:
            ok = False
            break
        g = gamma2(X, d)
        Y = g.derived_space()
        ok = (list(Y.labels) == list(X.labels) and Y.dist == X.dist
              and all(w == 1 for _, _, w in g.edges))
        if not ok:
            break
    corpus = []
    draws = 0
    # small entries keep the diameter, and with it the completion, small
    while len(corpus) < 12 and draws < 60:
        draws += 1
        X = random_metric_space(rng, rng.randint(4, 8), maxw=4)
        d = ceil_delta_int(X)
        if check_RS(X, L(d))[0]:
            corpus.append((X, d))
    ok = ok and len(corpus) == 12
    for X, d in corpus:
        if not ok:
            break
        g = gamma2(X, d)
        cert = g.certificate
        ok = cert["H"] == cert["H_measured"]
        bound = QLexElem.from_lex(L(int(cert["delta_bound"])))
        ok = ok and min_delta_4pt(g.derived_space()) <= bound
        diam = max(v.coords[0] for row in X.dist for v in row)
        prev = set()
        for cap in range(diam + 1):
            p = gamma2(X, d, cap=cap)
            have = {tuple(sorted(p.provenance[i]))
                    for i in range(len(p.labels))}
            ok = ok and prev <= have
            prev = have
        ok = ok and prev == {tuple(sorted(g.provenance[i]))
                             for i in range(len(g.labels))}
    ok = ok and time.perf_counter() - t0 < 300.0
    msg = report(9, ok, t0, "15 geodesic + %d capped sweeps" % len(corpus))
    assert ok, msg


def test_criterion_10_free_group_is_regular_complete_free():
    """The radius-4 free-group ball passes the regularity, completeness
    (with zero prefix gap), and freeness checks at delta 0, and the two
    regularity conditions imply each other on the same sample."""
    t0 = time.perf_counter()
    t = f2_table(8)
    sample = ball(t, 4)
    zero = LexElem.zero(1)
    rg = check_regular(t, sample, 1, zero)
    cp = check_complete(t, sample, zero)
    fr = check_free(t, sample, zero)
    ok = rg.r1_ok and rg.r2_ok
    ok = ok and rg.implication_r1_to_r2 and rg.implication_r2_to_r1
    ok = ok and cp.complete and cp.prefix_gap_ok and cp.prefix_gap_max == L(0)
    ok = ok and fr.free and fr.kernel_trivial
    ok = ok and time.perf_counter() - t0 < 60.0
    msg = report(10, ok, t0, "%d elements of the radius-4 ball" % len(sample))
    assert ok, msg


def test_criterion_11_coset_graphs_and_the_symbolic_threshold():
    """The Z and rank-2 coset graphs report no geodesic violations and
    pass both quasi-isometry bounds; the delta-0 threshold expression is
    certified inside an interval narrower than one integer.  The bracket
    is [363321/8, 1453287/32), which pins the value between 45415 and
    45416; the quarter-size bracket sits between 11353 and 11354."""
    t0 = time.perf_counter()
    rcz = RelCayley(FreeGroup(1), z_table(10), 2, 5)
    rcf = RelCayley(FreeGroup(2), f2_table(4), 1, 2)
    # Z x Z on its first-factor generator: lengths (|i|, |j|), rank 2
    zz = product_length(z_table(10), z_table(1))
    rczz = RelCayley(zz.group, zz, 2, 5, gens=[((1,), ())])
    ok = len(rczz) == 11 and rczz.table.rank == 2
    for rc in (rcz, rcf, rczz):
        geo = verify_relhyp_geodesics(rc, 1, LexElem.zero(rc.table.rank))
        ok = ok and geo.two_edge_ok and geo.three_edge_ok
        ok = ok and geo.witness is None
        qi = check_qi(rc)
        ok = ok and qi.upper_ok and qi.lower_ok
    th = pn_threshold(0)
    quarter = pn_L(0)
    ok = ok and th.lower == Fraction(363321, 8)
    ok = ok and th.upper == Fraction(1453287, 32)
    ok = ok and 45415 < th.lower and th.upper < 45416
    ok = ok and 11353 < quarter.lower and quarter.upper < 11354
    ok = ok and quarter.lower * 4 == th.lower and quarter.upper * 4 == th.upper
    ok = ok and time.perf_counter() - t0 < 60.0
    msg = report(11, ok, t0, "threshold(0) in (45415, 45416)")
    assert ok, msg


def test_criterion_12_parallel_scan_agrees_and_is_fast():
    """The 4-point scan on a 60-point table finishes under 10 seconds on
    one worker and returns identical results on 2, 4, and 8 workers.
    The speed comparison only applies where extra cores exist; on a
    single-core host the 8-worker run must merely stay within 3x."""
    t0 = time.perf_counter()
    X = random_metric_space(Random(1212), 60, maxw=20)
    s1 = time.perf_counter()
    d1 = min_delta_4pt(X, workers=1)
    t1 = time.perf_counter() - s1
    ok = t1 < 10.0
    for w in (2, 4, 8):
        ok = ok and min_delta_4pt(X, workers=w) == d1
    s8 = time.perf_counter()
    d8 = min_delta_4pt(X, workers=8)
    t8 = time.perf_counter() - s8
    ok = ok and d8 == d1
    if os.cpu_count() and os.cpu_count() >= 2:
        ok = ok and t8 < t1 + 0.5
    else:
        ok = ok and t8 <= 3.0 * t1 + 0.1
    msg = report(12, ok, t0, "t1=%.2fs t8=%.2fs cpus=%s"
                 % (t1, t8, os.cpu_count()))
    assert ok, msg
