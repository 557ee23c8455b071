"""Slow second opinions for the numeric kernels.

Everything here works on raw integer coordinate tuples with Fraction
arithmetic and brute-force scans, sharing no code with the package, so
the two sides can disagree honestly.
"""

import heapq
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import List, Sequence, Tuple

Raw = Tuple[int, ...]


def rkey(t: Sequence) -> Tuple:
    """Right-lexicographic comparison key: last coordinate decides first."""
    return tuple(reversed(tuple(t)))


def rlex_le(a: Sequence, b: Sequence) -> bool:
    return rkey(a) <= rkey(b)


def vec_add(a: Raw, b: Raw) -> Raw:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Raw, b: Raw) -> Raw:
    return tuple(x - y for x, y in zip(a, b))


def half(a: Raw) -> Tuple[Fraction, ...]:
    return tuple(Fraction(x, 2) for x in a)


def doubled_gromov(dist: List[List[Raw]], v: int, x: int, y: int) -> Raw:
    """2 (x . y)_v, kept doubled so everything stays integral."""
    return vec_sub(vec_add(dist[v][x], dist[v][y]), dist[x][y])


def oracle_delta_at(dist: List[List[Raw]], v: int) -> Tuple[Fraction, ...]:
    """Smallest delta making the triple condition hold at basepoint v."""
    n = len(dist)
    rank = len(dist[0][0])
    worst = tuple(Fraction(0) for _ in range(rank))
    for x, y, z in product(range(n), repeat=3):
        cxy = doubled_gromov(dist, v, x, y)
        cxz = doubled_gromov(dist, v, x, z)
        cyz = doubled_gromov(dist, v, y, z)
        m = cxz if rkey(cxz) <= rkey(cyz) else cyz
        need = half(vec_sub(m, cxy))
        if rkey(need) > rkey(worst):
            worst = need
    return worst


def oracle_delta_at_witness(dist: List[List[Raw]], v: int):
    """The constant at basepoint v and the first triple (x, y, z), over every
    ordered triple in index order, whose defect min{2(x.z)_v, 2(z.y)_v} -
    2(x.y)_v attains it.  Only a strictly larger defect replaces the one
    kept, so on a symmetric table the pair has x <= y."""
    n = len(dist)
    best, wit = None, None
    for x, y, z in product(range(n), repeat=3):
        cxz = doubled_gromov(dist, v, x, z)
        czy = doubled_gromov(dist, v, z, y)
        m = cxz if rkey(cxz) <= rkey(czy) else czy
        defect = vec_sub(m, doubled_gromov(dist, v, x, y))
        if best is None or rkey(defect) > rkey(best):
            best, wit = defect, (x, y, z)
    return half(best), wit


def oracle_pair_witness(dist: List[List[Raw]], v: int):
    """The constant at basepoint v as the kernel reads any table: with
    c(x, y) = d(x,v) + d(y,v) - d(x,y), the largest min{c(x,z), c(y,z)}
    - c(x,y) over x <= y and every z, halved, and the first (x, y, z) in
    index order to reach it.  On a symmetric table these are
    ``oracle_delta_at_witness``'s."""
    n = len(dist)

    def c(x, y):
        return vec_sub(vec_add(dist[x][v], dist[y][v]), dist[x][y])

    best, wit = None, None
    for x in range(n):
        for y in range(x, n):
            for z in range(n):
                cxz, cyz = c(x, z), c(y, z)
                m = cxz if rkey(cxz) <= rkey(cyz) else cyz
                defect = vec_sub(m, c(x, y))
                if best is None or rkey(defect) > rkey(best):
                    best, wit = defect, (x, y, z)
    return half(best), wit


def oracle_metric_violation(dist: List[List[Raw]]):
    """The first failed axiom and its points, or None: LM1 (a negative
    entry), LM2 (a zero off the diagonal or a nonzero on it) and LM3 (an
    asymmetric pair, first index lower) over pairs in index order, then
    LM4 over triples (i, j, k) with d(i,k) + d(k,j) < d(i,j)."""
    n = len(dist)
    zero = tuple(0 for _ in dist[0][0])
    pairs = list(product(range(n), repeat=2))
    for i, j in pairs:
        if rkey(dist[i][j]) < rkey(zero):
            return "LM1", (i, j)
    for i, j in pairs:
        if (i == j) != (dist[i][j] == zero):
            return "LM2", (i, j)
    for i, j in pairs:
        if i < j and dist[i][j] != dist[j][i]:
            return "LM3", (i, j)
    for i, j, k in product(range(n), repeat=3):
        if rkey(vec_add(dist[i][k], dist[k][j])) < rkey(dist[i][j]):
            return "LM4", (i, j, k)
    return None


def oracle_delta_4pt(dist: List[List[Raw]]) -> Tuple[Fraction, ...]:
    """Smallest delta in the four-point sum inequality, over all quadruples."""
    n = len(dist)
    rank = len(dist[0][0])
    worst = tuple(Fraction(0) for _ in range(rank))
    for x, y, z, w in product(range(n), repeat=4):
        s1 = vec_add(dist[x][y], dist[z][w])
        s2 = vec_add(dist[x][z], dist[y][w])
        s3 = vec_add(dist[x][w], dist[y][z])
        big = s2 if rkey(s2) >= rkey(s3) else s3
        need = half(vec_sub(s1, big))
        if rkey(need) > rkey(worst):
            worst = need
    return worst


def floyd(n: int, edges: Sequence[Tuple[int, int, int]]) -> List[List[int]]:
    """Integer shortest paths; edges are undirected (u, v, w)."""
    INF = 10 ** 9
    d = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v, w in edges:
        if w < d[u][v]:
            d[u][v] = d[v][u] = w
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik == INF:
                continue
            row = d[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < row[j]:
                    row[j] = alt
    return d


def floyd_directed(n: int, arcs: Sequence[Tuple[int, int, int]]) -> List[List[int]]:
    """Integer shortest paths along arcs (u, v, w) from u to v; unreachable
    entries are 10**9, as in ``floyd``."""
    INF = 10 ** 9
    d = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v, w in arcs:
        if w < d[u][v]:
            d[u][v] = w
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik == INF:
                continue
            row = d[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < row[j]:
                    row[j] = alt
    return d


def dijkstra(n: int, edges: Sequence[Tuple[int, int, int]]) -> List[List[int]]:
    """Integer shortest paths, one heap search per source.

    Edges are undirected (u, v, w); unreachable entries are 10**9, as in
    ``floyd``.
    """
    INF = 10 ** 9
    adj: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    rows = []
    for src in range(n):
        dist = [INF] * n
        dist[src] = 0
        heap = [(0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in adj[u]:
                if d + w < dist[v]:
                    dist[v] = d + w
                    heapq.heappush(heap, (d + w, v))
        rows.append(dist)
    return rows


def word_lengths_free(rank: int, radius: int) -> dict:
    """Reduced words as tuples of nonzero ints, mapped to their length."""
    out = {(): 0}
    frontier = [()]
    letters = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    for step in range(1, radius + 1):
        nxt = []
        for w in frontier:
            for a in letters:
                if w and w[-1] == -a:
                    continue
                u = w + (a,)
                if u not in out:
                    out[u] = step
                    nxt.append(u)
        frontier = nxt
    return out


def oracle_tau(n: int, delta: int) -> int:
    """Worst stretch of a length-n pair, straight from the recurrence.

    A length k <= 2*delta is kept; a longer one takes the worst split
    into k1 + k2 <= k + 2*delta with 1 <= k1, k2 < k, every split tried
    (no monotonicity shortcut).  A length with no split at all is kept.
    """
    tau = []
    for k in range(n + 1):
        splits = [tau[k1] + tau[k2]
                  for k1 in range(1, k) for k2 in range(1, k)
                  if k1 + k2 <= k + 2 * delta]
        tau.append(max(splits) if k > 2 * delta and splits else k)
    return tau[n]


def oracle_central_points(dist: List[List[Raw]], delta: Raw, x: int, y: int,
                          z: int) -> List[int]:
    """Points v with d(a,v) + d(v,b) <= d(a,b) + 2 delta for every pair
    a, b of the triple x, y, z, in index order."""
    slack = vec_add(delta, delta)
    return [v for v in range(len(dist))
            if all(rlex_le(vec_add(dist[a][v], dist[v][b]),
                           vec_add(dist[a][b], slack))
                   for a, b in ((x, y), (x, z), (y, z)))]


def scaled(c: int, a: Raw) -> Raw:
    return tuple(c * x for x in a)


def oracle_regular(sample: Sequence, length: dict, mul, inv, k: int,
                   delta: Raw) -> dict:
    """Conditions r1, r2 and r2 at k+1 straight from their definitions.

    ``length`` maps elements to raw Z^n tuples and ``mul``, ``inv`` are
    the group law.  Every ordered pair (g, h) of the sample with g^-1 h
    in the table is checked; each condition asks for some u in the sample
    with u^-1 g and u^-1 h in the table.  Witnesses are the first failing
    pairs as elements.
    """
    le = rlex_le

    def r1(lg, lh, lw, lu, lug, luh, slack):
        return (le(vec_sub(vec_add(lu, lug), lg), slack)
                and le(vec_sub(vec_add(lu, luh), lh), slack)
                and le(vec_sub(vec_add(lug, luh), lw), slack))

    def r2(lg, lh, lw, lu, lug, luh, slack):
        # 2 l(u) <= 2 c(g, h) + slack and the same at g^-1 and at h^-1
        return (le(scaled(2, lu), vec_add(vec_sub(vec_add(lg, lh), lw), slack))
                and le(scaled(2, lug), vec_add(vec_sub(vec_add(lg, lw), lh), slack))
                and le(scaled(2, luh), vec_add(vec_sub(vec_add(lh, lw), lg), slack)))

    slack, slack_s = scaled(2 * k, delta), scaled(2 * (k + 1), delta)
    bad = {"r1": None, "r2": None, "r2s": None}
    checked = skipped = 0
    for g in sample:
        for h in sample:
            w = mul(inv(g), h)
            if w not in length:
                skipped += 1
                continue
            checked += 1
            lg, lh, lw = length[g], length[h], length[w]
            found = {"r1": False, "r2": False, "r2s": False}
            for u in sample:
                ug, uh = mul(inv(u), g), mul(inv(u), h)
                if ug not in length or uh not in length:
                    continue
                args = (lg, lh, lw, length[u], length[ug], length[uh])
                found["r1"] |= r1(*args, slack)
                found["r2"] |= r2(*args, slack)
                found["r2s"] |= r2(*args, slack_s)
            for name, ok in found.items():
                if not ok and bad[name] is None:
                    bad[name] = (g, h)
    r1_ok, r2_ok, r2s_ok = (bad[name] is None for name in ("r1", "r2", "r2s"))
    return dict(k=k, r1_ok=r1_ok, r1_witness=bad["r1"], r2_ok=r2_ok,
                r2_witness=bad["r2"], r2_shift_ok=r2s_ok,
                r2_shift_witness=bad["r2s"],
                implication_r1_to_r2=not r1_ok or r2s_ok,
                implication_r2_to_r1=not r2_ok or r1_ok,
                pairs_checked=checked, pairs_skipped=skipped)


def oracle_complete(sample: Sequence, length: dict, mul, inv,
                    delta: Raw) -> dict:
    """Completeness and the prefix gap bound for Z-valued lengths.

    An exact prefix of g of length alpha is a u in the sample with u^-1 g
    in the table, l(u) = alpha and l(u) + l(u^-1 g) = l(g).  g is complete when every alpha in 0..l(g) has one; the witness is the
    first incomplete g with its least missing alpha.  For each pair g, h
    (sample order, g first) with g^-1 h in the table, every two exact
    prefixes u of g and v of h of one length alpha, 2 alpha <= 2 c(g, h),
    with u^-1 v in the table are compared: l(u^-1 v) <= 4 delta.  The
    prefix lengths of g are taken in the order their first prefix appears
    in the sample, then u and v in sample order.
    """
    def lone(g):
        (x,) = length[g]
        return x

    def prefixes(g):
        out = {}
        for u in sample:
            ug = mul(inv(u), g)
            if ug in length and lone(u) + lone(ug) == lone(g):
                out.setdefault(lone(u), []).append(u)
        return out

    pre = {g: prefixes(g) for g in sample}
    witness = None
    for g in sample:
        missing = [a for a in range(lone(g) + 1) if a not in pre[g]]
        if missing:
            witness = (g, missing[0])
            break
    bound = 4 * delta[0]
    gap_witness = gap_max = None
    pairs = decompositions = 0
    for i, g in enumerate(sample):
        for h in sample[i + 1:]:
            w = mul(inv(g), h)
            if w not in length:
                continue
            pairs += 1
            c2 = lone(g) + lone(h) - lone(w)
            for alpha, us in pre[g].items():
                if 2 * alpha > c2:
                    continue
                for u in us:
                    for v in pre[h].get(alpha, []):
                        uv = mul(inv(u), v)
                        if uv not in length:
                            continue
                        decompositions += 1
                        gap_max = lone(uv) if gap_max is None else max(gap_max, lone(uv))
                        if lone(uv) > bound and gap_witness is None:
                            gap_witness = (g, h, u, v)
    return dict(complete=witness is None, witness=witness,
                prefix_gap_ok=gap_witness is None,
                prefix_gap_witness=gap_witness,
                prefix_gap_max=None if gap_max is None else (gap_max,),
                elements_checked=len(sample), pairs_checked=pairs,
                decomposition_pairs=decompositions)



def oracle_doubled_product(length: dict, mul, inv, x, y):
    """2 c(x, y) = l(x) + l(y) - l(x^-1 y), or None when x^-1 y has no length."""
    w = mul(inv(x), y)
    if w not in length:
        return None
    return vec_sub(vec_add(length[x], length[y]), length[w])


def oracle_axioms(sample: Sequence, length: dict, mul, inv) -> dict:
    """The length function axioms on a sample, straight from the definitions.

    ``length`` maps elements to raw Z^n tuples and ``mul``, ``inv`` are
    the group law; witnesses are elements.
    - Non-negativity: l(1) = 0, then l(g) >= 0 for g in sample order.
    - Symmetry: l(g^-1) = l(g) for g in sample order; a g whose inverse
      has no length is skipped, and the scan stops at the first failure.
    - Subadditivity: l(gh) <= l(g) + l(h) over every ordered pair of the
      sample with gh in the table.
    - Delta: over the triples of sample positions i < j < k whose three
      products c(s_i, s_j), c(s_i, s_k), c(s_j, s_k) are known, the
      largest min(c(x, z), c(y, z)) - c(x, y), clipped at 0 and halved;
      the witness (x, y, z) is the first triple and order reaching it.
      With fewer than three elements the axiom holds vacuously: delta 0.
    """
    e = mul(inv(sample[0]), sample[0])
    zero = tuple(0 for _ in length[e])
    negative = [g for g in sample if not rlex_le(zero, length[g])]
    nonneg_witness = e if length[e] != zero else (negative[0] if negative else None)
    symmetric_witness = None
    inv_skipped = 0
    for g in sample:
        if inv(g) not in length:
            inv_skipped += 1
        elif length[inv(g)] != length[g]:
            symmetric_witness = g
            break
    subadditive_witness = None
    pairs_checked = pairs_skipped = 0
    for g in sample:
        for h in sample:
            gh = mul(g, h)
            if gh not in length:
                pairs_skipped += 1
                continue
            pairs_checked += 1
            if (subadditive_witness is None
                    and not rlex_le(length[gh], vec_add(length[g], length[h]))):
                subadditive_witness = (g, h)
    best = delta_witness = None
    triples_checked = triples_skipped = 0
    for x, y, z in combinations(sample, 3):
        cs = [oracle_doubled_product(length, mul, inv, a, b)
              for a, b in ((x, y), (x, z), (y, z))]
        if None in cs:
            triples_skipped += 1
            continue
        triples_checked += 1
        cxy, cxz, cyz = cs
        # each product against the smaller of the other two; the pair of
        # the product is named first
        for pair, u, w, named in ((cxy, cxz, cyz, (x, y, z)),
                                  (cxz, cxy, cyz, (x, z, y)),
                                  (cyz, cxy, cxz, (y, z, x))):
            defect = vec_sub(u if rlex_le(u, w) else w, pair)
            if best is None or rkey(best) < rkey(defect):
                best, delta_witness = defect, named
    if len(sample) < 3:
        best = zero
    delta = None if best is None else half(best if rlex_le(zero, best) else zero)
    return dict(nonneg_ok=nonneg_witness is None, nonneg_witness=nonneg_witness,
                symmetric_ok=symmetric_witness is None,
                symmetric_witness=symmetric_witness,
                subadditive_ok=subadditive_witness is None,
                subadditive_witness=subadditive_witness,
                delta=delta, delta_witness=delta_witness, inv_skipped=inv_skipped,
                pairs_checked=pairs_checked, pairs_skipped=pairs_skipped,
                triples_checked=triples_checked, triples_skipped=triples_skipped)


def oracle_axiom4(sample: Sequence, length: dict, mul, inv, delta: Raw):
    """Pairs f, g (sample order, f first) with c(f, g) < min(c(f, h), c(g, h))
    - delta for some h in the sample.

    Returns None when some ordered pair of the sample has no Gromov
    product.  The witness is the first violating pair with the first h
    maximising min(c(f, h), c(g, h)).
    """
    c2 = {(x, y): oracle_doubled_product(length, mul, inv, x, y)
          for x in sample for y in sample}
    if None in c2.values():
        return None
    slack = scaled(2, delta)
    violating = 0
    witness = None
    pairs = 0
    for f, g in combinations(sample, 2):
        pairs += 1
        mins = [c2[f, h] if rlex_le(c2[f, h], c2[g, h]) else c2[g, h] for h in sample]
        top = max(mins, key=rkey)
        if rkey(c2[f, g]) < rkey(vec_sub(top, slack)):
            violating += 1
            if witness is None:
                witness = (f, g, sample[mins.index(top)])
    return dict(violating_pairs=violating, witness=witness, pairs_checked=pairs)


def oracle_lambda0(elements: Sequence, length: dict, mul, inv, i: int,
                   delta: Raw) -> dict:
    """Elements whose length has no nonzero coordinate past the i-th.

    When delta is nonzero with a nonzero coordinate past the i-th, every
    triple of them (listing order) whose three Gromov products are known
    must have each product >= 0 and each min(c(x, z), c(y, z)) < delta;
    the witness is the first triple that does not.
    """
    def height(v):
        return max((t + 1 for t, c in enumerate(v) if c), default=0)

    members = tuple(g for g in elements if height(length[g]) <= i)
    vacuous_ok = witness = None
    checked = skipped = 0
    if height(delta) > i:
        vacuous_ok = True
        zero = tuple(0 for _ in delta)
        for x, y, z in combinations(members, 3):
            cs = [oracle_doubled_product(length, mul, inv, a, b)
                  for a, b in ((x, y), (x, z), (y, z))]
            if None in cs:
                skipped += 1
                continue
            checked += 1
            cxy, cxz, cyz = cs
            lows = [u if rlex_le(u, w) else w
                    for u, w in ((cxz, cyz), (cxy, cyz), (cxy, cxz))]
            fine = (all(rlex_le(zero, c) for c in cs)
                    and all(rkey(low) < rkey(scaled(2, delta)) for low in lows))
            if not fine and vacuous_ok:
                vacuous_ok, witness = False, (x, y, z)
    return dict(elements=members, height_bound=i, vacuous_ok=vacuous_ok,
                witness=witness, triples_checked=checked, triples_skipped=skipped)


def oracle_relcayley(weight: dict, lengths: Sequence[Raw], N: int,
                     rel_dist, k: int, delta: Raw) -> dict:
    """The coset metric and the three coset-graph reports, on raw tuples.

    ``weight[(i, j)]``, i < j, is l(rep_i^-1 rep_j) for every pair of
    cosets; ``lengths`` are the coset lengths, coset 0 the kernel.  An
    edge is a weight <= (N, 0, ..., 0).  Floyd over the edges gives the
    metric, None for no path; a disconnected graph returns only
    ``dist``.  Then, with witnesses as coset indices, first in index order:

    - short pairs: distinct u, m, v with 2 w(u,m) <= N, 2 w(m,v) <= N and
      w(u,m) + w(m,v) = d(u,v), counted until one whose direct edge is
      missing or differs from d(u,v);
    - qi: alpha* is the least nonzero coset length, N' the largest
      ``rel_dist`` from coset 0 to a coset of length <= N; every pair
      u < v with d'(u,v) >= 0 must have d(u,v) <= N d'(u,v) and
      alpha* d'(u,v) <= 2 N' d(u,v);
    - geodesics from coset 0: 0-a-b with w(0,a) + w(a,b) = d(0,b) needs
      w(0,a) + w(a,b) <= l(b) + 2k delta; extended to 0-a-b-c along a
      geodesic, with 2 w(a,b) < N, it needs the three-edge sum
      <= l(c) + 5k delta.
    """
    n = len(lengths)
    zero = scaled(0, lengths[0])
    top = (N,) + zero[1:]
    edge = {}
    for (i, j), w in weight.items():
        if rlex_le(w, top):
            edge[(i, j)] = edge[(j, i)] = w
    d = [[zero if i == j else edge.get((i, j)) for j in range(n)]
         for i in range(n)]
    for m in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][m] is None or d[m][j] is None:
                    continue
                alt = vec_add(d[i][m], d[m][j])
                if d[i][j] is None or rkey(alt) < rkey(d[i][j]):
                    d[i][j] = alt
    if any(x is None for row in d for x in row):
        return dict(dist=d)

    def short(w):
        return w is not None and rlex_le(scaled(2, w), top)

    sp_checked, sp_witness = 0, None
    for u, m, v in product(range(n), repeat=3):
        if len({u, m, v}) < 3 or not short(edge.get((u, m))) \
                or not short(edge.get((m, v))) \
                or vec_add(edge[(u, m)], edge[(m, v)]) != d[u][v]:
            continue
        sp_checked += 1
        if edge.get((u, v)) != d[u][v]:
            sp_witness = (u, m, v)
            break

    nonzero = [x for x in lengths if x != zero]
    alpha_star = min(nonzero, key=rkey) if nonzero else None
    n_prime = max(rel_dist[0][i] for i in range(n) if rlex_le(lengths[i], top))
    qi = dict(checked=0, unreachable=0, upper_ok=True, lower_ok=True,
              witness=None)
    for u in range(n):
        for v in range(u + 1, n):
            dp = rel_dist[u][v]
            if dp < 0:
                qi["unreachable"] += 1
                continue
            qi["checked"] += 1
            upper = rlex_le(d[u][v], scaled(dp, top))
            lower = alpha_star is None or rlex_le(scaled(dp, alpha_star),
                                                  scaled(2 * n_prime, d[u][v]))
            qi["upper_ok"] &= upper
            qi["lower_ok"] &= lower
            if not (upper and lower) and qi["witness"] is None:
                qi["witness"] = (u, v)

    slack2, slack5 = scaled(2 * k, delta), scaled(5 * k, delta)
    geo = dict(two_checked=0, two_bad=0, three_checked=0, three_bad=0,
               witness=None)
    for a in range(1, n):
        if (0, a) not in edge:
            continue
        for b in range(1, n):
            if b == a or (a, b) not in edge:
                continue
            two = vec_add(edge[(0, a)], edge[(a, b)])
            if two != d[0][b]:
                continue
            geo["two_checked"] += 1
            if not rlex_le(two, vec_add(lengths[b], slack2)):
                geo["two_bad"] += 1
                geo["witness"] = geo["witness"] or ("2-edge", a, b)
            for c in range(1, n):
                if c in (a, b) or (b, c) not in edge:
                    continue
                three = vec_add(two, edge[(b, c)])
                if three != d[0][c] or rlex_le(top, scaled(2, edge[(a, b)])):
                    continue
                geo["three_checked"] += 1
                if not rlex_le(three, vec_add(lengths[c], slack5)):
                    geo["three_bad"] += 1
                    geo["witness"] = geo["witness"] or ("3-edge", a, b, c)
    return dict(dist=d, edge=edge, short_checked=sp_checked,
                short_witness=sp_witness, alpha_star=alpha_star,
                alpha=None if alpha_star is None else
                vec_sub(alpha_star, (1,) + zero[1:]),
                n_prime=n_prime, qi=qi, geo=geo)


def oracle_reached(identity, steps: Sequence, universe: set, mul) -> set:
    """The identity and every product identity * s_1 * ... * s_k of steps
    whose partial products all lie in ``universe``, by whole sweeps until
    a sweep adds nothing."""
    reached = {identity}
    while True:
        new = {mul(g, s) for g in reached for s in steps} & universe
        if new <= reached:
            return reached
        reached |= new


def oracle_ball_property(length: dict, mul, identity, n: int,
                         radius: int) -> dict:
    """The ball property P_n and the ball sizes, from their definitions.

    ``length`` maps elements to raw Z^r tuples and B_r holds the elements
    of length at most (r, 0, ..., 0).  On B_radius: alpha* is the least
    nonzero length, alpha = alpha* - (1, 0, ..., 0), and alpha_ok says
    that l(g) <= alpha exactly when l(g) = 0.  ``generates`` says that
    B_n reaches all of B_radius from the identity (see ``oracle_reached``).
    The double cosets are the classes of B_n under g ~ kg and g ~ gk for
    k in the kernel {l = 0} of B_radius, found by relabelling to the least
    index until nothing moves; they are None when some kg or gk is missing
    from the table, has another length than g, or leaves B_n.  ``sizes``
    lists |B_1|, ..., |B_radius|.
    """
    zero = tuple(0 for _ in next(iter(length.values())))

    def ball(r):
        return [g for g, v in length.items() if rlex_le(v, (r,) + zero[1:])]

    big, small = ball(radius), ball(n)
    nonzero = [length[g] for g in big if length[g] != zero]
    alpha = None
    if nonzero:
        alpha = vec_sub(min(nonzero, key=rkey), (1,) + zero[1:])
    alpha_ok = alpha is None or all(
        rlex_le(length[g], alpha) == (length[g] == zero) for g in big)
    kernel = [g for g in big if length[g] == zero]
    label = {g: i for i, g in enumerate(small)}
    double = len(small)
    for g, k in product(small, kernel):
        for h in (mul(k, g), mul(g, k)):
            if length.get(h) != length[g] or h not in label:
                double = None
    while double is not None:
        moved = False
        for g, k in product(small, kernel):
            for h in (mul(k, g), mul(g, k)):
                low = min(label[g], label[h])
                if label[g] != low or label[h] != low:
                    label[g] = label[h] = low
                    moved = True
        if not moved:
            double = len(set(label.values()))
            break
    return dict(alpha=alpha, alpha_ok=alpha_ok,
                generates=oracle_reached(identity, small, set(big), mul) == set(big),
                double_cosets=double,
                sizes=[len(ball(r)) for r in range(1, radius + 1)])


def oracle_thinness(dist: List[List[int]]) -> Tuple[int, object]:
    """Largest distance between points identified on a comparison tripod.

    For each triple a < b < c, each corner with its two other points p, q
    (corners a, b, c in turn), and each t from 1 to the floor of the
    Gromov product at the corner, every u at parameter t toward p is
    paired with every v at parameter t toward q, both in index order.
    Returns (value, (corner, p, q, t, u, v)) for the first pair that
    raised the maximum, or (0, None).
    """
    n = len(dist)
    best, wit = 0, None
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                for k, p, q in ((a, b, c), (b, a, c), (c, a, b)):
                    dk = dist[k]
                    half = (dk[p] + dk[q] - dist[p][q]) // 2
                    for t in range(1, half + 1):
                        for u in range(n):
                            if dk[u] != t or dist[u][p] != dk[p] - t:
                                continue
                            for v in range(n):
                                if dk[v] != t or dist[v][q] != dk[q] - t:
                                    continue
                                if dist[u][v] > best:
                                    best, wit = dist[u][v], (k, p, q, t, u, v)
    return best, wit


def oracle_rips(dist: List[List[int]]) -> Tuple[int, object]:
    """Largest distance from a side point to the union of the other sides.

    For each triple a < b < c and each side (x, y) opposite z, taken as
    (a, b; c), (a, c; b), (b, c; a), every u between x and y in index
    order is measured against all points between x and z or y and z.
    Returns (value, (x, y, z, u)) for the first u that raised the
    maximum, or (0, None).
    """
    n = len(dist)

    def between(i, j):
        return [w for w in range(n) if dist[i][w] + dist[w][j] == dist[i][j]]

    best, wit = 0, None
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
                    other = set(between(x, z)) | set(between(y, z))
                    for u in between(x, y):
                        gap = min(dist[u][w] for w in other)
                        if gap > best:
                            best, wit = gap, (x, y, z, u)
    return best, wit


def oracle_between(dist: List[List[int]], i: int, j: int) -> List[int]:
    """Points w with d(i,w) + d(w,j) = d(i,j), in index order."""
    return [w for w in range(len(dist)) if dist[i][w] + dist[w][j] == dist[i][j]]


def oracle_level(dist: List[List[int]], i: int, j: int, t: int) -> List[int]:
    """Points w at parameter t from i toward j: d(i,w) = t and
    d(w,j) = d(i,j) - t, in index order."""
    return [w for w in range(len(dist))
            if dist[i][w] == t and dist[w][j] == dist[i][j] - t]


def oracle_geodesic_gap(dist: List[List[int]]):
    """The first (i, j, t), i < j and 0 < t < d(i,j), whose level set is
    empty, or None when every pair has points at every parameter."""
    n = len(dist)
    for i in range(n):
        for j in range(i + 1, n):
            for t in range(1, dist[i][j]):
                if not oracle_level(dist, i, j, t):
                    return i, j, t
    return None


def oracle_segments(dist: List[List[int]], i: int, j: int) -> List[List[int]]:
    """Every chain i = z_0, z_1, ..., z_d with z_t at parameter t from i
    toward j and d(z_t, z_t+1) = 1, where d = d(i,j), in lexicographic
    order of the index lists."""
    d = dist[i][j]
    levels = [oracle_level(dist, i, j, t) for t in range(d + 1)]
    out = []

    def grow(chain):
        if len(chain) == d + 1:
            out.append(list(chain))
            return
        for w in levels[len(chain)]:
            if dist[chain[-1]][w] == 1:
                grow(chain + [w])

    grow([i])
    return out


def oracle_labelling_keys(adj: Sequence[int]) -> set:
    """Row-major upper-triangle adjacency bitstrings of all n! labellings;
    adj[v] is the neighbor bitmask of v.  Two graphs are isomorphic
    exactly when their sets meet, and then the sets are equal."""
    n = len(adj)
    keys = set()
    for perm in permutations(range(n)):
        key = 0
        for p in range(n):
            for q in range(p + 1, n):
                key = key * 2 + (adj[perm[p]] >> perm[q] & 1)
        keys.add(key)
    return keys


def oracle_canonical_key(adj: Sequence[int]) -> int:
    """The largest bitstring over all n! labellings: equal exactly on
    isomorphic graphs."""
    return max(oracle_labelling_keys(adj))


def oracle_classify(dist: List[List[Raw]], perm: Sequence[int], delta: Raw,
                    K: int):
    """(order, kind, witness) for a distance-preserving permutation, by
    three tests in turn: the first x with d(x, pi^2 x) > d(x, pi x) +
    3 delta; the first x whose orbit has diameter at most K delta; and,
    with i the height of delta and no class of d in Lambda_i fixed by
    pi, the first class that pi^2 fixes.  A witness is a point, or a
    class as its sorted points; the order is found by composing pi with
    itself until it is the identity."""
    n = len(dist)
    power, order = tuple(perm), 1
    while power != tuple(range(n)):
        power = tuple(perm[x] for x in power)
        order += 1
    for x in range(n):
        bar = vec_add(dist[x][perm[x]], scaled(3, delta))
        if rkey(dist[x][perm[perm[x]]]) > rkey(bar):
            return order, "hyperbolic_or_inversion", x
    for x in range(n):
        orbit, y = [x], perm[x]
        while y != x:
            orbit.append(y)
            y = perm[y]
        if all(rlex_le(dist[a][b], scaled(K, delta)) for a in orbit for b in orbit):
            return order, "elliptic", x
    # d lies in Lambda_i when every coordinate past the i-th is zero
    i = max((k + 1 for k, c in enumerate(delta) if c), default=0)
    if i:
        classes = sorted({tuple(b for b in range(n) if not any(dist[a][b][i:]))
                          for a in range(n)})

        def image(c):
            return tuple(sorted(perm[a] for a in c))

        if all(image(c) != c for c in classes):
            for c in classes:
                if image(image(c)) == c:
                    return order, "inversion", c
    return order, "undetermined", None


def oracle_lines(text: str) -> List[List[str]]:
    """The token lists of text's lines, comments and blank lines dropped,
    from one ``str.splitlines`` of the whole text."""
    rows = (line.split("#", 1)[0].split() for line in text.splitlines())
    return [row for row in rows if row]
