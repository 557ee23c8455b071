"""Shared builders for randomized test instances."""

from fractions import Fraction
from functools import lru_cache
from random import Random
from typing import List, Tuple

from lhyp.catalog import FreeGroup, word_length_table
from lhyp.geodspace import is_geodesic
from lhyp import lspace
from lhyp.lspace import FiniteLambdaSpace, min_delta_4pt
from lhyp.ordgroup import LexElem

from oracles import floyd


def L(*coords) -> LexElem:
    return LexElem(coords)


def labels_for(n: int) -> List[str]:
    return ["v%d" % i for i in range(n)]


def space_rank1(rows, labels=None) -> FiniteLambdaSpace:
    n = len(rows)
    labels = list(labels) if labels else labels_for(n)
    # one LexElem per distinct distance, shared by every entry holding it
    lex = {v: LexElem((v,)) for v in set().union(*rows)}
    dist = [[lex[v] for v in row] for row in rows]
    return FiniteLambdaSpace(labels, dist)


def cycle_rows(n: int) -> List[List[int]]:
    return [[min(abs(i - j), n - abs(i - j)) for j in range(n)] for i in range(n)]


def cycle_space(n: int) -> FiniteLambdaSpace:
    return space_rank1(cycle_rows(n))


def random_tree_rows(rng: Random, n: int, maxw: int = 9,
                     chords: int = 0) -> List[List[int]]:
    """A random weighted tree's metric, with chords more random edges."""
    edges = [(rng.randrange(i), i, rng.randint(1, maxw)) for i in range(1, n)]
    for _ in range(chords):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, rng.randint(1, maxw)))
    return floyd(n, edges)


def random_tree_space(rng: Random, n: int, maxw: int = 9,
                      chords: int = 0) -> FiniteLambdaSpace:
    return space_rank1(random_tree_rows(rng, n, maxw, chords))


def random_metric_rows(rng: Random, n: int, maxw: int = 20,
                       minw: int = 1) -> List[List[int]]:
    # complete graph with random weights; shortest paths repair the triangle
    edges = [(i, j, rng.randint(minw, maxw))
             for i in range(n) for j in range(i + 1, n)]
    return floyd(n, edges)


def random_metric_space(rng: Random, n: int, maxw: int = 20,
                        minw: int = 1) -> FiniteLambdaSpace:
    return space_rank1(random_metric_rows(rng, n, maxw, minw))


def random_lex_space(rng: Random, n: int, rank: int, domain: str = "Z",
                     low: int = 9) -> FiniteLambdaSpace:
    """Shortest paths in Z^rank or Q^rank over random complete-graph weights.

    Each weight's last coordinate lies in 1..3, so many sums tie there and
    the lower coordinates, drawn from [-low, low], decide.  Over Q every
    coordinate is also divided by a random 1..3.
    """
    def coord(lo, hi):
        c = rng.randint(lo, hi)
        return Fraction(c, rng.randint(1, 3)) if domain == "Q" else c

    d = [[LexElem.zero(rank, domain)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = [coord(-low, low) for _ in range(rank - 1)] + [coord(1, 3)]
            d[i][j] = d[j][i] = LexElem(w, domain)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return FiniteLambdaSpace(labels_for(n), d, domain)


# seeded metrics on n points by family: trees let most pairs of a
# basepoint scan through the row maxima, random metrics few
FAMILIES = {
    "tree": random_tree_space,
    "tree+1": lambda rng, n: random_tree_space(rng, n, chords=1),
    "tree+4": lambda rng, n: random_tree_space(rng, n, chords=4),
    "cycle": lambda rng, n: cycle_space(n),
    "metric": random_metric_space,
    "z2": lambda rng, n: random_lex_space(rng, n, 2),
    "z3": lambda rng, n: random_lex_space(rng, n, 3),
}


def four_point_path(X: FiniteLambdaSpace) -> str:
    """The way ``lspace._four_point`` takes for X, read from the basepoint
    scans it makes: "masks" when they test pairs by masks, "walk" when it
    walks one per point, else "quad", the quadruple scan."""
    masks = []
    scan = lspace._basepoint_scan

    def spy(*args, **kw):
        masks.append(kw.get("masks", False))
        return scan(*args, **kw)

    lspace._basepoint_scan = spy
    try:
        lspace._four_point(X)
    finally:
        lspace._basepoint_scan = scan
    if any(masks):
        return "masks"
    return "walk" if len(masks) == len(X) else "quad"


def random_connected_unit_rows(rng: Random, n: int,
                               extra: float = 0.3) -> List[List[int]]:
    edges = [(rng.randrange(i), i, 1) for i in range(1, n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < extra:
                edges.append((i, j, 1))
    return floyd(n, edges)


def random_unit_geodesic_space(rng: Random, n: int) -> FiniteLambdaSpace:
    return space_rank1(random_connected_unit_rows(rng, n))


def random_nongeodesic_space(rng: Random, n: int) -> FiniteLambdaSpace:
    # gaps >= 2 make intermediate points scarce; resample to be sure
    while True:
        X = space_rank1(random_metric_rows(rng, n, maxw=8, minw=2))
        ok, _ = is_geodesic(X)
        if not ok:
            return X


def ceil_delta_int(X: FiniteLambdaSpace) -> int:
    q = min_delta_4pt(X)
    num = q.num.coords[0]
    return -((-num) // q.den)


@lru_cache(maxsize=None)
def f2_table(radius: int):
    G = FreeGroup(2)
    return word_length_table(G, tuple(G.gens()), radius)


@lru_cache(maxsize=None)
def z_table(radius: int):
    G = FreeGroup(1)
    return word_length_table(G, tuple(G.gens()), radius)
