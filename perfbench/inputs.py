"""Seeded input files and job lists for the benchmark workloads.

Nothing here imports ``lhyp``: the inputs are written in the text formats
the CLI reads, so the program under test sees only the generated files.
One seed always writes byte-identical files; another seed changes their
contents but not the job list, the file names or the command mix.
"""

import os
from fractions import Fraction
from itertools import combinations
from random import Random
from typing import Callable, List, NamedTuple, Sequence, Tuple

WORKLOADS = ("spaces-z1", "spaces-lex", "graphs", "groups")

# Every input lands here, relative to the checkout root; the CLI echoes
# input paths on stdout, so they must not depend on where the checkout is.
WORK_DIR = ".perfbench_work"


class Job(NamedTuple):
    name: str               # unique within its workload
    kind: str               # lhyp subcommand, or "sweep" / "agree"
    argv: Tuple[str, ...]   # lhyp arguments; for sweep/agree, the child's


class Workload(NamedTuple):
    name: str
    threads: int            # LHYP_THREADS for every job
    jobs: Tuple[Job, ...]


def nproc() -> int:
    """Cores this process may run on; the most workers the benchmark asks for."""
    return len(os.sched_getaffinity(0))


# -- metrics over ordered groups -------------------------------------------
#
# A distance in Z^r or Q^r is a coordinate tuple in file order (first
# coordinate least significant).  Shortest paths run on reversed tuples,
# whose native ordering is the right-lexicographic one.

def _floyd(n: int, edges, zero, add: Callable) -> List[list]:
    d: List[list] = [[None] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = zero
    for u, v, w in edges:
        if d[u][v] is None or w < d[u][v]:
            d[u][v] = d[v][u] = w
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik is None:
                continue
            row = d[i]
            for j in range(n):
                if dk[j] is None:
                    continue
                alt = add(dik, dk[j])
                if row[j] is None or alt < row[j]:
                    row[j] = alt
    return d


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _rank1(rows) -> List[List[Tuple[int]]]:
    return [[(v,) for v in row] for row in rows]


def random_metric(rng: Random, n: int, lo: int = 1, hi: int = 20):
    """Complete graph with random weights, repaired by shortest paths."""
    edges = [(i, j, rng.randint(lo, hi)) for i, j in combinations(range(n), 2)]
    return _rank1(_floyd(n, edges, 0, int.__add__))


def random_tree(rng: Random, n: int, hi: int = 9):
    edges = [(rng.randrange(i), i, rng.randint(1, hi)) for i in range(1, n)]
    return _rank1(_floyd(n, edges, 0, int.__add__))


def weighted_cycle(weights: Sequence[int]):
    n = len(weights)
    edges = [(i, (i + 1) % n, w) for i, w in enumerate(weights)]
    return _rank1(_floyd(n, edges, 0, int.__add__))


def palindromic_path(rng: Random, n: int, hi: int = 9):
    """A weighted path whose reversal is an isometry."""
    m = n - 1
    first = [rng.randint(1, hi) for _ in range((m + 1) // 2)]
    weights = first + first[: m // 2][::-1]
    edges = [(i, i + 1, w) for i, w in enumerate(weights)]
    return _rank1(_floyd(n, edges, 0, int.__add__))


def unit_geodesic(rng: Random, n: int, extra: float = 0.3):
    """Shortest-path metric of a random connected graph with unit edges."""
    edges = [(rng.randrange(i), i, 1) for i in range(1, n)]
    edges += [(i, j, 1) for i, j in combinations(range(n), 2)
              if rng.random() < extra]
    return _rank1(_floyd(n, edges, 0, int.__add__))


def random_lex_metric(rng: Random, n: int, rank: int, spread: int,
                      domain: str = "Z"):
    """Random Z^rank or Q^rank metric; lower coordinates lie in [-spread, spread].

    The most significant coordinate of an edge is a small positive
    integer, so many path sums tie there and the lower coordinates
    decide the order.
    """
    def coord(lo, hi):
        if domain == "Z":
            return rng.randint(lo, hi)
        return Fraction(rng.randint(lo * 6, hi * 6), rng.choice((1, 2, 3, 4, 6)))

    def weight():
        low = tuple(coord(-spread, spread) for _ in range(rank - 1))
        return (coord(1, 6),) + low[::-1]     # most significant first

    zero = (0,) * rank if domain == "Z" else (Fraction(0),) * rank
    edges = [(i, j, weight()) for i, j in combinations(range(n), 2)]
    d = _floyd(n, edges, zero, _vadd)
    return [[e[::-1] for e in row] for row in d]


def delta4_doubled(rows) -> int:
    """Twice the four-point constant of a rank-1 table (brute force)."""
    n = len(rows)
    D = [[e[0] for e in row] for row in rows]
    best = 0
    for i, j, k, l in combinations(range(n), 4):
        s = sorted((D[i][j] + D[k][l], D[i][k] + D[j][l], D[i][l] + D[j][k]))
        best = max(best, s[2] - s[1])
    return best


def has_midpoints(rows, delta: int) -> bool:
    """Does every triple have a 2*delta-central point?"""
    n = len(rows)
    D = [[e[0] for e in row] for row in rows]
    slack = 2 * delta
    for x, y, z in combinations(range(n), 3):
        if not any(D[x][v] + D[v][y] <= D[x][y] + slack
                   and D[x][v] + D[v][z] <= D[x][z] + slack
                   and D[y][v] + D[v][z] <= D[y][z] + slack
                   for v in range(n)):
            return False
    return True


def _render_coord(c) -> str:
    if isinstance(c, Fraction) and c.denominator != 1:
        return "%d/%d" % (c.numerator, c.denominator)
    return "%d" % c


def lms_text(rows, domain: str = "Z") -> str:
    n = len(rows)
    rank = len(rows[0][0])
    lines = ["lambda %s^%d" % (domain, rank),
             "points %d %s" % (n, " ".join("p%d" % i for i in range(n)))]
    for row in rows:
        lines.append(" ".join("(%s)" % ",".join(_render_coord(c) for c in e)
                              for e in row))
    return "\n".join(lines) + "\n"


# -- free-group length tables ----------------------------------------------

def free_ball(rank: int, radius: int) -> List[Tuple[str, int]]:
    """Reduced words of length <= radius in the free group, with lengths.

    Generators render as a, b, ...; their inverses as A, B, ...; the
    identity as 1.
    """
    letters = [chr(ord("a") + i) for i in range(rank)]
    letters += [c.upper() for c in letters]
    out = [("", 0)]
    frontier = [""]
    for step in range(1, radius + 1):
        nxt = []
        for w in frontier:
            for a in letters:
                if w and w[-1] == a.swapcase():
                    continue
                nxt.append(w + a)
        out.extend((w, step) for w in nxt)
        frontier = nxt
    return [(w or "1", k) for w, k in out]


def len_text(group_ref: str, rank: int, radius, lines: Sequence[str]) -> str:
    head = ["group %s" % group_ref, "lambda Z^%d" % rank]
    if radius is not None:
        head.append("radius %d" % radius)
    return "\n".join(head + list(lines)) + "\n"


# -- workloads ---------------------------------------------------------------

class _Writer:
    """Writes one workload's files and hands back their relative paths."""

    def __init__(self, root: str, workload: str):
        self.rel = os.path.join(WORK_DIR, workload)
        self.abs = os.path.join(root, self.rel)
        os.makedirs(self.abs, exist_ok=True)
        for old in os.listdir(self.abs):
            os.remove(os.path.join(self.abs, old))

    def put(self, name: str, text: str) -> str:
        with open(os.path.join(self.abs, name), "w") as fh:
            fh.write(text)
        return os.path.join(self.rel, name)


def _space_jobs(put, name, rows, domain="Z") -> List[Job]:
    path = put(name + ".lms", lms_text(rows, domain))
    return [Job("check-" + name, "check", ("check", "--space", path)),
            Job("delta-" + name, "delta", ("delta", "--space", path))]


def _spaces_z1(put, rng: Random) -> List[Job]:
    jobs: List[Job] = []
    for n in (24, 36, 48):
        jobs += _space_jobs(put, "metric%d" % n, random_metric(rng, n))
    largest = jobs[-1].argv[-1]
    jobs += _space_jobs(put, "tree12", random_tree(rng, 12))
    jobs += _space_jobs(put, "cycle12",
                        weighted_cycle([rng.randint(1, 9) for _ in range(12)]))
    # the four-point scan at one worker and at every core must agree
    jobs.append(Job("agree-metric48", "agree", (largest, str(nproc()))))
    return jobs


def _spaces_lex(put, rng: Random) -> List[Job]:
    jobs: List[Job] = []
    for name, n, rank, spread, domain in (
            ("z2small10", 10, 2, 9, "Z"),
            ("z2small20", 20, 2, 9, "Z"),
            ("z2large32", 32, 2, 10 ** 7, "Z"),
            ("z3large24", 24, 3, 10 ** 7, "Z"),
            ("z3small28", 28, 3, 5, "Z"),
            ("q2small16", 16, 2, 9, "Q")):
        rows = random_lex_metric(rng, n, rank, spread, domain)
        jobs += _space_jobs(put, name, rows, domain)
    return jobs


def _completable(draw: Callable[[], list]):
    """Draw spaces until one has midpoints at the rounded-up four-point delta."""
    while True:
        rows = draw()
        delta = max(1, (delta4_doubled(rows) + 1) // 2)
        if has_midpoints(rows, delta):
            return rows, delta


def relabel(rng: Random, rows):
    """The same space with its points listed in a random order."""
    order = list(range(len(rows)))
    rng.shuffle(order)
    return [[rows[a][b] for b in order] for a in order]


def _graphs(put, rng: Random) -> List[Job]:
    jobs = [Job("sweep-7", "sweep", ("7",))]
    # The size of a completion, and so its cost, varies several-fold
    # between random graphs on the same points.  The graphs are therefore
    # drawn once, from a fixed seed, and the run's seed reorders their
    # points; otherwise the draw would swamp every change the run measures.
    shapes = Random("graphs/shapes")
    specs = [("unit%d" % n, lambda n=n: unit_geodesic(shapes, n)) for n in (12, 16, 20)]
    # doubling every distance leaves no midpoint for pairs at distance 2
    specs.append(("nongeod10", lambda: [[(2 * e[0],) for e in row]
                                        for row in unit_geodesic(shapes, 10)]))
    for name, draw in specs:
        rows, delta = _completable(draw)
        path = put(name + ".lms", lms_text(relabel(rng, rows)))
        for method in ("gamma1", "gamma2"):
            jobs.append(Job("%s-%s" % (method, name), "complete",
                            ("complete", "--space", path, "--method", method,
                             "--delta", str(delta))))
    # a rotation of a cycle with periodic weights, and a path reversal
    n, period = 12, 3
    weights = [rng.randint(1, 9) for _ in range(period)] * (n // period)
    rows = weighted_cycle(weights)
    shift = period * rng.randint(1, n // period - 1)
    delta = (delta4_doubled(rows) + 1) // 2
    space = put("cycle12.lms", lms_text(rows))
    perm = put("cycle12.perm", " ".join(str((i + shift) % n) for i in range(n)) + "\n")
    jobs.append(Job("classify-cycle12", "classify",
                    ("classify", "--space", space, "--perm", perm,
                     "--delta", str(delta), "--K", "2")))
    n = 11
    space = put("path11.lms", lms_text(palindromic_path(rng, n)))
    perm = put("path11.perm", " ".join(str(n - 1 - i) for i in range(n)) + "\n")
    jobs.append(Job("classify-path11", "classify",
                    ("classify", "--space", space, "--perm", perm,
                     "--delta", "0", "--K", "1")))
    return jobs


def _groups(put, rng: Random) -> List[Job]:
    def shuffled(lines):
        lines = list(lines)
        rng.shuffle(lines)
        return lines

    grp = put("f2.grp", "free 2\n")
    zgrp = put("z.grp", "free 1\n")
    put("f2xf2.grp", "product f2.grp f2.grp\n")
    f2r4 = put("f2r4.len", len_text("f2.grp", 1, 4, shuffled(
        "%s %d" % wk for wk in free_ball(2, 4))))
    b2 = free_ball(2, 2)
    prod = put("f2xf2r2.len", len_text("f2xf2.grp", 2, None, shuffled(
        "%s|%s %d %d" % (g, h, lg, lh) for g, lg in b2 for h, lh in b2)))
    f2r8 = put("f2r8.len", len_text("f2.grp", 1, 8, shuffled(
        "%s %d" % wk for wk in free_ball(2, 8))))
    zr10 = put("zr10.len", len_text("z.grp", 1, 10, shuffled(
        "%s %d" % wk for wk in free_ball(1, 10))))
    return [
        Job("lenfun-f2r4", "lenfun",
            ("lenfun", "--len", f2r4, "--axioms", "--regular", "1",
             "--complete", "--free")),
        Job("lenfun-f2xf2r2", "lenfun", ("lenfun", "--len", prod, "--axioms")),
        Job("relcayley-f2r8", "relcayley",
            ("relcayley", "--group", grp, "--len", f2r8, "--N", "1",
             "--radius", "4", "--pn", "1")),
        Job("relcayley-zr10", "relcayley",
            ("relcayley", "--group", zgrp, "--len", zr10, "--N", "2",
             "--radius", "5")),
    ]


_BUILDERS = {"spaces-z1": (_spaces_z1, None), "spaces-lex": (_spaces_lex, 1),
             "graphs": (_graphs, 1), "groups": (_groups, 1)}


def build(root: str, workload: str, seed: int) -> Workload:
    """Write the workload's input files under root and return its jobs."""
    builder, threads = _BUILDERS[workload]
    rng = Random("%s/%d" % (workload, seed))
    jobs = tuple(builder(_Writer(root, workload).put, rng))
    return Workload(workload, threads or nproc(), jobs)
