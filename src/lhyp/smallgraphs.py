"""Exhaustive enumeration of small connected graphs up to isomorphism.

Representatives are produced by canonical augmentation (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 1998).  Every
connected graph on n vertices arises from a connected graph on n-1
vertices by adding one vertex joined to a nonempty subset: delete any
non-cut vertex to see this.  Subsets in one orbit of the parent's
automorphism group give isomorphic children, so each parent is extended
only by the subsets that are least in their orbit.

A child G is kept when its new vertex n-1 lies in the automorphism orbit
of its canonical deletion vertex m(G).  The candidates are the non-cut
vertices that rank highest by (degree, sum of the neighbours' degrees,
triangles at the vertex), and m(G) is the candidate that comes first in
the leaf giving the canonical key.  Ranks are invariant and any two
leaves with that key differ by an automorphism, so an isomorphism maps
the orbit of m(G) onto the orbit of m(H).  The rule is decided without a
search when a non-cut vertex outranks n-1 (reject) or n-1 is the only
candidate (keep); n-1 is never a cut vertex.  Only a tie is searched,
through ``canonical_key``.

So a class is kept exactly once: as the representative of G - m(G)
extended by the least subset of the orbit that rebuilds G.  No set of
seen keys is needed.  The representatives and their order are no longer
those of plain augmentation, which extends by every subset and keeps the
first child of each class; the classes are the same.

A graph kept after a tie search brings the automorphisms found there to
the next level, where it is a parent, so no graph is searched twice; only
the parents kept without a search are searched for their automorphisms.

The canonical key is the largest row-major adjacency bitstring over the
leaves of a search tree: partition refinement by neighbor counts, then
individualization of each vertex of the first non-singleton cell in turn.
Refinement commutes with relabelling, so relabelling the graph permutes
the leaves and leaves the key unchanged.  Two leaves with equal keys give
an automorphism; a node skips every vertex of its target cell that lies
in the orbit of an already-visited one under the automorphisms found so
far that fix the node's individualized vertices (McKay & Piperno,
"Practical graph isomorphism, II", JSC 2014).  A pruned subtree is the
image of a visited one under such an automorphism, so its leaves carry
the same keys and the maximum is unchanged.  The automorphisms found
generate the whole group, which the orbit test of the rule needs.

Counts for n = 1..8: 1, 1, 2, 6, 21, 112, 853, 11117.
"""

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Set, Tuple

Adj = Tuple[int, ...]  # neighbor bitmask per vertex
Perm = Tuple[int, ...]  # image of each vertex


def _refine(adj: Adj, cells: List[int]) -> List[int]:
    """Split cells (vertex masks) by neighbor counts to every cell until stable."""
    while True:
        out: List[int] = []
        changed = False
        for cell in cells:
            if not cell & (cell - 1):
                out.append(cell)
                continue
            groups: Dict[Tuple[int, ...], int] = {}
            rest = cell
            while rest:
                low = rest & -rest
                rest ^= low
                av = adj[low.bit_length() - 1]
                sig = tuple([(av & m).bit_count() for m in cells])
                groups[sig] = groups.get(sig, 0) | low
            if len(groups) == 1:
                out.append(cell)
            else:
                changed = True
                for sig in sorted(groups):
                    out.append(groups[sig])
        if not changed:
            return out
        cells = out


def _key_of(n: int, adj: Adj, perm: List[int]) -> int:
    key = 0
    for p in range(n):
        ap = adj[perm[p]]
        for q in range(p + 1, n):
            key = key * 2 + (ap >> perm[q] & 1)
    return key


def _in_orbit(v: int, visited: int, gens: Sequence[Perm]) -> bool:
    """Whether the group generated by gens maps v into the mask visited."""
    orbit = 1 << v
    stack = [v]
    while stack:
        w = stack.pop()
        for g in gens:
            x = g[w]
            if not orbit >> x & 1:
                if visited >> x & 1:
                    return True
                orbit |= 1 << x
                stack.append(x)
    return False


@lru_cache(maxsize=1)
def _search(n: int, adj: Adj) -> Tuple[int, Perm, Tuple[Perm, ...]]:
    """The canonical key, the first leaf giving it (vertices in canonical
    order), and the automorphisms met on the way, which generate the
    automorphism group.  The last graph's result is kept."""
    best = -1
    first: Dict[int, List[int]] = {}  # key -> first leaf with that key
    auts: Set[Perm] = set()

    def descend(cells: List[int], fixed: List[int]) -> None:
        nonlocal best
        cells = _refine(adj, cells)
        at = next((i for i, c in enumerate(cells) if c & (c - 1)), None)
        if at is None:
            leaf = [c.bit_length() - 1 for c in cells]
            key = _key_of(n, adj, leaf)
            seen = first.get(key)
            if seen is None:
                first[key] = leaf
                best = max(best, key)
            else:
                sigma = [0] * n
                for p, q in zip(seen, leaf):
                    sigma[p] = q
                auts.add(tuple(sigma))
            return
        cell = cells[at]
        visited = 0
        rest = cell
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if visited:
                gens = [g for g in auts if all(g[w] == w for w in fixed)]
                if gens and _in_orbit(v, visited, gens):
                    continue
            visited |= low
            descend(cells[:at] + [low, cell ^ low] + cells[at + 1 :], fixed + [v])

    descend([(1 << n) - 1], [])
    return best, tuple(first[best]), tuple(auts)


def canonical_key(n: int, adj: Adj) -> int:
    """Isomorphism-invariant integer key of the graph."""
    return _search(n, adj)[0]


def _least_subsets(m: int, auts: Sequence[Sequence[int]]) -> List[int]:
    """Nonempty vertex masks on m vertices least in their orbit, ascending."""
    images = []
    for g in auts:
        img = [0] * (1 << m)
        for s in range(1, 1 << m):
            low = s & -s
            img[s] = img[s ^ low] | 1 << g[low.bit_length() - 1]
        images.append(img)
    seen = bytearray(1 << m)
    least = []
    for sub in range(1, 1 << m):
        if seen[sub]:
            continue
        least.append(sub)
        seen[sub] = 1
        stack = [sub]
        while stack:
            s = stack.pop()
            for img in images:
                t = img[s]
                if not seen[t]:
                    seen[t] = 1
                    stack.append(t)
    return least


def _connected_without(n: int, adj: Adj, v: int) -> bool:
    """Whether deleting v leaves the graph connected (v is not a cut vertex)."""
    rest = (1 << n) - 1 ^ 1 << v
    seen = frontier = rest & -rest
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        reached = adj[low.bit_length() - 1] & rest & ~seen
        seen |= reached
        frontier |= reached
    return seen == rest


def _accepts(n: int, adj: Adj) -> Tuple[bool, Optional[Tuple[Perm, ...]]]:
    """Whether vertex n-1 lies in the orbit of the canonical deletion vertex,
    and the automorphism generators when the rule had to search."""
    new = n - 1
    deg = [a.bit_count() for a in adj]
    tied = 1 << new  # the non-cut vertices that rank with n-1 so far
    for v in range(new):
        if deg[v] >= deg[new] and _connected_without(n, adj, v):
            if deg[v] > deg[new]:
                return False, None
            tied |= 1 << v
    if tied == 1 << new:
        return True, None

    def rank(v: int) -> Tuple[int, int]:
        """Sum of the neighbours' degrees, then triangles at v."""
        s = t = 0
        a = adj[v]
        while a:
            low = a & -a
            a ^= low
            w = low.bit_length() - 1
            s += deg[w]
            t += (adj[w] & adj[v]).bit_count()
        return s, t

    top = rank(new)
    rest = tied ^ 1 << new
    while rest:
        low = rest & -rest
        rest ^= low
        r = rank(low.bit_length() - 1)
        if r > top:
            return False, None
        if r < top:
            tied ^= low
    if tied == 1 << new:
        return True, None
    # Searched through the module attribute, so that a wrapper installed
    # there sees every search; _search keeps the result for the next line.
    canonical_key(n, adj)
    _, leaf, auts = _search(n, adj)
    m = next(v for v in leaf if tied >> v & 1)
    return m == new or _in_orbit(m, 1 << new, auts), auts


# The automorphism generators of the graphs of the last level built that
# the rule searched, so that the next level does not search them again.
_carried: Dict[Adj, Tuple[bytes, ...]] = {}


@lru_cache(maxsize=None)
def connected_graphs(n: int) -> Tuple[Adj, ...]:
    """All connected graphs on vertices 0..n-1, one per isomorphism class.

    A parent's automorphisms come from the search that kept it, when its
    level was the last one built, and from a search of their own otherwise.
    """
    if n < 1:
        return ()
    if n == 1:
        return ((0,),)
    reps: List[Adj] = []
    found: Dict[Adj, Tuple[bytes, ...]] = {}
    for parent in connected_graphs(n - 1):
        auts = _carried.get(parent)
        if auts is None:
            auts = _search(n - 1, parent)[2]
        for sub in _least_subsets(n - 1, auts):
            adj = tuple(
                parent[v] | ((sub >> v & 1) << (n - 1)) for v in range(n - 1)
            ) + (sub,)
            keep, auts_of_child = _accepts(n, adj)
            if keep:
                reps.append(adj)
                if auts_of_child is not None:
                    # as bytes, a permutation of so few points takes less
                    # than half the memory of a tuple
                    found[adj] = tuple(map(bytes, auts_of_child))
    _carried.clear()
    _carried.update(found)
    return tuple(reps)


def edge_list(adj: Adj) -> List[Tuple[int, int]]:
    n = len(adj)
    return [(i, j) for i in range(n) for j in range(i + 1, n) if adj[i] >> j & 1]
