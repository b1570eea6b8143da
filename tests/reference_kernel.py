"""Reference kernel for tests: a recursive connected-subset enumerator
that handles one subset per call, and the minimum-ratio-cut search built on
it, as an oracle independent of the batched engine in
expander_forge._mincut_py.  Its input is its own: bitmask_inputs views a
MultiGraph as Python ints, edge by edge, with no numpy.

connected_subsets calls visit(S, size, s, nbrs) once per connected S,
depth first, with no pruning; min_ratio_cut returns the same (s, k, mask)
as the bound-pruned batched kernel, and as visited the number of all
connected S with |S| <= half, an upper bound on the batched kernel's.
"""

from __future__ import annotations


def bitmask_inputs(g) -> tuple[list[int], list[list[int]]]:
    """The bitmask view of MultiGraph g: Python-int neighbour masks (bit v
    of adj[u] set when an edge joins u and v) and the edge multiplicity
    matrix, loops left out of both since a loop never crosses a cut."""
    nv = g.num_vertices
    adj = [0] * nv
    mult = [[0] * nv for _ in range(nv)]
    for u, v in g.edges:
        if u == v:
            continue
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        mult[u][v] += 1
        mult[v][u] += 1
    return adj, mult


def _lex_less(a: int, b: int) -> bool:
    d = a ^ b
    if d == 0:
        return False
    return (a & (d & -d)) != 0


def connected_subsets(adj: list[int], mult: list[list[int]], half: int, visit):
    """Call visit(S, size, s, nbrs) once per vertex mask S inducing a
    connected subgraph with size = |S| <= half, depth first in increasing
    vertex order; s = |boundary(S)| and nbrs is the union of adj over S.

    adj and mult are bitmask_inputs' view.  s is updated as each
    vertex v joins: v's edges into S turn inward.
    """
    degw = [sum(row) for row in mult]

    def rec(S: int, nbrs: int, forbidden: int, size: int, s: int) -> None:
        visit(S, size, s, nbrs)
        if size == half:
            return
        cand = nbrs & ~S & ~forbidden
        block = 0
        while cand:
            bit = cand & -cand
            v = bit.bit_length() - 1
            cand &= cand - 1
            s2 = s + degw[v]
            inside = adj[v] & S
            while inside:
                u = (inside & -inside).bit_length() - 1
                inside &= inside - 1
                s2 -= 2 * mult[v][u]
            rec(S | bit, nbrs | adj[v], forbidden | block, size + 1, s2)
            block |= bit

    for r in range(len(adj)):
        rec(1 << r, adj[r], (1 << r) - 1, 1, degw[r])


def min_ratio_cut(adj_masks, mult_matrix, nv: int, half: int):
    """Exact min of boundary/|S| over connected S, |S| <= half: the least
    (s, k, mask) by ratio, then size, then lexicographic order."""
    if nv < 1 or nv > 63:
        raise ValueError("kernel supports 1..63 vertices")
    adj = [int(x) for x in adj_masks]
    mult = [[int(mult_matrix[i][j]) for j in range(nv)] for i in range(nv)]

    best_s, best_k, best_mask = 0, 0, 0
    visited = 0

    def consider(S: int, size: int, s: int, _nbrs: int) -> None:
        nonlocal best_s, best_k, best_mask, visited
        visited += 1
        if best_k == 0:
            better = True
        elif s * best_k != best_s * size:
            better = s * best_k < best_s * size
        elif size != best_k:
            better = size < best_k
        else:
            better = _lex_less(S, best_mask)
        if better:
            best_s, best_k, best_mask = s, size, S

    connected_subsets(adj, mult, half, consider)
    return best_s, best_k, best_mask, visited
