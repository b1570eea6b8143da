"""Exact Cheeger constants with witnesses, plus a spectral sweep upper bound.

The exact search minimises over connected subsets only, with the batched
bitmask kernel of _mincut_py; that minimum is the definition's, and its
witness has a connected complement too (_mincut_py.min_ratio_cut proves
both).  Every search reads the input _mincut_py.bitmask_stack builds from
a block's edges, a MultiGraph being a block of one.  The kernel prunes by
the forced cut: it stops growing a subset once the edges to the vertices
it may never add show that nothing it grows into can beat the best ratio
so far.  Ties are never pruned, so the
certificate, witness included, is the unpruned search's.  A pendant (a
vertex whose one distinct neighbour has at least two, as every boundary
vertex of a model graph) joins a subset only with that neighbour, or
stands alone: the minimum is always such a subset.  cheeger_exact
searches one graph (cheeger_exact_within when the guard decides whether
the graph gets the search); cheeger_exact_block searches a block of
connected graphs of one size in one shared engine pass, so the fixed cost
per batch is paid once for all of them, with the same certificates.
cheeger_at_least decides h >= b with one pass under the fixed bound b,
beyond the guard up to the mask width.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _mincut_py as _kernel
from .errors import DEFAULT_GUARD, ExpanderForgeError, GuardExceededError
from .graph_core import GraphBlock, MultiGraph, boundary_size, is_connected
from .spectra import _as_block, normalized_laplacian

HAVE_COMPILED_KERNEL = False  # no compiled kernel; perfbench/run.py records it

NAIVE_GUARD = 12


@dataclass(frozen=True)
class CheegerCertificate:
    h: Fraction
    witness: tuple[int, ...]
    boundary_size: int
    exact: bool

    def to_json(self, g: MultiGraph) -> dict:
        return {
            "h_num": self.h.numerator,
            "h_den": self.h.denominator,
            "omega": [g.names[v] for v in self.witness],
            "boundary": self.boundary_size,
            "exact": self.exact,
        }


def _limit(guard: int) -> int:
    """The most vertices the exact search takes: min(guard, MAX_VERTICES)."""
    return min(guard, _kernel.MAX_VERTICES)


def _searchable(g: MultiGraph) -> None:
    """Raise unless g is connected with at least 2 vertices."""
    if not is_connected(g):
        raise ExpanderForgeError("the Cheeger constant needs a connected graph")
    if g.num_vertices < 2:
        raise ExpanderForgeError("the Cheeger constant needs at least 2 vertices")


def _bitmask_inputs(g: MultiGraph) -> tuple[np.ndarray, np.ndarray]:
    """The engine input (adj, mult) of g, a stack of one graph."""
    b = _as_block(g)
    return _kernel.bitmask_stack(b.edges, b.num_vertices)


def _certificate(s: int, k: int, mask: int) -> CheegerCertificate:
    witness = tuple(v for v in range(mask.bit_length()) if (mask >> v) & 1)
    return CheegerCertificate(
        h=Fraction(s, k), witness=witness, boundary_size=s, exact=True
    )


def cheeger_exact(g: MultiGraph, guard: int = DEFAULT_GUARD) -> CheegerCertificate:
    """Minimum of |boundary(S)|/|S| over subsets with |S| <= |V|/2.

    Only connected subsets are enumerated: the minimum over them is the
    minimum over all subsets (_mincut_py.min_ratio_cut).  Ties break toward
    the smallest subset, then lexicographically smallest vertex indices.
    """
    _searchable(g)
    nv = g.num_vertices
    if nv > _limit(guard):
        raise GuardExceededError(
            f"|V| = {nv} exceeds min(guard, mask width) = {_limit(guard)}"
        )
    s, k, mask, _visited = _kernel.min_ratio_cut(*_bitmask_inputs(g), nv, nv // 2)
    return _certificate(s, k, mask)


def cheeger_exact_within(g: MultiGraph, guard: int) -> CheegerCertificate | None:
    """cheeger_exact(g, guard) if the search takes g, at most
    min(guard, MAX_VERTICES) vertices; None above that, with no search run.
    Callers ask this or cheeger_exact_block, not the vertex count, whether
    a graph gets the search."""
    if g.num_vertices > _limit(guard):
        return None
    return cheeger_exact(g, guard)


def cheeger_exact_block(b: GraphBlock, guard: int) -> list[CheegerCertificate | None]:
    """cheeger_exact_within(g, guard) for each graph g of block b, in one
    engine pass of _kernel.min_ratio_cuts over the whole block; no pass when
    the block is empty or the search does not take its graphs' size.  The
    graphs must be connected, which the caller vouches for: the search
    would certify h = 0 for a disconnected one."""
    k, nv = len(b.edges), b.num_vertices
    if not k or nv > _limit(guard):
        return [None] * k
    cuts = _kernel.min_ratio_cuts(*_kernel.bitmask_stack(b.edges, nv), nv // 2)
    return [_certificate(*cut[:3]) for cut in cuts]


def cheeger_at_least(g: MultiGraph, bound: Fraction) -> bool:
    """Whether h(g) >= bound, for g of at most MAX_VERTICES vertices,
    whatever the guard.

    One engine pass over pendant bundles under the fixed bound p/q =
    bound: it yields every connected S with |S| <= |V|/2 and
    q |boundary(S)| <= p |S| that is closed under its anchors' pendants or
    a pendant alone, and the minimum, of ratio h, is one of them
    (_mincut_py.min_ratio_cut).  So h < p/q exactly when a yielded S has
    q |boundary(S)| < p |S|; the pass stops at the first batch that holds
    one.
    """
    _searchable(g)
    if g.num_vertices > _kernel.MAX_VERTICES:  # before the nv x nv view is built
        raise GuardExceededError(
            f"|V| = {g.num_vertices} exceeds the mask width {_kernel.MAX_VERTICES}"
        )
    p, q = Fraction(bound).as_integer_ratio()
    bounds = g.num_vertices // 2, np.array([p]), np.array([q])
    batches = _kernel.connected_subsets(*_bitmask_inputs(g), *bounds, bundles=True)
    return not any((q * s < p * size).any() for size, _, _, _, s in batches)


def cheeger_exact_naive(g: MultiGraph) -> CheegerCertificate:
    """Definition-level brute force over all subsets, connected or not.
    Test oracle for the connected-subset search; |V| <= NAIVE_GUARD.

    The certificate is the least subset S with 2|S| <= |V| by ratio
    |boundary(S)|/|S|, then size |S|, then lexicographic order: S precedes
    T when S holds the lowest vertex where they differ.
    """
    _searchable(g)
    nv = g.num_vertices
    if nv > NAIVE_GUARD:
        raise GuardExceededError(f"|V| = {nv} exceeds naive guard {NAIVE_GUARD}")

    def key(mask: int):
        members = {v for v in range(nv) if (mask >> v) & 1}
        ratio = Fraction(boundary_size(g, members), len(members))
        return ratio, len(members), [v not in members for v in range(nv)]

    masks = range(1, 1 << nv)
    h, k, outside = min(key(m) for m in masks if 2 * m.bit_count() <= nv)
    witness = tuple(v for v in range(nv) if not outside[v])
    return CheegerCertificate(h=h, witness=witness, boundary_size=int(h * k), exact=True)


def cheeger_upper(g: MultiGraph) -> CheegerCertificate:
    """Upper bound from the best prefix cut of the Fiedler-style ordering.

    Orders vertices by the degree-rescaled eigenvector of the second
    normalized-Laplacian eigenvalue and sweeps all prefixes, updating the
    cut as each vertex joins (O(|E|) in all).  The first strictly best
    prefix wins.  Always >= h(G).
    """
    _searchable(g)
    nv = g.num_vertices
    lap = normalized_laplacian(g)
    _, eigvecs = np.linalg.eigh(lap)
    fiedler = eigvecs[:, 1]  # eigh sorts ascending
    deg = np.array(g.degrees(), dtype=float)
    order = [int(v) for v in np.argsort(fiedler / np.sqrt(deg), kind="stable")]

    nbrs: list[list[int]] = [[] for _ in range(nv)]
    for u, v in g.edges:
        if u != v:  # a loop never crosses
            nbrs[u].append(v)
            nbrs[v].append(u)
    in_prefix = [False] * nv
    s = 0
    best_s, best_k, best_j = 0, 0, 0
    for j, v in enumerate(order[:-1], start=1):
        # v joins the prefix: its edges into the prefix turn inward
        in_prefix[v] = True
        s += sum(-1 if in_prefix[u] else 1 for u in nbrs[v])
        k = min(j, nv - j)  # the smaller side of the cut
        if best_k == 0 or s * best_k < best_s * k:
            best_s, best_k, best_j = s, k, j
    side = order[:best_j] if best_j <= nv // 2 else order[best_j:]
    return CheegerCertificate(
        h=Fraction(best_s, best_k),
        witness=tuple(sorted(side)),
        boundary_size=best_s,
        exact=False,
    )
