"""The package's one enumerator of connected vertex subsets,
connected_subsets, and the minimum-ratio-cut kernel built on it.

The engine grows subsets level by level in numpy batches, so a batch of
subsets costs a handful of array operations instead of one Python call per
subset; on graphs of a dozen vertices the fixed cost per batch dominates.
bounds counts N_{a,b,s} with the complete enumeration.  cheeger.cheeger_exact
runs min_ratio_cut, which hands the engine its best ratio so far as a prune
hook: each subset carries its forced cut, the edges from it to the vertices
its subtree may never add, and a subtree whose forced cut shows that no
subset in it can beat the best ratio is not grown.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

MAX_VERTICES = 63  # the widest graph the uint64 subset masks hold

# Rows per batch.  Children of one batch are split into batches of this
# size and stacked, so the pending work stays small (depth-first).
BATCH = 1024

_ONE = np.uint64(1)
_BITS = np.arange(64, dtype=np.uint64)
_POW2 = _ONE << _BITS
# bit reversal of each byte, and the number of set bits in each byte
_REV8 = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8)
_POP8 = np.array([bin(b).count("1") for b in range(256)], dtype=np.int64)

Batch = tuple[int, np.ndarray, np.ndarray, np.ndarray]


def popcount(x: np.ndarray) -> np.ndarray:
    """Set bits of each uint64 entry, as int64."""
    return _POP8[x.view(np.uint8)].reshape(-1, 8).sum(axis=1)


def _bit_reverse(x: np.ndarray) -> np.ndarray:
    return _REV8[x.byteswap().view(np.uint8)].view(np.uint64)


def _mask_connected(mask: int, adj: list[int]) -> bool:
    if mask == 0:
        return True
    bit = mask & -mask
    comp = bit
    frontier = bit
    while frontier:
        v = (frontier & -frontier).bit_length() - 1
        frontier &= frontier - 1
        new = adj[v] & mask & ~comp
        comp |= new
        frontier |= new
    return comp == mask


def connected_subsets(
    adj: np.ndarray,
    mult: np.ndarray,
    half: int,
    bound: Callable[[], tuple[int, int]] | None = None,
) -> Iterator[Batch]:
    """Yield batches (size, S, nbrs, s) covering every vertex mask S that
    induces a connected subgraph with |S| <= half exactly once; with a
    bound, only those the bound lets through, each once.

    adj is a uint64 array of neighbour masks and mult the int64 matrix of
    edge multiplicities, loops left out of both.  In a batch every row has
    |S| = size; S, nbrs (the union of adj over S) and s (|boundary(S)|) are
    arrays of equal length, at most BATCH.

    Each S grows from its least vertex r, with the vertices below r
    forbidden.  A row's candidates are its neighbours outside S and outside
    its forbidden set; the child that adds candidate v also forbids the
    candidates below v, so each connected S is reached by one path only.
    The cut updates as v joins: its edges into S turn inward.

    bound, if given, is called once per batch, before the batch is
    yielded, and returns the ratio (best_s, best_k) to beat, with best_k = 0
    for none yet; it may tighten as the caller reads the batches.  Each row
    then also carries its forced cut f = e(S, F), the edges from S to its
    forbidden set F, counted with multiplicity.  Every descendant T of the
    row keeps S inside and F outside, with |T| <= half, so |boundary(T)|
    >= f and |boundary(T)|/|T| >= f/half.  So a row with
    f * best_k > best_s * half is dropped with its whole subtree, the row
    itself included, before the batch is yielded and expanded.  The test is
    strict, so every connected S with |boundary(S)| * best_k <= best_s * |S|
    is still yielded, ties included: each ancestor A of S has S inside and
    F_A outside, so e(A, F_A) <= |boundary(S)|.  Without a bound every
    connected S is yielded and f is not tracked: updating it would make the
    complete enumeration of a small graph about half again as slow.
    """
    nv = len(adj)
    if not nv:
        return
    degw = mult.sum(axis=1)
    # padded neighbour slots: the neighbours nb[v, j] of v, ascending, with
    # multiplicities w[v, j]; padding slots have multiplicity 0
    width = max(1, int(np.count_nonzero(mult, axis=1).max()))
    nb = np.argsort(mult == 0, axis=1, kind="stable")[:, :width]
    w = np.take_along_axis(mult, nb, axis=1)
    nb = nb.astype(np.uint64)
    bits = _BITS[:nv]
    pow2 = _POW2[:nv]

    # a row is (S, nbrs, forbidden, s, f); without a bound f is None
    f = np.tril(mult, -1).sum(axis=1) if bound else None
    stack = [(1, pow2, adj, pow2 - _ONE, degw, f)]
    while stack:
        size, S, nbrs, forbidden, s, f = stack.pop()
        if bound:
            best_s, best_k = bound()
            keep = f * best_k <= best_s * half
            if not keep.all():
                S, nbrs, forbidden = S[keep], nbrs[keep], forbidden[keep]
                s, f = s[keep], f[keep]
                if not len(S):
                    continue
        yield size, S, nbrs, s
        if size == half:
            continue
        cand = nbrs & ~S & ~forbidden
        row, v = np.divmod(np.flatnonzero((cand[:, None] >> bits) & _ONE), nv)
        if not row.size:
            continue
        pS, bit, nbv, wv = S[row], pow2[v], nb[v], w[v]
        # e(S, v): the multiplicity of v's edges into S
        eSv = (((pS[:, None] >> nbv) & _ONE).astype(np.int64) * wv).sum(axis=1)
        cS, cN, cs = pS | bit, nbrs[row] | adj[v], s[row] + degw[v] - 2 * eSv
        cF = forbidden[row] | (cand[row] & (bit - _ONE))
        cf = None
        if bound:
            # f' = f + e(S, candidates below v) + e(v, F').  A row's children
            # are contiguous with v ascending, and first is the index of each
            # child's first sibling, so the middle term is an exclusive cumsum
            # of e(S, v) restarted there.
            before = np.cumsum(eSv) - eSv
            first = np.searchsorted(row, row)
            eVF = (((cF[:, None] >> nbv) & _ONE).astype(np.int64) * wv).sum(axis=1)
            cf = f[row] + before - before[first] + eVF
        for i in range(0, len(cS), BATCH):
            j = slice(i, i + BATCH)
            stack.append((size + 1, cS[j], cN[j], cF[j], cs[j], cf if cf is None else cf[j]))


def min_ratio_cut(adj_masks, mult_matrix, nv: int, half: int):
    """Exact min of boundary/|S| over doubly-connected S, |S| <= half.

    Returns (s, k, mask, visited): the minimum of the order (s/k, then k,
    then lexicographic, i.e. the lowest differing vertex in S wins) and the
    number of connected S the engine yielded.  The engine is bounded by
    the best ratio so far, so it prunes every subtree whose forced cut
    shows that it cannot beat that ratio; it never prunes a tie.
    (s, k, mask) does not depend on the enumeration order; visited does.
    """
    if nv < 1 or nv > MAX_VERTICES:
        raise ValueError(f"kernel supports 1..{MAX_VERTICES} vertices")
    adj = np.ascontiguousarray(adj_masks, dtype=np.uint64)
    mult = np.ascontiguousarray(mult_matrix, dtype=np.int64)
    adj_int = [int(x) for x in adj]
    full = (1 << nv) - 1

    best_s, best_k, best_mask = 0, 0, 0
    visited = 0
    batches = connected_subsets(adj, mult, half, bound=lambda: (best_s, best_k))
    for size, S, _nbrs, s in batches:
        visited += len(S)
        if best_k == 0:
            better = np.ones(len(S), dtype=bool)
        else:
            cross = s * best_k - best_s * size
            better = cross < 0
            if size < best_k:
                better |= cross == 0
            elif size == best_k:
                d = S ^ np.uint64(best_mask)
                better |= (cross == 0) & ((S & d & (~d + _ONE)) != 0)
        (idx,) = np.nonzero(better)
        if not idx.size:
            continue
        # ascending lexicographic order is descending bit-reversed mask
        idx = idx[np.lexsort((~_bit_reverse(S[idx]), s[idx]))]
        for i in idx:
            mask = int(S[i])
            if _mask_connected(full & ~mask, adj_int):
                best_s, best_k, best_mask = int(s[i]), size, mask
                break
    return best_s, best_k, best_mask, visited
