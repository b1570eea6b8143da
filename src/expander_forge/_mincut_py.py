"""The package's one enumerator of connected vertex subsets,
connected_subsets, the minimum-ratio-cut kernel built on it, and the one
builder of their input, bitmask_stack.

The engine grows subsets level by level in numpy batches, so a batch of
subsets costs a handful of array operations instead of one Python call per
subset; on graphs of a few dozen vertices the fixed cost per batch
dominates.  So the engine takes a stack of graphs of one size, built
from their vertex pairs: each row carries the index of its graph, and one
batch mixes the rows of many small graphs.
Edges are counted as popcounts: each vertex has one uint64 neighbour mask
per multiplicity level, the neighbours joined to it by more than k edges,
so the edges from v into a mask are a sum of np.bitwise_count over the
levels.
Every caller hands the engine one bound per graph, as two int64 arrays
that it reads live: each subset carries its forced cut, the edges from it
to the vertices its subtree may never add, and a subtree whose forced cut
shows that no subset in it can beat its graph's bound is not grown.  The
bound enters as one cut limit per graph, the largest forced cut it lets
through.  Siblings are pruned before any of their arrays is built: each
candidate v is a neighbour of S, so e(S, v) >= 1, and the j-th child of a
row has forced cut at least f + j, so only its first limit - f + 1
children can pass.
cheeger runs min_ratio_cuts (min_ratio_cut for one graph), which lowers
each graph's bound to its best ratio so far; bounds counts N_{a,b,s} under
the bound best_k = 0, which prunes nothing.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

MAX_VERTICES = 63  # the widest graph the uint64 subset masks hold
# the cut limit of a graph without a bound, far above any forced cut
NO_LIMIT = np.iinfo(np.int64).max // 2

# Rows per batch.  Roots and the children of one batch are split into
# batches of this size and stacked, so the pending work stays small
# (depth-first).  On the 33-37 connected 20-vertex graphs of a 40-trial
# F_{16,4} block, 8192 rows take about 0.67 of the time of 1024 (2-core
# host, numpy 2.4), for a tracemalloc peak of 0.9-1.8 MB against 0.4 MB.
# 16384 gains little more there, and makes a 40-vertex search slower with
# a 5.4 MB peak against 2.8 MB.  A one-graph search tightens its bound
# later and visits more rows (43682 against 40505 over the one-graph
# searches of one exact-certify benchmark pass).
# Against 1024 rows without the prefix prune, in ten alternating warm
# runs: the 40-vertex search and count_all_Nabs on 20-vertex graphs take
# 0.42-0.53 of the time and construct 1.01; for the 1-3 ms searches of
# 20-28 vertices (cheeger_exact, cheeger_at_least) the medians read
# 0.74-0.90 but neither side wins reliably, so their cost here is
# unresolved.
BATCH = 8192

_ONE = np.uint64(1)
_POW2 = _ONE << np.arange(64, dtype=np.uint64)
# bit reversal of each byte
_REV8 = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8)

# (size, graph, S, nbrs, s): one subset size, and per row its graph's index
Batch = tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def popcount(x: np.ndarray) -> np.ndarray:
    """Set bits of each uint64 entry, as int64."""
    return np.bitwise_count(x).astype(np.int64)


def _bit_reverse(x: np.ndarray) -> np.ndarray:
    return _REV8[x.byteswap().view(np.uint8)].view(np.uint64)


def bitmask_stack(edges: np.ndarray, nv: int) -> tuple[np.ndarray, np.ndarray]:
    """The engine's input for k graphs on nv vertices each, given as a
    (k, E, 2) integer array of vertex pairs: adj, the (k, nv) uint64
    neighbour masks, and mult, the (k, nv, nv) int64 edge multiplicities;
    bit v of adj[i, u] is set where mult[i, u, v] > 0.  Loops are left out
    of both, since a loop never crosses a cut."""
    u, v = edges[..., 0], edges[..., 1]
    cell = ((np.arange(len(edges))[:, None] * nv + u) * nv + v)[u != v]
    mult = np.bincount(cell, minlength=len(edges) * nv * nv).reshape(len(edges), nv, nv)
    mult = mult + mult.transpose(0, 2, 1)
    adj = np.bitwise_or.reduce(np.where(mult > 0, _POW2[:nv], 0), axis=-1)
    return adj, mult


def _cut_limits(half: int, best_s: np.ndarray, best_k: np.ndarray) -> np.ndarray:
    """The largest forced cut f each graph's bound lets through: f * best_k
    <= best_s * half is f <= best_s * half // best_k, as f is an integer;
    NO_LIMIT where best_k = 0."""
    return np.where(best_k > 0, best_s * half // np.maximum(best_k, 1), NO_LIMIT)


def _edges_into(masks: np.ndarray, levels: np.ndarray, gv: np.ndarray) -> np.ndarray:
    """e(mask, v) per row: the multiplicity of the edges from each row's
    vertex v (at row gv of the level masks) into its mask.  An edge of
    multiplicity m is counted once in each of the levels 0 .. m-1."""
    e = popcount(masks & levels[0, gv])
    for level in levels[1:]:
        e += np.bitwise_count(masks & level[gv])
    return e


def connected_subsets(
    adj: np.ndarray,
    mult: np.ndarray,
    half: int,
    best_s: np.ndarray,
    best_k: np.ndarray,
) -> Iterator[Batch]:
    """Yield batches (size, graph, S, nbrs, s) covering, for each graph i,
    the vertex masks S that induce a connected subgraph of graph i with
    |S| <= half and that its bound (best_s[i], best_k[i]) lets through,
    each exactly once; best_k[i] = 0 lets every such S through.

    The graphs, all of one size N, are stacked as bitmask_stack makes them:
    adj[i] holds graph i's neighbour masks and mult[i] its edge
    multiplicities, loops left out of both.  In a batch every row has
    |S| = size; graph (each row's graph index), S, nbrs (the union of adj
    over S) and s (|boundary(S)|) are arrays of equal length, at most
    BATCH.  The level masks (_edges_into), degrees and adj of vertex v of
    graph i are read at row i*N + v of the flattened arrays.

    Each S grows from its least vertex r, with the vertices below r
    forbidden.  A row's candidates are its neighbours outside S and outside
    its forbidden set; the child that adds candidate v also forbids the
    candidates below v, so each connected S is reached by one path only.
    The cut updates as v joins: its edges into S turn inward.  A batch of
    size >= half is yielded without computing children.

    best_s and best_k hold each graph's bound, the ratio best_s/best_k to
    beat, with best_k = 0 for none.  They belong to the caller, who may
    lower them in place as it reads the batches: the engine reads them
    live, once after each batch it yields, into one cut limit per graph
    (_cut_limits).  Each row carries its forced cut f = e(S, F), the edges
    from S to its forbidden set F, counted with multiplicity.  Every
    descendant T of the row keeps S inside and F outside, with
    |T| <= half, so |boundary(T)| >= f and |boundary(T)|/|T| >= f/half.
    So a row with f * best_k > best_s * half (for its graph), that is
    f > limit = best_s * half // best_k, is dropped with its whole
    subtree, the row itself included: tested when the row is made, before
    its S, nbrs and s are built, and again when it is popped, before it is
    yielded and expanded, since the bound may have tightened in between.
    The test is strict, so every connected S with |boundary(S)| * best_k
    <= best_s * |S| is still yielded, ties included: each ancestor A of S
    has S inside and F_A outside, so e(A, F_A) <= |boundary(S)|.  Graphs
    share batches but never bounds.

    Before a child's arrays are built, a row keeps only its first
    limit - f + 1 children (v ascending): child j (0-based) forbids the j
    candidates below its v, each a neighbour of S with e(S, u) >= 1, so
    its forced cut is at least f + j.  The children this drops are the
    ones the test above drops, so it changes no batch.
    """
    if not adj.size:
        return
    width_v = adj.shape[1]
    flat_adj = adj.reshape(-1)
    # level masks: levels[k, i*N + v] holds v's neighbours u in graph i
    # with mult(v, u) > k
    flat_mult = mult.reshape(-1, width_v)
    levels = np.array([
        np.bitwise_or.reduce(np.where(flat_mult > k, _POW2[:width_v], 0), axis=1)
        for k in range(max(int(flat_mult.max()), 1))
    ])
    degw = flat_mult.sum(axis=1)
    # bytes of a little-endian mask that hold bits 0 .. N-1
    nbytes = (width_v + 7) // 8

    # a row is (graph, S, nbrs, forbidden, s, f).
    # The roots: every vertex of every graph, graph by graph, ascending.
    gv = np.arange(adj.size)
    graph, v = np.divmod(gv, width_v)
    # a root's forced cut: its edges to the vertices below it
    f = _edges_into(_POW2[v] - _ONE, levels, gv)
    stack: list = []

    def push(size, graph, S, nbrs, forbidden, s, f):
        for i in range(0, len(S), BATCH):
            j = slice(i, i + BATCH)
            stack.append((size, graph[j], S[j], nbrs[j], forbidden[j], s[j], f[j]))

    push(1, graph, _POW2[v], flat_adj[gv], _POW2[v] - _ONE, degw[gv], f)
    limit = _cut_limits(half, best_s, best_k)
    while stack:
        size, graph, S, nbrs, forbidden, s, f = stack.pop()
        keep = f <= limit[graph]
        if not keep.all():
            graph, S, nbrs, forbidden = graph[keep], S[keep], nbrs[keep], forbidden[keep]
            s, f = s[keep], f[keep]
            if not len(S):
                continue
        yield size, graph, S, nbrs, s
        # the caller may have lowered its bounds while it read the batch
        limit = _cut_limits(half, best_s, best_k)
        if size >= half:
            continue
        cand = nbrs & ~S & ~forbidden
        # child j of a row (0-based, v ascending) has f' >= f + j, so a row
        # keeps at most its first limit - f + 1 children
        count = popcount(cand)
        room = np.clip(limit[graph] - f + 1, 0, count)
        # (row, v) for each set bit v of each row's cand, row-major
        cand_bits = np.unpackbits(
            cand.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)[:, :nbytes],
            axis=1, bitorder="little",
        )
        row, v = np.divmod(np.flatnonzero(cand_bits.view(bool)), 8 * nbytes)
        if (room < count).any():
            j = np.arange(len(row)) - np.repeat(np.cumsum(count) - count, count)
            keep = j < room[row]
            row, v = row[keep], v[keep]
        if not row.size:
            continue
        cg = graph[row]
        gv = cg * width_v + v
        bit = _POW2[v]
        eSv = _edges_into(S[row], levels, gv)
        cF = forbidden[row] | (cand[row] & (bit - _ONE))
        # f' = f + e(S, candidates below v) + e(v, F').  A row's children
        # are contiguous with v ascending, and first is the index of each
        # child's first sibling, so the middle term is an exclusive cumsum
        # of e(S, v) restarted there.
        before = np.cumsum(eSv) - eSv
        first = np.repeat(np.cumsum(room) - room, room)
        eVF = _edges_into(cF, levels, gv)
        cf = f[row] + before - before[first] + eVF
        keep = cf <= limit[cg]
        if not keep.all():
            row, cg, gv, bit = row[keep], cg[keep], gv[keep], bit[keep]
            eSv, cF, cf = eSv[keep], cF[keep], cf[keep]
        cs = s[row] + degw[gv] - 2 * eSv
        push(size + 1, cg, S[row] | bit, nbrs[row] | flat_adj[gv], cF, cs, cf)


def min_ratio_cuts(
    adj: np.ndarray, mult: np.ndarray, half: int
) -> list[tuple[int, int, int, int]]:
    """min_ratio_cut of each graph of a stack, all in one engine pass: the
    graphs of one size stacked as connected_subsets takes them (adj and
    mult as bitmask_stack makes them) and half, the largest subset size.

    Each graph keeps its own best (s, k, mask) and its own bound.  A
    batch's rows that beat their graph's best are sorted by (graph, s,
    lexicographic), and the first row of each graph becomes its best.
    """
    graphs, nv = adj.shape
    if not 1 <= nv <= MAX_VERTICES:
        raise ValueError(f"kernel supports 1..{MAX_VERTICES} vertices")
    best_s = np.zeros(graphs, dtype=np.int64)
    best_k = np.zeros(graphs, dtype=np.int64)
    best_mask = np.zeros(graphs, dtype=np.uint64)
    visited = np.zeros(graphs, dtype=np.int64)
    for size, graph, S, _nbrs, s in connected_subsets(adj, mult, half, best_s, best_k):
        visited += np.bincount(graph, minlength=graphs)
        k = best_k[graph]
        cross = s * k - best_s[graph] * size
        d = S ^ best_mask[graph]
        tie = (cross == 0) & ((size < k) | ((size == k) & ((S & d & (~d + _ONE)) != 0)))
        (idx,) = np.nonzero((k == 0) | (cross < 0) | tie)
        if not idx.size:
            continue
        # ascending lexicographic order is descending bit-reversed mask
        idx = idx[np.lexsort((~_bit_reverse(S[idx]), s[idx], graph[idx]))]
        g, first = np.unique(graph[idx], return_index=True)
        idx = idx[first]
        best_s[g], best_k[g], best_mask[g] = s[idx], size, S[idx]
    return list(zip(best_s.tolist(), best_k.tolist(), best_mask.tolist(), visited.tolist()))


def min_ratio_cut(adj_masks: np.ndarray, mult_matrix: np.ndarray, nv: int, half: int):
    """Exact min of boundary/|S| over connected S, |S| <= half, on one graph
    of nv vertices as bitmask_stack makes it.

    Returns (s, k, mask, visited): the minimum of the order (s/k, then k,
    then lexicographic, i.e. the lowest differing vertex in S wins) and the
    number of connected S the engine yielded.  The engine is bounded by
    the best ratio so far, so it prunes every subtree whose forced cut
    shows that it cannot beat that ratio; it never prunes a tie.
    (s, k, mask) does not depend on the enumeration order, nor on the
    other graphs of a min_ratio_cuts pass; visited does.  This is the
    one-graph call of min_ratio_cuts.

    On a connected graph with half = |V| // 2 this is the Cheeger
    certificate: the minimum S* of the same order over all S with
    1 <= |S| <= |V|/2 is connected, and so is V - S*.
    - S* is connected.  If S splits into parts A and B with no edge
      between them, |boundary(S)| = |boundary(A)| + |boundary(B)|, so the
      mediant gives min(ratio A, ratio B) <= ratio S; the better part is
      also strictly smaller, so it precedes S.  (This holds at every half,
      so the minimum over connected S is the minimum over all S.)
    - V - S* is connected.  Suppose its components are C_1 .. C_r, r >= 2.
      No edge joins two of them, so every edge of boundary(C_i) ends in
      S*, and the |boundary(C_i)| sum to |boundary(S*)|.  If some
      |C_j| > |V|/2, take i != j: S* + C_i has at most |V| - |C_j| < |V|/2
      vertices and a cut smaller by |boundary(C_i)| >= 1 (the graph is
      connected), so a strictly smaller ratio.  Otherwise every C_i is
      admissible, and the mediant gives one with ratio
      <= |boundary(S*)| / (|V| - |S*|) <= ratio S*.  Equality forces
      |S*| = |V|/2 > |C_i|, so C_i precedes S* on size.  Either way S* is
      not the minimum.
    The bound-pruning stays sound: every interim best is a real cut, so
    the best ratio never drops below the minimum, and ties are never
    pruned.
    """
    adj, mult = adj_masks.reshape(1, nv), mult_matrix.reshape(1, nv, nv)
    return min_ratio_cuts(adj, mult, half)[0]
