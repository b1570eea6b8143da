"""The package's one enumerator of connected vertex subsets,
connected_subsets, the minimum-ratio-cut kernel built on it, and the one
builder of their input, bitmask_stack, which is also the one place that
checks the mask width: 1 to MAX_VERTICES vertices.

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
children can pass; they are picked by repeated lowest-set-bit extraction.
cheeger runs min_ratio_cuts (min_ratio_cut for one graph), which lowers
each graph's bound to its best ratio so far; bounds counts N_{a,b,s} under
the bound best_k = 0, which prunes nothing.
At half = |V| // 2 the Cheeger searches (min_ratio_cuts, and
cheeger.cheeger_at_least) grow subsets over pendant bundles: a pendant, a
vertex whose one distinct neighbour (its anchor) has at least two, joins
a subset only together with its anchor, and on its own is a root with no
children.  The minimum is always among those subsets (min_ratio_cut
proves it), and the rows shrink: a model graph's n boundary vertices are
pendants, and so is every leaf of a planted tree.  The N_{a,b,s} counters
keep single vertices, since they must count every connected subset.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import GuardExceededError

MAX_VERTICES = 63  # the widest graph the uint64 subset masks hold
# the cut limit of a graph without a bound, far above any forced cut
NO_LIMIT = np.iinfo(np.int64).max // 2

# Rows per batch.  Roots and the children of one batch are split into
# batches of this size and stacked, so the pending work stays small
# (depth-first).  Over pendant bundles (2-core host, numpy 2.4, median of
# 9 alternating warm runs), 8192 rows take 0.60 of the time of 1024 on the
# five 40-trial F_{16,4} blocks of one exact-certify benchmark pass (14.4
# against 23.9 ms, tracemalloc peak 0.7 against 0.4 MB), 0.63 on the
# 40-vertex family member (3.1 ms, 0.9 MB) and 0.50 on the 56-vertex one
# (36 ms, 2.8 MB); 16384 gains nothing more, with a 5.1 MB peak on the
# 56-vertex search.
BATCH = 8192

_ONE = np.uint64(1)
_POW2 = _ONE << np.arange(64, dtype=np.uint64)
# bit reversal of each byte
_REV8 = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8)

# (size, graph, S, nbrs, s): per row its subset size and its graph's index
Batch = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


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
    of both, since a loop never crosses a cut.  GuardExceededError unless
    1 <= nv <= MAX_VERTICES, the widths the uint64 subset masks hold,
    before any nv x nv array is built."""
    if not 1 <= nv <= MAX_VERTICES:
        raise GuardExceededError(f"{nv} vertices: the subset masks take 1..{MAX_VERTICES}")
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


def _pendant_masks(adj: np.ndarray) -> np.ndarray:
    """Each graph's pendants as one uint64 mask: the vertices with exactly
    one distinct neighbour (adj leaves loops out) whose neighbour has at
    least two."""
    deg = np.bitwise_count(adj)
    bits = _POW2[: adj.shape[1]]
    hubs = np.bitwise_or.reduce(np.where(deg >= 2, bits, 0), axis=1)
    pendant = (deg == 1) & ((adj & hubs[:, None]) != 0)
    return np.bitwise_or.reduce(np.where(pendant, bits, 0), axis=1)


def _lowest_bits(cand: np.ndarray, rounds: int) -> np.ndarray:
    """(rounds, len(cand)) uint64: entry [j, i] is the j-th lowest set bit
    of cand[i] (0-based), or 0 where cand[i] has no more."""
    bits = np.empty((rounds, len(cand)), dtype=np.uint64)
    cand = cand.copy()
    for low in bits:
        np.bitwise_and(cand, np.negative(cand), out=low)
        cand ^= low
    return bits


def connected_subsets(
    adj: np.ndarray,
    mult: np.ndarray,
    half: int,
    best_s: np.ndarray,
    best_k: np.ndarray,
    bundles: bool = False,
) -> Iterator[Batch]:
    """Yield batches (size, graph, S, nbrs, s) covering, for each graph i,
    the vertex masks S that induce a connected subgraph of graph i with
    |S| <= half and that its bound (best_s[i], best_k[i]) lets through,
    each exactly once; best_k[i] = 0 lets every such S through.  With
    bundles, only the bundle-closed S among them and the pendant
    singletons (below).

    The graphs, all of one size N, are stacked as bitmask_stack makes them:
    adj[i] holds graph i's neighbour masks and mult[i] its edge
    multiplicities, loops left out of both.  A batch holds at most BATCH
    rows; size (|S|, one value per batch without bundles), graph (each
    row's graph index), S, nbrs (the union of adj over S) and s
    (|boundary(S)|) are arrays of one length.  The level masks
    (_edges_into), degrees and adj of vertex v of graph i are read at row
    i*N + v of the flattened arrays.

    Each S grows from its least vertex r, with the vertices below r
    forbidden.  A row's candidates are its neighbours outside S and outside
    its forbidden set; the child that adds candidate v also forbids the
    candidates below v, so each connected S is reached by one path only.
    The cut updates as v joins: its edges into S turn inward.  A row of
    size >= half gets no children.

    With bundles, a pendant (_pendant_masks: one distinct neighbour, its
    anchor, which has at least two) joins S only together with its anchor:
    a vertex v enters as its bundle, v and the pendants anchored at v, so
    the subsets grown are the connected subsets of the graph without its
    pendants, each grown from its least vertex and closed up with its
    anchors' pendants; a bundle that would pass half is not added, nor is
    a root whose bundle does.  On its own a pendant p is a root with no
    children: its forbidden set is its anchor, so its forced cut is its
    cut.  Pendants are never forbidden otherwise, and an edge from a
    bundle-closed S to a pendant ends inside S, so the forced cut and the
    cut update read the anchor's edges only.  min_ratio_cut says when this
    keeps the minimum.

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
    limit - f + 1 children (v ascending), picked by repeated lowest-set-bit
    extraction (_lowest_bits): child j (0-based) forbids the j candidates
    below its v, each a neighbour of S with e(S, u) >= 1, so its forced
    cut is at least f + j.  The children this drops are the ones the test
    above drops, so it changes no batch.
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

    # a row is (graph, S, nbrs, forbidden, s, f); its size is popcount(S)
    gv = np.arange(adj.size)
    graph, v = np.divmod(gv, width_v)
    bit = _POW2[v]
    # each vertex's bundle (unit), the cut and the union of adj over it,
    # and the forbidden set of its root: the vertices below v
    unit, unit_cut, unit_adj, forbidden = bit, degw, flat_adj, bit - _ONE
    pend = _pendant_masks(adj)[graph] if bundles else np.zeros(0, np.uint64)
    bundled = pend.any()
    if bundled:
        # v and, for a non-pendant v, its pendants, whose edges all end at
        # v; a non-pendant's root forbids no pendant, a pendant's root its
        # anchor
        lone = (pend & bit) != 0
        unit = np.where(lone, bit, bit | (flat_adj & pend))
        unit_size = popcount(unit)
        unit_cut = degw - _edges_into(unit ^ bit, levels, gv)
        unit_adj = flat_adj | np.where(unit == bit, 0, bit)
        forbidden = np.where(lone, flat_adj, forbidden & ~pend)
    # The roots: every vertex of every graph, graph by graph, ascending,
    # with no bundle wider than half.
    roots = graph, unit, unit_adj, forbidden, unit_cut, _edges_into(forbidden, levels, gv)
    if bundled:
        roots = tuple(a[unit_size <= half] for a in roots)
    stack: list = []

    def push(*row):
        for i in range(0, len(row[0]), BATCH):
            stack.append(tuple(a[i : i + BATCH] for a in row))

    push(*roots)
    limit = _cut_limits(half, best_s, best_k)
    while stack:
        graph, S, nbrs, forbidden, s, f = stack.pop()
        keep = f <= limit[graph]
        if not keep.all():
            graph, S, nbrs, forbidden = graph[keep], S[keep], nbrs[keep], forbidden[keep]
            s, f = s[keep], f[keep]
            if not len(S):
                continue
        size = popcount(S)
        yield size, graph, S, nbrs, s
        # the caller may have lowered its bounds while it read the batch
        limit = _cut_limits(half, best_s, best_k)
        grow = size < half
        if not grow.any():
            continue
        cand = nbrs & ~S & ~forbidden
        # child j of a row (0-based, v ascending) has f' >= f + j, so a row
        # keeps at most its first limit - f + 1 children
        room = np.clip(limit[graph] - f + 1, 0, popcount(cand)) * grow
        # each child's row, the index of its first sibling, and its
        # candidate: the j-th lowest of its row's, j its index among them
        row = np.repeat(np.arange(len(S)), room)
        if not row.size:
            continue
        first = np.repeat(np.cumsum(room) - room, room)
        bit = _lowest_bits(cand, int(room.max()))[np.arange(len(row)) - first, row]
        cg = graph[row]
        below = bit - _ONE
        gv = cg * width_v + popcount(below)
        eSv = _edges_into(S[row], levels, gv)
        cF = forbidden[row] | (cand[row] & below)
        # f' = f + e(S, candidates below v) + e(v, F').  A row's children
        # are contiguous with v ascending, so the middle term is an
        # exclusive cumsum of e(S, v) restarted at each first sibling.
        before = np.cumsum(eSv) - eSv
        eVF = _edges_into(cF, levels, gv)
        cf = f[row] + before - before[first] + eVF
        keep = cf <= limit[cg]
        if bundled:
            keep &= size[row] + unit_size[gv] <= half
        if not keep.all():
            row, cg, gv = row[keep], cg[keep], gv[keep]
            eSv, cF, cf = eSv[keep], cF[keep], cf[keep]
        cs = s[row] + unit_cut[gv] - 2 * eSv
        push(cg, S[row] | unit[gv], nbrs[row] | unit_adj[gv], cF, cs, cf)


def min_ratio_cuts(
    adj: np.ndarray, mult: np.ndarray, half: int
) -> list[tuple[int, int, int, int]]:
    """min_ratio_cut of each graph of a stack, all in one engine pass: the
    graphs of one size stacked as connected_subsets takes them (adj and
    mult as bitmask_stack makes them) and half, the largest subset size.

    Each graph keeps its own best (s, k, mask) and its own bound.  A
    batch's rows that beat their graph's best are sorted by (graph, s/k,
    k, lexicographic), and the first row of each graph becomes its best.
    At half = nv // 2 the pass grows pendant bundles, which keeps every
    minimum (min_ratio_cut).  The mask width is bitmask_stack's check.
    """
    graphs, nv = adj.shape
    best_s = np.zeros(graphs, dtype=np.int64)
    best_k = np.zeros(graphs, dtype=np.int64)
    best_mask = np.zeros(graphs, dtype=np.uint64)
    visited = np.zeros(graphs, dtype=np.int64)
    batches = connected_subsets(adj, mult, half, best_s, best_k, bundles=half == nv // 2)
    for size, graph, S, _nbrs, s in batches:
        visited += np.bincount(graph, minlength=graphs)
        k = best_k[graph]
        cross = s * k - best_s[graph] * size
        d = S ^ best_mask[graph]
        tie = (cross == 0) & ((size < k) | ((size == k) & ((S & d & (~d + _ONE)) != 0)))
        (idx,) = np.nonzero((k == 0) | (cross < 0) | tie)
        if not idx.size:
            continue
        # ascending lexicographic order is descending bit-reversed mask.
        # s / size orders the ratios exactly: both are integers (s < 2**31,
        # size <= 63) and the quotient is correctly rounded, so equal
        # ratios give equal floats, and unequal ones, at least 1/63**2
        # apart, stay apart by far more than the rounding.
        order = (~_bit_reverse(S[idx]), size[idx], s[idx] / size[idx], graph[idx])
        idx = idx[np.lexsort(order)]
        g, first = np.unique(graph[idx], return_index=True)
        idx = idx[first]
        best_s[g], best_k[g], best_mask[g] = s[idx], size[idx], S[idx]
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

    So at half = |V| // 2 min_ratio_cuts grows pendant bundles
    (connected_subsets): a pendant p, whose one distinct neighbour a has
    at least two, joins S only with a, or stands alone.  On a connected
    graph with |V| >= 3 the minimum S* is among those subsets:
    - p outside S* with a inside: p's edges all end at a, so p is a
      component of V - S*, which is connected, so V - S* = {p}.  But
      |V - S*| >= |V| - |V| // 2 >= 2.
    - p inside S* with a outside: p's edges all leave S*, which is
      connected, so S* = {p}, a root of its own.
    So S* is p alone or closed under its anchors' pendants, and the
    forced-cut argument of connected_subsets carries over to the bundled
    tree.  At |V| = 2 the rule bundles nothing: each vertex's one
    neighbour has only one itself.  (On a disconnected graph the minimum is
    a smallest component, a union of bundles too.)  At another half V - S*
    need not be connected: at half = |V| - 1 a star's minimum leaves out
    one leaf and keeps the centre.  So min_ratio_cuts bundles only at
    half = |V| // 2, and the N_{a,b,s} counters, which count every
    connected subset, never do.
    """
    adj, mult = adj_masks.reshape(1, nv), mult_matrix.reshape(1, nv, nv)
    return min_ratio_cuts(adj, mult, half)[0]
