import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import reference_kernel
from expander_forge import _mincut_py, cheeger, graph_core
from expander_forge._mincut_py import min_ratio_cut as py_min_ratio_cut
from expander_forge.cheeger import (
    DEFAULT_GUARD,
    NAIVE_GUARD,
    _bitmask_inputs,
    boundary_size,
    cheeger_at_least,
    cheeger_exact,
    cheeger_exact_naive,
    cheeger_exact_within,
    cheeger_upper,
)
from expander_forge.errors import ExpanderForgeError, GuardExceededError
from expander_forge.graph_core import (
    HalfEdgePairing,
    MultiGraph,
    build_graph,
    components,
    is_connected,
)
from expander_forge.construct import (
    FamilySpec,
    expander_family,
    heawood_graph,
    k4_graph,
    plant_trees,
    theta_base,
)
from expander_forge.sampler import SampleConfig, sample_graph
from expander_forge.spectra import lambda1, normalized_laplacian

STAR = build_graph(HalfEdgePairing(chi=1, n=3, pairs=((1, 4), (2, 5), (3, 6))))


def test_star_certificate():
    cert = cheeger_exact(STAR)
    assert cert.h == 1
    assert len(cert.witness) == 1 and cert.witness[0] != 0
    assert cert.boundary_size == 1
    assert cert.exact


def test_k4_certificate():
    cert = cheeger_exact(k4_graph())
    assert cert.h == 2
    assert len(cert.witness) == 2


def test_theta_certificate():
    cert = cheeger_exact(theta_base())
    assert cert.h == 3
    assert cert.witness == (0,)


def test_certificate_json():
    rep = cheeger_exact(STAR).to_json(STAR)
    assert rep["h_num"] == 1 and rep["h_den"] == 1
    assert rep["omega"] == ["w1"]
    assert rep["exact"] is True


def test_loops_never_cross():
    g = build_graph(HalfEdgePairing(chi=1, n=1, pairs=((1, 4), (2, 3))))
    cert = cheeger_exact(g)
    assert cert.h == 1  # pendant edge only; the loop stays inside
    assert boundary_size(g, {0}) == 1


def _connected_samples(combos, trials, seed):
    out = []
    for chi, n in combos:
        cfg = SampleConfig(chi=chi, n=n, trials=trials, seed=seed)
        for t in range(trials):
            g = sample_graph(cfg, t)
            if is_connected(g):
                out.append(g)
    return out


SAMPLES_12 = _connected_samples(
    [(2, 2), (3, 1), (3, 3), (4, 0), (4, 2), (2, 6), (5, 1), (4, 4), (3, 5)],
    trials=20,
    seed=17,
)


def test_pruned_search_matches_naive_oracle():
    """Validates the connected-subset search on every sample <= 12:
    the whole certificate, so the tie-break order too, not only h."""
    checked = 0
    for g in SAMPLES_12:
        if g.num_vertices > NAIVE_GUARD:
            continue
        pruned = cheeger_exact(g)
        naive = cheeger_exact_naive(g)
        assert pruned == naive, (g.edges, pruned, naive)
        assert boundary_size(g, set(pruned.witness)) == pruned.boundary_size
        assert Fraction(pruned.boundary_size, len(pruned.witness)) == pruned.h
        assert 2 * len(pruned.witness) <= g.num_vertices
        checked += 1
    assert checked >= 100


def _loopy_multigraphs(count, seed):
    """Connected multigraphs with loops and parallel edges: a random
    spanning tree plus random extra edges, a loop and a doubled edge."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        nv = rng.randint(4, 14)
        edges = [(v, rng.randrange(v)) for v in range(1, nv)]
        edges += [(rng.randrange(nv), rng.randrange(nv)) for _ in range(nv // 2)]
        edges += [(0, 0), edges[0]]
        out.append(MultiGraph(chi=nv, n=0, edges=tuple(edges)))
    return out


CUBIC_22 = _connected_samples([(22, 0)], trials=6, seed=11)[:3]
LOOPY = _loopy_multigraphs(25, seed=5)
# two K4s joined through vertex 4, of degree 2, whose removal disconnects
# the graph: at |S| <= 1 it is the best singleton (ratio 2, not 3)
TWO_K4_CUT_VERTEX = MultiGraph(
    chi=9,
    n=0,
    edges=tuple((u, v) for block in (range(4), range(5, 9))
                for u in block for v in block if u < v) + ((3, 4), (4, 5)),
)
REFERENCE_GRAPHS = (
    SAMPLES_12
    + [plant_trees(k4_graph(), 2), plant_trees(theta_base(), 3)]
    + CUBIC_22
    + LOOPY
    + [TWO_K4_CUT_VERTEX]
)


def _halves(nv):
    return sorted({1, nv // 2, nv})


def test_batched_kernel_matches_recursive_reference():
    """(s, k, mask) of the bound-pruned batched kernel equal the unpruned
    recursive reference's at |S| <= 1, |V|/2 and |V|, and at |V|/2 on 40
    connected samples of F_{16,4} (20 vertices), the sampled graphs
    `sample` certifies; the kernel visits no more subsets than the
    reference, which visits every connected one."""
    assert len(CUBIC_22) == 3
    assert all(len(set(g.edges)) < len(g.edges) for g in LOOPY)
    assert all(any(u == v for u, v in g.edges) for g in LOOPY)
    samples_20 = _connected_samples([(16, 4)], trials=80, seed=21)[:40]
    assert len(samples_20) == 40
    cases = [(g, _halves(g.num_vertices)) for g in REFERENCE_GRAPHS]
    cases += [(g, [g.num_vertices // 2]) for g in samples_20]
    for g, halves in cases:
        engine_input, reference_input = _bitmask_inputs(g), reference_kernel.bitmask_inputs(g)
        nv = g.num_vertices
        for half in halves:
            *got, visited = py_min_ratio_cut(*engine_input, nv, half)
            *want, all_connected = reference_kernel.min_ratio_cut(*reference_input, nv, half)
            assert got == want, (g.edges, half, got, want)
            assert visited <= all_connected


def test_kernels_minimise_over_connected_subsets():
    """At |S| <= 1 the search takes the cut vertex, whose complement is
    disconnected; at |V|/2 and |V| the minima are the definition's."""
    for kernel, view in _kernels():
        adj, mult = view(TWO_K4_CUT_VERTEX)
        assert kernel(adj, mult, 9, 1)[:3] == (2, 1, 1 << 4)
        assert kernel(adj, mult, 9, 4)[:3] == (1, 4, 0b1111)
        assert kernel(adj, mult, 9, 9)[:3] == (0, 9, (1 << 9) - 1)
    assert cheeger_exact(TWO_K4_CUT_VERTEX) == cheeger_exact_naive(TWO_K4_CUT_VERTEX)


def test_every_witness_has_a_connected_complement():
    """The theorem behind the search (_mincut_py.min_ratio_cut): at
    |S| <= |V|/2 the certificate's witness, the least subset by ratio, size
    and lexicographic order, is connected and so is its complement.
    Checked with graph_core.components, not the engine's code, on every
    REFERENCE_GRAPHS case, 400 random multigraphs and 40 connected samples
    of F_{16,4}."""
    samples_20 = _connected_samples([(16, 4)], trials=80, seed=21)[:40]
    graphs = REFERENCE_GRAPHS + _random_multigraphs(400, seed=21) + samples_20
    assert len(samples_20) == 40
    for g in graphs:
        cert = cheeger_exact(g, guard=63)
        nv = g.num_vertices
        for side in (set(cert.witness), set(range(nv)) - set(cert.witness)):
            inner = [(u, v) for u, v in g.edges if u in side and v in side]
            assert len(components(nv, inner, side)) == 1, (g.edges, cert.witness)


def test_cross_graph_kernel_matches_one_graph_calls():
    """min_ratio_cuts over stacks of graphs gives each graph the (s, k,
    mask) of its one-graph min_ratio_cut and of the recursive reference,
    and visits no more subsets than the reference: every REFERENCE_GRAPHS
    case (sizes 4 to 28, halves 1, |V|/2 and |V|, loops and parallel
    edges), shuffled into lists of 1 to 150 graphs, and 63-vertex graphs
    next to small ones.  A pass takes one size and one half, so each list
    is grouped by both, one pass per group."""
    cases = [(g, half) for g in REFERENCE_GRAPHS for half in _halves(g.num_vertices)]
    random.Random(22).shuffle(cases)
    lists, i = [], 0
    for n in (1, 2, 3, 7, 20, 150):
        lists.append(cases[i : i + n])
        i += n
    lists += [cases[i + j : i + j + 60] for j in range(0, len(cases) - i, 60)]
    lists.append([(STAR, 1), (_cycle(63), 31), (LOOPY[0], 3), (_path(63), 31), (STAR, 2)])
    assert sum(map(len, lists)) == len(cases) + 5
    passes = 0
    for part in lists:
        groups = {}
        for g, half in part:
            groups.setdefault((g.num_vertices, half), []).append(g)
        for (nv, half), graphs in groups.items():
            inputs = [_bitmask_inputs(g) for g in graphs]
            adj = np.concatenate([a for a, _ in inputs])
            mult = np.concatenate([m for _, m in inputs])
            cuts = _mincut_py.min_ratio_cuts(adj, mult, half)
            passes += len(graphs) > 1
            for g, inp, got in zip(graphs, inputs, cuts):
                ref = reference_kernel.bitmask_inputs(g)
                *want, all_connected = reference_kernel.min_ratio_cut(*ref, nv, half)
                one = py_min_ratio_cut(*inp, nv, half)
                assert got[:3] == one[:3] == tuple(want), (g.edges, half)
                assert got[3] <= all_connected
    assert passes > 10
    empty = _mincut_py.bitmask_stack(np.zeros((0, 0, 2), dtype=np.intp), 4)
    assert _mincut_py.min_ratio_cuts(*empty, 2) == []


def _batches(g, half, bound=(0, 0)):
    """The engine's batches over g alone, as a one-graph stack, under the
    fixed bound (s, k); k = 0 prunes nothing."""
    best_s, best_k = (np.array([b]) for b in bound)
    return _mincut_py.connected_subsets(*_bitmask_inputs(g), half, best_s, best_k)


def _yielded(g, half, bound=(0, 0)):
    """{S: (size, s, nbrs)} over the engine's batches, each S once."""
    got = {}
    for size, graph, S, nbrs, s in _batches(g, half, bound):
        assert not graph.any()
        for row in zip(S.tolist(), size.tolist(), s.tolist(), nbrs.tolist()):
            assert row[0] not in got
            got[row[0]] = row[1:]
    return got


def test_fixed_bound_keeps_every_subset_at_or_below_it():
    """With a fixed bound (s, k) the engine still yields every connected S
    with |S| <= half and k |boundary(S)| <= s |S|, ties included, and
    yields only connected subsets, with the reference's cut.  Bounds: the
    smallest four ratios of connected subsets, and h of the graph."""
    pruned = 0
    for g in SAMPLES_12[::3] + CUBIC_22[:2] + LOOPY + [plant_trees(theta_base(), 3)]:
        adj, mult = reference_kernel.bitmask_inputs(g)
        nv = g.num_vertices
        for half in _halves(nv):
            want = {}

            def visit(S, size, s, nbrs):
                want[S] = (size, s, nbrs)

            reference_kernel.connected_subsets(adj, mult, half, visit)
            ratios = sorted({Fraction(s, size) for size, s, _ in want.values()})
            h = reference_kernel.min_ratio_cut(adj, mult, nv, half)
            bounds = {(r.numerator, r.denominator) for r in ratios[:4]} | {h[:2]}
            for s_max, k_max in bounds:
                got = _yielded(g, half, (s_max, k_max))
                assert got.items() <= want.items()
                below = {S for S, (size, s, _) in want.items() if k_max * s <= s_max * size}
                assert below <= got.keys(), (g.edges, half, (s_max, k_max))
                pruned += len(got) < len(want)
    assert pruned > 100


def _heavy_multigraphs(count, seed):
    """Connected multigraphs on 2..16 vertices: a random spanning tree, a
    few random extra edges, a loop, and one tree edge repeated until its
    multiplicity is 3 to 5."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        nv = rng.randint(2, 16)
        edges = [(v, rng.randrange(v)) for v in range(1, nv)]
        edges += [rng.choice(edges)] * rng.randint(2, 4)
        edges += [(rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randint(0, 3))]
        edges.append((rng.randrange(nv),) * 2)
        out.append(MultiGraph(chi=nv, n=0, edges=tuple(edges)))
    return out


def test_level_masks_count_cuts_with_multiplicity():
    """Each row the engine yields, unbounded and under a fixed bound, has
    the cut graph_core.boundary_size counts, on multigraphs with loops and
    edges of multiplicity 3 to 5 (theta_base's triple edge among them).
    Unbounded, the rows are the reference's connected subsets; under the
    bound (s, k), the rows with k |boundary(S)| <= s |S| are exactly the
    connected S below it."""
    graphs = [theta_base(), plant_trees(theta_base(), 2)] + _heavy_multigraphs(60, seed=25)
    mults = [max(g.edges.count(e) for e in g.edges if e[0] != e[1]) for g in graphs]
    assert {3, 4, 5} <= set(mults)
    pruned = 0
    for g in graphs:
        adj, mult = reference_kernel.bitmask_inputs(g)
        for half in _halves(g.num_vertices):
            want = {}
            reference_kernel.connected_subsets(
                adj, mult, half, lambda S, size, s, nbrs: want.setdefault(S, size)
            )
            cut = {S: graph_core.boundary_size(g, _members(S)) for S in want}
            ratios = sorted({Fraction(c, want[S]) for S, c in cut.items()})
            r = ratios[len(ratios) // 2]
            unbounded = _yielded(g, half)
            assert unbounded.keys() == want.keys()
            bounded = _yielded(g, half, (r.numerator, r.denominator))
            pruned += len(bounded) < len(want)
            below = set()
            for S, (size, s, _) in bounded.items():
                assert (size, s) == (want[S], cut[S]), (g.edges, half, S)
                if r.denominator * s <= r.numerator * size:
                    below.add(S)
            assert below == {S for S in want if r.denominator * cut[S] <= r.numerator * want[S]}
            assert all(s == cut[S] for S, (_, s, _) in unbounded.items()), g.edges
    assert pruned > 30


def _members(mask):
    return {v for v in range(mask.bit_length()) if mask >> v & 1}


def test_engine_input_matches_the_reference_view():
    """The engine's one input builder, _mincut_py.bitmask_stack, gives each
    graph the reference's Python-int view, loops left out: one graph at a
    time on 300 random multigraphs of 1 to 63 vertices with loops and
    parallel edges, and stacked on the 37 connected trials of one 40-trial
    F_{16,4} block."""
    rng = random.Random(39)
    graphs = []
    for _ in range(300):
        nv = rng.randint(1, 63)
        edges = [(rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randint(0, 2 * nv))]
        edges += edges[:1] * rng.randint(1, 3) + [(v, v) for v in range(0, nv, 7)]
        graphs.append(MultiGraph(chi=nv, n=0, edges=tuple(edges)))
    assert {g.num_vertices for g in graphs} >= {1, 2, 63}
    assert sum(len(set(g.edges)) < len(g.edges) for g in graphs) > 250
    for g in graphs:
        adj, mult = _bitmask_inputs(g)
        assert (adj.dtype, mult.dtype) == (np.uint64, np.int64)
        assert (adj[0].tolist(), mult[0].tolist()) == reference_kernel.bitmask_inputs(g), g.edges
    cfg = SampleConfig(chi=16, n=4, trials=40, seed=11)
    block = [g for g in (sample_graph(cfg, t) for t in range(40)) if is_connected(g)]
    assert len(block) == 37 and any(u == v for g in block for u, v in g.edges)
    adj, mult = _mincut_py.bitmask_stack(np.array([g.edges for g in block]), 20)
    assert [list(view) for view in zip(adj.tolist(), mult.tolist())] == [
        list(reference_kernel.bitmask_inputs(g)) for g in block
    ]


def test_engine_input_takes_1_to_63_vertices():
    """bitmask_stack checks the mask width for every engine caller: 0 and
    64 vertices are refused, and a 3000-vertex cycle is refused before any
    nv x nv array is built (its multiplicities alone would take 72 MB)."""
    no_edges = np.zeros((1, 0, 2), dtype=np.intp)
    for nv in (1, 63):
        adj, mult = _mincut_py.bitmask_stack(no_edges, nv)
        assert adj.shape == (1, nv) and mult.shape == (1, nv, nv)
    for nv in (0, 64):
        with pytest.raises(GuardExceededError):
            _mincut_py.bitmask_stack(no_edges, nv)
    cycle = np.array([[(v, (v + 1) % 3000) for v in range(3000)]])
    tracemalloc.start()
    try:
        with pytest.raises(GuardExceededError):
            _mincut_py.bitmask_stack(cycle, 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_popcount_matches_bit_count():
    x = np.random.default_rng(3).integers(0, 2**64, size=2000, dtype=np.uint64)
    x[:3] = 0, 2**63, 2**64 - 1
    assert (x >> np.uint64(63)).sum() > 900
    got = _mincut_py.popcount(x)
    assert got.dtype == np.int64
    assert got.tolist() == [v.bit_count() for v in x.tolist()]


def _random_multigraphs(count, seed, max_nv=NAIVE_GUARD):
    """Connected multigraphs on 2..max_nv vertices: a random spanning tree
    plus up to |V| extra edges, each a random pair, a loop or a parallel
    copy."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        nv = rng.randint(2, max_nv)
        edges = [(v, rng.randrange(v)) for v in range(1, nv)]
        for _ in range(rng.randint(0, nv)):
            u = rng.randrange(nv)
            extra = (u, rng.randrange(nv)), (u, u), rng.choice(edges)
            edges.append(rng.choice(extra))
        out.append(MultiGraph(chi=nv, n=0, edges=tuple(edges)))
    return out


def test_pruned_search_matches_naive_oracle_on_random_multigraphs():
    """Whole certificates, witnesses included, on 400 seeded multigraphs
    with loops and parallel edges: a prune that cut one subtree holding
    the optimum or a tie would change h or the witness."""
    graphs = _random_multigraphs(400, seed=21)
    assert sum(any(u == v for u, v in g.edges) for g in graphs) > 100
    for g in graphs:
        assert cheeger_exact(g) == cheeger_exact_naive(g), g.edges


def _pendant_multigraphs(count, seed, max_nv):
    """Connected multigraphs of 2 to max_nv vertices rich in pendants: a
    core of 1 to 14 vertices (a random spanning tree, extra edges, loops
    and parallel copies) with pendants hung on random core vertices in
    groups of 1 to 3, each joined by one or two parallel edges and
    sometimes carrying a loop (the cut-pendant of a model graph); the
    vertex labels are shuffled, so pendants fall below and above their
    anchors."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        core = rng.randint(1, min(14, max_nv - 1))
        edges = [(v, rng.randrange(v)) for v in range(1, core)]
        for _ in range(rng.randint(0, core)):
            u = rng.randrange(core)
            edges.append(rng.choice([(u, rng.randrange(core)), (u, u)] + edges[:1]))
        nv = core
        while nv < max_nv and (nv == core or rng.random() < 0.7):
            a = rng.randrange(core)
            for _ in range(min(rng.randint(1, 3), max_nv - nv)):
                edges += [(a, nv)] * rng.choice((1, 1, 2))
                if rng.random() < 0.3:
                    edges.append((nv, nv))
                nv += 1
        perm = list(range(nv))
        rng.shuffle(perm)
        edges = tuple((perm[u], perm[v]) for u, v in edges)
        out.append(MultiGraph(chi=nv, n=0, edges=edges))
    return out


def _pendants(g):
    """{pendant: anchor}: vertices with one distinct neighbour, loops
    ignored, whose neighbour has at least two, read off the edge list."""
    nbrs = {v: set() for v in range(g.num_vertices)}
    for u, v in g.edges:
        if u != v:
            nbrs[u].add(v)
            nbrs[v].add(u)
    return {
        v: a
        for v, ns in nbrs.items()
        if len(ns) == 1 and len(nbrs[a := next(iter(ns))]) >= 2
    }


def _reference_cut(g, half):
    """The unbundled recursive reference's (s, k, mask) on g."""
    view = reference_kernel.bitmask_inputs(g)
    return reference_kernel.min_ratio_cut(*view, g.num_vertices, half)[:3]


F11 = build_graph(HalfEdgePairing(chi=1, n=1, pairs=((1, 4), (2, 3))))
PENDANT_SMALL = [F11, STAR] + _pendant_multigraphs(150, seed=40, max_nv=NAIVE_GUARD)
PENDANT_LARGE = [
    plant_trees(k4_graph(), 1),
    plant_trees(theta_base(), 2),
    expander_family(FamilySpec.from_theta("3"), 3).graph,
    expander_family(FamilySpec.from_theta("3"), 4).graph,
    expander_family(FamilySpec.from_theta("6"), 3).graph,
] + _pendant_multigraphs(40, seed=41, max_nv=28)[::2]


def test_pendant_bundles_keep_every_certificate():
    """At half = |V| // 2 the search grows pendant bundles: a pendant joins
    a subset only with its anchor, or stands alone.  Its (s, k, mask),
    witnesses included, equal cheeger_exact_naive's up to 12 vertices and
    the unbundled recursive reference's up to 63, on pendant-rich
    multigraphs: F_{1,1} (two vertices, nothing bundled), F_{1,3} (a star,
    h = 1 from a pendant on its own), anchors of 2 or 3 pendants, pendants
    with a loop or a doubled edge, planted graphs and family members, the
    63-path and the connected trials of an F_{16,4} block, searched
    together.  At the other halves (1, |V| - 1, |V|; on the graphs of at
    most 12 vertices and the path) nothing is bundled, and the engine still
    equals the reference."""
    assert [len(_pendants(g)) for g in (F11, STAR)] == [0, 3]
    small = PENDANT_SMALL
    pendants = [_pendants(g) for g in small + PENDANT_LARGE]
    anchors = [Counter(p.values()) for p in pendants]
    assert sum(max(a.values(), default=0) >= 2 for a in anchors) > 50
    assert sum(any(u == v and u in p for u, v in g.edges)
               for g, p in zip(small + PENDANT_LARGE, pendants)) > 30
    assert sum(any(v < a for v, a in p.items()) for p in pendants) > 50
    assert {g.num_vertices for g in small} >= set(range(2, NAIVE_GUARD + 1))
    assert max(g.num_vertices for g in PENDANT_LARGE) >= 24
    for g in small:
        assert cheeger_exact(g) == cheeger_exact_naive(g), g.edges
    cases = [(g, {1, g.num_vertices // 2, g.num_vertices - 1, g.num_vertices})
             for g in small[::3] + [_path(63)]]
    cases += [(g, {g.num_vertices // 2}) for g in PENDANT_LARGE]
    for g, halves in cases:
        for half in sorted(halves):
            got = py_min_ratio_cut(*_bitmask_inputs(g), g.num_vertices, half)[:3]
            assert got == _reference_cut(g, half), (g.edges, half)
    cfg = SampleConfig(chi=16, n=4, trials=40, seed=40)
    block = [g for g in (sample_graph(cfg, t) for t in range(40)) if is_connected(g)]
    assert len(block) > 30 and all(len(_pendants(g)) >= 4 for g in block)
    b = graph_core.GraphBlock(chi=16, n=4, edges=np.array([g.edges for g in block]))
    for g, cert in zip(block, cheeger.cheeger_exact_block(b, guard=20)):
        mask = sum(1 << v for v in cert.witness)
        assert (cert.boundary_size, len(cert.witness), mask) == _reference_cut(g, 10)


def test_decision_matches_the_exact_search():
    """cheeger_at_least(g, b) is cheeger_exact(g).h >= b on 400 seeded
    multigraphs of at most 28 vertices, loops and parallel edges included,
    on connected model samples of 20 to 28 vertices and on the pendant-rich
    graphs of test_pendant_bundles_keep_every_certificate, whose searches
    and decisions grow pendant bundles, at b = h (a tie), h +- 1/97, 2/11
    and 1/3; cheeger_exact_naive agrees up to 12 vertices."""
    graphs = _random_multigraphs(400, seed=35, max_nv=28) + _connected_samples(
        [(16, 4), (20, 6), (22, 0), (24, 4)], trials=4, seed=35
    )
    assert sum(g.num_vertices > 20 for g in graphs) > 100
    naive = 0
    for g in graphs + PENDANT_SMALL + PENDANT_LARGE:
        h = cheeger_exact(g, guard=28).h
        if g.num_vertices <= NAIVE_GUARD:
            assert cheeger_exact_naive(g).h == h, g.edges
            naive += 1
        for b in (h, h - Fraction(1, 97), h + Fraction(1, 97), Fraction(2, 11), Fraction(1, 3)):
            assert cheeger_at_least(g, b) == (h >= b), (g.edges, b)
    assert naive > 250


def test_decision_takes_up_to_the_mask_width_whatever_the_guard():
    """Vertex 62 uses the top bit of the masks; 64 vertices do not fit."""
    h = Fraction(2, 31)  # the 63-cycle's
    assert cheeger_at_least(_cycle(63), h)
    assert not cheeger_at_least(_cycle(63), h + Fraction(1, 97))
    with pytest.raises(GuardExceededError):
        cheeger_at_least(_cycle(64), Fraction(2, 11))


def test_at_least_refuses_a_wide_graph_before_its_bitmask_view():
    """The mask width is checked before the nv x nv multiplicity view is
    built: on a 3000-vertex cycle that view alone takes about 72 MB of
    Python lists, the connectivity check about 0.35 MB."""
    g = _cycle(3000)
    tracemalloc.start()
    try:
        with pytest.raises(GuardExceededError):
            cheeger_at_least(g, Fraction(1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_pinned_40_vertex_family_certificate():
    """The theta = 5/2, g = 6 member (G 25 15, 40 vertices): h = 5/19, as
    the unpruned search found it."""
    g = expander_family(FamilySpec.from_theta("5/2"), 6).graph
    assert (g.chi, g.n) == (25, 15)
    cert = cheeger_exact(g, guard=40)
    witness = [f"v{i}" for i in (*range(1, 6), *range(11, 17), 18)]
    witness += [f"w{i}" for i in (*range(1, 7), 8)]
    assert cert.to_json(g) == {
        "h_num": 5, "h_den": 19, "omega": witness, "boundary": 5, "exact": True
    }


def test_pinned_56_vertex_family_certificate():
    """The theta = 3, g = 8 member (G 35 21, 56 vertices): h = 3/14, a cut
    of 6 over 28 vertices, as the unbundled search found it."""
    g = expander_family(FamilySpec.from_theta("3"), 8).graph
    assert (g.chi, g.n) == (35, 21)
    cert = cheeger_exact(g, guard=63)
    witness = [f"v{i}" for i in (*range(1, 9), *range(15, 19), 20, 21, 22, 24, 26, 27)]
    witness += [f"w{i}" for i in (1, 2, 3, 4, 6, 7, 8, 10, 12, 13)]
    assert cert.to_json(g) == {
        "h_num": 3, "h_den": 14, "omega": witness, "boundary": 6, "exact": True
    }


@pytest.mark.parametrize(
    "graph, half, want",
    [
        (lambda: plant_trees(k4_graph(), 2), 14, (3, 13, 4129777, 615)),
        (lambda: plant_trees(theta_base(), 3), 10, (1, 5, 14360, 71)),
        (heawood_graph, 7, (6, 6, 63, 1547)),
    ],
)
def test_pruning_reads_the_tightened_bound(graph, half, want):
    """min_ratio_cut's (s, k, mask, visited), visited included.  The engine
    must prune against the best ratio as min_ratio_cuts lowers it: an
    engine that copied the bound on entry keeps every certificate but
    visits more subsets (2482, 154 and 1974 here).  At half = |V| // 2 the
    search grows pendant bundles, so the two planted graphs, whose trees
    end in pendants, visit fewer subsets than the unbundled search did
    (2720 and 221)."""
    g = graph()
    assert py_min_ratio_cut(*_bitmask_inputs(g), g.num_vertices, half) == want


def test_prefix_prune_keeps_every_row_at_a_fixed_batch_cap(monkeypatch):
    """The sibling-prefix prune drops only children that the forced-cut test
    drops anyway, so at a fixed batch cap it moves no row: with 1024 rows a
    batch, the engine visits the 12297 subsets over the 37 connected
    trials of one 40-trial F_{16,4} block that it visits without the
    prune (27772 without pendant bundles), and the certificates do not
    depend on the cap."""
    cfg = SampleConfig(chi=16, n=4, trials=40, seed=11)
    graphs = [g for g in (sample_graph(cfg, t) for t in range(40)) if is_connected(g)]
    assert len(graphs) == 37
    adj, mult = _mincut_py.bitmask_stack(np.array([g.edges for g in graphs]), 20)
    wide = _mincut_py.min_ratio_cuts(adj, mult, 10)
    monkeypatch.setattr(_mincut_py, "BATCH", 1024)
    cuts = _mincut_py.min_ratio_cuts(adj, mult, 10)
    assert sum(cut[3] for cut in cuts) == 12297
    assert [cut[:3] for cut in cuts] == [cut[:3] for cut in wide]


def test_engine_yields_each_connected_subset_once():
    """Every batch has one subset size and at most BATCH rows; together the
    batches hold each connected S once, with the reference's cut and
    neighbourhood."""
    split = False
    for g in CUBIC_22[:1] + LOOPY[:5] + [plant_trees(theta_base(), 3)]:
        adj, mult = reference_kernel.bitmask_inputs(g)
        nv = g.num_vertices
        for half in _halves(nv):
            want = {}

            def visit(S, size, s, nbrs):
                assert S not in want
                want[S] = (size, s, nbrs)

            reference_kernel.connected_subsets(adj, mult, half, visit)
            got = {}
            for size, graph, S, nbrs, s in _batches(g, half):
                assert 0 < len(S) <= _mincut_py.BATCH
                assert not graph.any() and len(set(size.tolist())) == 1
                split |= len(S) == _mincut_py.BATCH
                for row in zip(S.tolist(), size.tolist(), s.tolist(), nbrs.tolist()):
                    assert row[0] not in got
                    got[row[0]] = row[1:]
            assert got == want
    assert split  # some level spans several batches


def _cycle(nv):
    return MultiGraph(chi=nv, n=0, edges=tuple((v, (v + 1) % nv) for v in range(nv)))


def _path(nv):
    return MultiGraph(chi=nv, n=0, edges=tuple((v, v + 1) for v in range(nv - 1)))


def _kernels():
    """Each kernel with the builder of its own input."""
    return [
        (py_min_ratio_cut, _bitmask_inputs),
        (reference_kernel.min_ratio_cut, reference_kernel.bitmask_inputs),
    ]


def test_one_exact_search_path():
    # cheeger_exact runs the batched engine; there is no other kernel to pick
    assert cheeger._kernel is _mincut_py
    assert cheeger.HAVE_COMPILED_KERNEL is False


def test_top_bit_cycle_and_path():
    """Vertex 62 uses the top bit of the 63-bit masks.  Connected subsets
    of size <= 31 are the 63 * 31 arcs of the cycle and the 1488 intervals
    of the path; both minima are the arc or interval {0..30}.  The batched
    engine bundles the path's end vertices with their neighbours, so it
    skips the 62 intervals that hold 1 but not 0, or 61 but not 62."""
    arc = (1 << 31) - 1
    cases = ((_cycle(63), (2, 31, arc, 63 * 31), 63 * 31), (_path(63), (1, 31, arc, 1488), 1426))
    for g, want, batched in cases:
        assert reference_kernel.min_ratio_cut(*reference_kernel.bitmask_inputs(g), 63, 31) == want
        assert py_min_ratio_cut(*_bitmask_inputs(g), 63, 31) == (*want[:3], batched)
    assert cheeger_exact(_cycle(63), guard=63).h == Fraction(2, 31)
    assert cheeger_exact(_path(63), guard=63).h == Fraction(1, 31)


def test_kernels_reject_64_vertices():
    """The engine's input builder refuses 64 vertices for every engine
    caller; the reference kernel checks its own input."""
    with pytest.raises(GuardExceededError):
        py_min_ratio_cut(*_bitmask_inputs(_cycle(64)), 64, 32)
    with pytest.raises(ValueError):
        reference_kernel.min_ratio_cut(*reference_kernel.bitmask_inputs(_cycle(64)), 64, 32)
    with pytest.raises(GuardExceededError):
        cheeger_exact(_cycle(64), guard=64)


def test_naive_oracle_refuses_above_its_guard():
    assert cheeger_exact_naive(_cycle(NAIVE_GUARD)).h == Fraction(2, NAIVE_GUARD // 2)
    with pytest.raises(GuardExceededError):
        cheeger_exact_naive(_cycle(NAIVE_GUARD + 1))


def test_exact_within_decides_which_graphs_get_the_search(monkeypatch):
    """The search takes at most min(guard, MAX_VERTICES) vertices; above
    that cheeger_exact_within returns None without calling cheeger_exact."""
    assert _mincut_py.MAX_VERTICES == 63
    assert cheeger_exact_within(_cycle(10), guard=10) == cheeger_exact(_cycle(10))
    calls = []
    monkeypatch.setattr(cheeger, "cheeger_exact", lambda g, guard: calls.append(guard))
    for nv, guard in ((11, 10), (64, 64), (64, 1000)):
        assert cheeger_exact_within(_cycle(nv), guard) is None
    assert calls == []
    cheeger_exact_within(_cycle(63), 64)
    assert calls == [64]


def _upper_by_recount(g):
    """The sweep with |boundary| recounted for every prefix, O(|V| |E|)."""
    nv = g.num_vertices
    eigvals, eigvecs = np.linalg.eigh(normalized_laplacian(g))
    fiedler = eigvecs[:, np.argsort(eigvals)[1]]
    deg = np.array(g.degrees(), dtype=float)
    order = np.argsort(fiedler / np.sqrt(deg), kind="stable")
    best = None
    for j in range(1, nv):
        prefix = set(int(v) for v in order[:j])
        side = prefix if j <= nv // 2 else set(range(nv)) - prefix
        s, k = boundary_size(g, side), len(side)
        if best is None or s * best[1] < best[0] * k:
            best = (s, k, tuple(sorted(side)))
    return best


def test_incremental_sweep_matches_recount():
    graphs = SAMPLES_12 + CUBIC_22 + LOOPY + _connected_samples([(40, 6), (90, 10)], 5, seed=4)
    for g in graphs:
        up = cheeger_upper(g)
        assert (up.boundary_size, len(up.witness), up.witness) == _upper_by_recount(g)
        assert up.h == Fraction(up.boundary_size, len(up.witness))


def test_upper_bound_sound_and_tight_on_star():
    up = cheeger_upper(STAR)
    assert up.h == 1 and not up.exact
    for g in SAMPLES_12[:80]:
        assert cheeger_upper(g).h >= cheeger_exact(g).h


def test_h_at_most_degree_bound():
    for g in SAMPLES_12[:60]:
        assert cheeger_exact(g).h <= min(g.degrees())
    assert cheeger_exact(k4_graph()).h <= 3


def test_cheeger_inequality_spot_check():
    for g in SAMPLES_12[:60]:
        h = float(cheeger_exact(g).h)
        lam1 = lambda1(g)
        assert lam1 >= h * h / 18 - 1e-9


def test_guard_and_env_override(monkeypatch):
    # the guard is an argument only: no environment variable overrides it
    assert DEFAULT_GUARD == 24
    big = _connected_samples([(8, 4)], 10, seed=2)[0]  # 12 vertices
    with pytest.raises(GuardExceededError):
        cheeger_exact(big, guard=10)
    expected = cheeger_exact(big)
    assert expected.h > 0
    monkeypatch.setenv("EXPANDER_FORGE_GUARD", "10")
    assert cheeger_exact(big) == expected


def test_disconnected_rejected():
    cfg = SampleConfig(chi=6, n=4, trials=100, seed=3)
    for t in range(cfg.trials):
        g = sample_graph(cfg, t)
        if not is_connected(g):
            with pytest.raises(ExpanderForgeError):
                cheeger_exact(g)
            return
    pytest.fail("no disconnected sample found")


@pytest.mark.parametrize(
    "g",
    [
        MultiGraph(chi=1, n=0, edges=[]),
        # two components, each v-w with a loop at v
        MultiGraph(chi=2, n=2, edges=[(0, 0), (0, 2), (1, 1), (1, 3)]),
    ],
    ids=["one-vertex", "disconnected"],
)
@pytest.mark.parametrize("fn", [cheeger_exact, cheeger_exact_naive, cheeger_upper])
def test_cheeger_functions_share_one_precondition(g, fn):
    with pytest.raises(ExpanderForgeError, match="^the Cheeger constant needs "):
        fn(g)


def test_witness_tie_break_smallest_then_lex():
    # theta graph: both singletons give ratio 3; vertex 0 wins lex
    cert = cheeger_exact(theta_base())
    assert cert.witness == (0,)
    # star: all three leaves give ratio 1; leaf with smallest id wins
    cert = cheeger_exact(STAR)
    assert cert.witness == (1,)
