"""Constructive machinery: two-tree edge splits, balanced boundary subsets,
the Steklov test function, caterpillar planting and the expander family.

The family construction: pick k with theta <= 3k < theta + 3, plant depth-k
caterpillar trees on every edge of a certified cubic expander base, then add
loops at pendant vertices to hit each target genus exactly.  The planted
graph keeps a Cheeger lower bound min{1/(2k), h/(3k+1+k h)} in terms of the
base constant h.  Genera below the family's start get a closed-form chain,
the first connected member of F_{2g,2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

from ._mincut_py import MAX_VERTICES
from .cheeger import cheeger_at_least, cheeger_exact, cheeger_exact_within, cheeger_upper
from .errors import DEFAULT_GUARD, CertificationError, ExpanderForgeError
from .graph_core import (
    INTERIOR,
    HalfEdgePairing,
    MultiGraph,
    Topology,
    boundary_size,
    build_graph,
    components,
    exact_fraction,
    is_connected,
    relabel_canonical,
    spanning_forest,
    topology,
)
from .sampler import SampleConfig, sample_graph

BASE_CHEEGER_TARGET = Fraction(2, 11)
# Sampled bases on 2m vertices are trials 0..BASE_ATTEMPTS-1 at seed BASE_SEED + m.
BASE_SEED = 20240601
BASE_ATTEMPTS = 500


@dataclass(frozen=True)
class TreeSplit:
    removed_edges: tuple[tuple[int, int], ...]
    side_a: frozenset[int]
    side_b: frozenset[int]
    forest: frozenset[tuple[int, int]]  # the edges left; a forest repeats none


@dataclass(frozen=True)
class BalancedSubset:
    h_set: frozenset[int]
    boundary_edges: int
    boundary_vertices_inside: int


def two_tree_split(g: MultiGraph) -> TreeSplit:
    """Remove g+1 edges so the rest is a disjoint union of two trees.

    While a cycle exists, the lexicographically smallest edge lying on a
    cycle (equivalently: whose removal keeps the graph connected) is
    removed; the final removal takes the smallest edge of the remaining
    spanning tree.

    That rule is reverse-delete in ascending order: an edge found to be a
    bridge stays one, so the removals come in ascending order and what is
    left is the spanning tree Kruskal's algorithm builds from the edges in
    descending order.  The edges Kruskal rejects, reversed, are the
    removals.
    """
    if not is_connected(g):
        raise ExpanderForgeError("two_tree_split requires a connected graph")
    nv = g.num_vertices
    tree, rejected = spanning_forest(nv, sorted(g.edges, reverse=True))
    if not tree:
        raise ExpanderForgeError("two_tree_split requires at least two vertices")
    final = tree.pop()  # the smallest tree edge
    comps = components(nv, tree)
    if len(comps) != 2:
        raise ExpanderForgeError("final removal did not split into two trees")
    return TreeSplit(
        removed_edges=tuple(reversed(rejected)) + (final,),
        side_a=frozenset(comps[0]),
        side_b=frozenset(comps[1]),
        forest=frozenset(tree),
    )


def balanced_boundary_subset(g: MultiGraph, top: Topology | None = None) -> BalancedSubset:
    """A subset H with |boundary(H)| <= g+1 and n/4 <= |H ∩ dG| <= n/2.

    Needs a model graph (topology checks the rule, unless the caller passes
    the `top` it already has) with n >= 2 that is connected (two_tree_split
    checks it).

    The descent starts from the two sides of the two-tree split.  At each
    step the pieces are sorted by boundary count (descending, then least
    vertex) and the first piece in the window is returned.  Otherwise the
    current side is the first piece; it is cut at the inside end w of its
    least crossing edge (it has one: it is a proper part of a connected
    graph), and the new pieces are the components of the side's tree
    minus w.  Each step shrinks the side, so the descent ends.

    No piece can exceed the boundary bound.  Let R be the g+1 edges the
    split removes, and for a vertex set P let N(P) count the R-edges
    touching P plus the forest edges with exactly one end in P; then
    |boundary(P)| <= N(P).  Each side of the split has N <= g+1.  A piece P
    of a cut at w loses the crossing edge e, which touches only w and the
    outside, and gains only its one forest edge to w, so N(P) <= N(side).

    The first cut always decides.  The side holds more than n/2 >= 1
    boundary vertices, so it is not a lone pendant and w has degree 3.  e
    uses one of w's three ends, so there are at most two pieces, and since
    w is not a boundary vertex they hold all the side's boundary vertices.
    Two pieces below n/4 would hold fewer than n/2, so if neither piece
    lies in the window, one of them holds more than n/2.
    """
    n = g.n
    if n <= 1:
        raise ExpanderForgeError("needs n >= 2 (integer window empty)")
    if top is None:
        topology(g)
    boundary_set = set(g.boundary_indices())
    nv = g.num_vertices

    def bcount(vs) -> int:
        return len(boundary_set & vs)

    split = two_tree_split(g)
    tree = split.forest
    pieces = [split.side_a, split.side_b]
    while True:
        pieces.sort(key=lambda cset: (-bcount(cset), min(cset)))
        for cset in pieces:
            if n <= 4 * bcount(cset) <= 2 * n:
                return BalancedSubset(
                    h_set=cset,
                    boundary_edges=boundary_size(g, cset),
                    boundary_vertices_inside=bcount(cset),
                )
        side = pieces[0]
        tree = [e for e in tree if e[0] in side and e[1] in side]
        u, v = min(e for e in g.edges if (e[0] in side) != (e[1] in side))
        w = u if u in side else v
        rest = [e for e in tree if w not in e]
        pieces = [frozenset(c) for c in components(nv, rest, side - {w})]


def steklov_test_function(
    g: MultiGraph, h: BalancedSubset
) -> tuple[tuple[Fraction, ...], Fraction]:
    """Two-level test function: 1 - c/n on H, -c/n elsewhere (c = |H ∩ dG|).

    Sums to zero over the boundary; its Rayleigh quotient is
    |boundary(H)| over the exact boundary norm, at most 16(g+1)/(3n).
    """
    n = g.n
    c = h.boundary_vertices_inside
    hi = 1 - Fraction(c, n)
    lo = -Fraction(c, n)
    f = tuple(hi if v in h.h_set else lo for v in range(g.num_vertices))
    denom = c * hi**2 + (n - c) * lo**2
    if denom == 0:
        raise ExpanderForgeError("degenerate boundary norm")
    rq = Fraction(h.boundary_edges) / denom
    return f, rq


# --- caterpillar planting ----------------------------------------------------


def build_Tk(k: int) -> MultiGraph:
    """The depth-k caterpillar fragment on 2k vertices.

    Spine v_0..v_k (indices 0..k) plus hairs w_1..w_{k-1} (indices
    k+1..2k-1) hanging off v_1..v_{k-1}.  The root v_0 has degree 1 inside
    the fragment and becomes degree 3 once the fragment is planted on an
    edge; v_k and the hairs are the k pendants.
    """
    if k < 1:
        raise ExpanderForgeError("k must be >= 1")
    edges = [(i, i + 1) for i in range(k)]
    edges += [(i, k + i) for i in range(1, k)]
    return MultiGraph(chi=k, n=k, edges=edges)


def plant_trees(g: MultiGraph, k: int) -> MultiGraph:
    """Replace every edge of a connected 3-regular graph by a caterpillar
    copy whose root is joined to both former endpoints.

    On a base with 2m vertices the result has 2m + 6mk vertices, 3mk of
    them pendant, and topological genus m + 1.
    """
    if topology(g).components != 1 or g.n:
        raise ExpanderForgeError("plant_trees requires a connected base with n = 0")
    tk = build_Tk(k)
    roles = [INTERIOR] * g.num_vertices
    edges: list[tuple[int, int]] = []
    for u1, u2 in g.edges:
        base = len(roles)  # the fragment's root v_0
        roles += tk.roles
        edges += [(base + a, base + b) for a, b in tk.edges]
        edges += [(u1, base), (u2, base)]
    return relabel_canonical(roles, edges)


def add_loops(g: MultiGraph, vs: list[int]) -> MultiGraph:
    """Add a loop at each listed boundary vertex, flipping it to interior:
    on a model graph its degree goes from 1 to 3."""
    for v in vs:
        if not g.chi <= v < g.num_vertices:
            raise ExpanderForgeError(f"vertex {v} is not a boundary vertex")
    if len(set(vs)) != len(vs):
        raise ExpanderForgeError("duplicate vertices in loop list")
    roles = list(g.roles)
    for v in vs:
        roles[v] = INTERIOR
    edges = list(g.edges) + [(v, v) for v in vs]
    return relabel_canonical(roles, edges)


def tree_planting_lower_bound(h_base: Fraction, k: int) -> Fraction:
    """Cheeger lower bound for the planted graph in terms of the base's."""
    return min(Fraction(1, 2 * k), h_base / (3 * k + 1 + k * h_base))


# --- family specification -----------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    """Target boundary-to-genus ratio theta; one rule builds every member.

    - Tree depth k = ceil(theta/3), so theta <= 3k < theta + 3.
    - Planting depth-k caterpillars on a cubic base with 2m vertices gives
      genus m + 1 and 3km pendants; t(m) = max(0, floor(((3k - theta) m -
      theta)/(1 + theta))) of them get loops, for genus g_of(m) = m + 1 + t(m).
    - m0 = max(1, ceil(theta/(3k - theta))), or 1 when 3k = theta, where
      that formula divides by zero; the family starts at genus g_of(m0).
    - Genus g >= g_of(m0) uses the largest m with g_of(m) <= g and puts
      t(m) + g - g_of(m) loops.  When 3k = theta, t(m) = 0, so m = g - 1 and
      no loop is added.
    """

    theta: Fraction
    k: int

    @classmethod
    def from_theta(cls, theta) -> "FamilySpec":
        theta = exact_fraction(theta)
        if theta <= 0:
            raise ExpanderForgeError("theta must be positive")
        k = math.ceil(theta / 3)
        assert theta <= 3 * k < theta + 3
        return cls(theta=theta, k=k)

    @property
    def exact_multiple(self) -> bool:
        return 3 * self.k == self.theta

    @property
    def m0(self) -> int:
        if self.exact_multiple:
            return 1
        return max(1, math.ceil(self.theta / (3 * self.k - self.theta)))

    def t(self, m: int) -> int:
        val = ((3 * self.k - self.theta) * m - self.theta) / (1 + self.theta)
        return max(0, math.floor(val))

    def g_of(self, m: int) -> int:
        return m + 1 + self.t(m)


# --- certified cubic bases ----------------------------------------------------


def theta_base() -> MultiGraph:
    return MultiGraph(chi=2, n=0, edges=[(0, 1)] * 3)


def k4_graph() -> MultiGraph:
    return MultiGraph(chi=4, n=0, edges=combinations(range(4), 2))


def k33_graph() -> MultiGraph:
    edges = [(i, 3 + j) for i in range(3) for j in range(3)]
    return MultiGraph(chi=6, n=0, edges=edges)


def cube_graph() -> MultiGraph:
    edges = [(v, v ^ bit) for v in range(8) for bit in (1, 2, 4) if v < v ^ bit]
    return MultiGraph(chi=8, n=0, edges=edges)


def petersen_graph() -> MultiGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    pentagram = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return MultiGraph(chi=10, n=0, edges=outer + pentagram + spokes)


def heawood_graph() -> MultiGraph:
    cycle = [(i, (i + 1) % 14) for i in range(14)]
    chords = [(i, (i + 5) % 14) for i in range(0, 14, 2)]
    return MultiGraph(chi=14, n=0, edges=cycle + chords)


NAMED_BASES: dict[int, Callable[[], MultiGraph]] = {
    1: theta_base,
    2: k4_graph,
    3: k33_graph,
    4: cube_graph,
    5: petersen_graph,
    7: heawood_graph,
}


@dataclass(frozen=True)
class CertifiedBase:
    graph: MultiGraph
    h_bound: Fraction


def default_base_provider(m: int, guard: int = DEFAULT_GUARD) -> CertifiedBase:
    """Connected 3-regular graph on 2m vertices with h >= 2/11 proven.

    Named graphs (certified by exact search) for small m; otherwise random
    cubic samples.  Where cheeger_exact_within takes a sample, the exact
    search certifies it.  Beyond it the sweep upper bound screens the
    trials and cheeger_at_least proves the trial the screen picks, which
    comes back with h_bound = 2/11.  No base above MAX_VERTICES vertices
    is proven: CertificationError.  The exact search costs time
    exponential in the guard.
    """
    if m in NAMED_BASES:
        g = NAMED_BASES[m]()
        h = cheeger_exact(g, guard=2 * m).h  # proven whatever the guard
        if h >= BASE_CHEEGER_TARGET:
            return CertifiedBase(graph=g, h_bound=h)
    if 2 * m > MAX_VERTICES:
        raise CertificationError(
            f"no cubic base on {2 * m} vertices can be certified: "
            f"the exact search takes at most {MAX_VERTICES}"
        )
    cfg = SampleConfig(chi=2 * m, n=0, trials=BASE_ATTEMPTS, seed=BASE_SEED + m)
    for t in range(BASE_ATTEMPTS):
        g = sample_graph(cfg, t)
        if not is_connected(g):
            continue
        cert = cheeger_exact_within(g, guard)
        if cert is not None:
            if cert.h >= BASE_CHEEGER_TARGET:
                return CertifiedBase(graph=g, h_bound=cert.h)
        elif cheeger_upper(g).h >= 2 * BASE_CHEEGER_TARGET:  # the screen picks
            if cheeger_at_least(g, BASE_CHEEGER_TARGET):  # the decision proves
                return CertifiedBase(graph=g, h_bound=BASE_CHEEGER_TARGET)
    raise CertificationError(
        f"no cubic base on {2 * m} vertices certified h >= 2/11 "
        f"after {BASE_ATTEMPTS} attempts"
    )


@dataclass(frozen=True)
class FamilyMember:
    graph: MultiGraph
    h_lower: Fraction


def expander_family(
    spec: FamilySpec,
    g: int,
    guard: int = DEFAULT_GUARD,
    bases: dict[int, CertifiedBase] | None = None,
) -> FamilyMember:
    """The genus-g member of the family with n(g)/g -> theta.

    Below g_of(m0) it is the first connected member of F_{2g,2} in
    enumeration order, a chain built in closed form.  Otherwise m is the
    largest with g_of(m) <= g, the base on 2m vertices from
    default_base_provider(m, guard) is planted at depth k, and the
    t(m) + g - g_of(m) pendants with the lowest canonical ids get loops
    (see FamilySpec).

    bases, if given, maps m to the base already certified under this
    guard and takes each new one, so callers that share it certify each
    base size once; the provider is deterministic, so no member changes.
    """
    if g < 1:
        raise ExpanderForgeError("genus must be >= 1")
    if g < spec.g_of(spec.m0):
        chain = _first_connected_member(2 * g, 2)
        return FamilyMember(graph=chain, h_lower=Fraction(0))

    m = spec.m0
    while spec.g_of(m + 1) <= g:
        m += 1
    bases = {} if bases is None else bases
    if m not in bases:
        bases[m] = default_base_provider(m, guard)
    base = bases[m]
    planted = plant_trees(base.graph, spec.k)
    loops = spec.t(m) + g - spec.g_of(m)
    result = add_loops(planted, planted.boundary_indices()[:loops])
    top = topology(result)
    if top.genus != g:
        raise ExpanderForgeError(
            f"constructed genus {top.genus} != requested {g} (internal error)"
        )
    return FamilyMember(
        graph=result, h_lower=tree_planting_lower_bound(base.h_bound, spec.k)
    )


def _first_connected_member(chi: int, n: int) -> MultiGraph:
    """The first connected member of F_{chi,n} in enumerate_family order,
    for n = 2 and even chi = 2g: the chain with a loop at v1, the edge
    v1-v2, double edges v2=v3, v4=v5, ... alternating with single edges
    v3-v4, v5-v6, ..., and w1, w2 on v_2g.  Its pairs are (1,2), (3,4),
    then (6j+5, 6j+7) and (6j+6, 6j+8) for j = 0..g-1, each j < g-1
    followed by (6j+9, 6j+10).

    The walk pairs the smallest unmatched label with its partners in
    increasing order, so the first connected member is the connected
    pairing whose partner choices come first in that order.  The chain is
    connected, so no later pairing is first.  An earlier pairing leaves the
    chain at some step by taking a smaller unmatched partner.  The chain
    passes over the smallest one only when it pairs label 6j+5, whose
    smallest partner is 6j+6.  At that step every other label of
    v1..v_{2j+2} is matched and these vertices are connected, so the loop
    (6j+5, 6j+6) would close their component while v_{2j+3} (or w1, when
    j = g-1) lies outside it, and no completion of that prefix is connected.
    Other (chi, n) fail the pairing's validation.
    """
    pairs = [(1, 2), (3, 4)]
    for j in range(chi // 2):
        pairs += [(6 * j + 5, 6 * j + 7), (6 * j + 6, 6 * j + 8)]
        if j < chi // 2 - 1:
            pairs.append((6 * j + 9, 6 * j + 10))
    return build_graph(HalfEdgePairing(chi=chi, n=n, pairs=pairs))
