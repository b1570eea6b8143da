"""Constructive machinery: two-tree edge splits, balanced boundary subsets,
the Steklov test function, caterpillar planting and the expander family.

The family construction: pick k with theta <= 3k < theta + 3, plant depth-k
caterpillar trees on every edge of a certified cubic expander base, then add
loops at pendant vertices to hit each target genus exactly.  The planted
graph keeps a Cheeger lower bound min{1/(2k), h/(3k+1+k h)} in terms of the
base constant h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .cheeger import boundary_size, cheeger_exact, cheeger_upper, resolve_guard
from .errors import CertificationError, ExpanderForgeError
from .graph_core import (
    BOUNDARY,
    INTERIOR,
    MultiGraph,
    components,
    is_connected,
    relabel_canonical,
    spanning_forest,
    topology,
)
from .sampler import SampleConfig, sample_graph

BASE_CHEEGER_TARGET = Fraction(2, 11)


@dataclass(frozen=True)
class TreeSplit:
    removed_edges: tuple[tuple[int, int], ...]
    side_a: frozenset[int]
    side_b: frozenset[int]


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
    )


def _in_window(c: int, n: int) -> bool:
    return n <= 4 * c and 2 * c <= n


def _tree_components_without(
    nv: int, tree_edges: list[tuple[int, int]], vertices: frozenset[int], w: int
) -> list[frozenset[int]]:
    """Components of the tree on `vertices` once vertex w is cut out."""
    edges = [e for e in tree_edges if w not in e]
    return [frozenset(c) for c in components(nv, edges, vertices - {w})]


def _subset_search_fallback(g: MultiGraph, genus: int) -> BalancedSubset:
    """Direct search over interior subsets with optimal pendant inclusion.

    Including a pendant attached to the chosen interior set lowers the
    boundary by one; including an unattached pendant raises it by one, so
    the best H for a target boundary-vertex count is determined per
    interior subset.
    """
    degs = g.degrees()
    interior = [v for v in range(g.num_vertices) if degs[v] != 1]
    pendants = [v for v in range(g.num_vertices) if degs[v] == 1]
    if len(interior) > 20:
        raise ExpanderForgeError("fallback subset search limited to 20 interior")
    adj: dict[int, list[int]] = {p: [] for p in pendants}
    inner_edges = []
    for u, v in g.edges:
        if u == v:
            continue
        if degs[u] == 1:
            adj[u].append(v)
        elif degs[v] == 1:
            adj[v].append(u)
        else:
            inner_edges.append((u, v))
    n = len(pendants)
    c_lo = -(-n // 4)  # ceil(n/4)
    c_hi = n // 2
    for mask in range(1 << len(interior)):
        inside = {interior[i] for i in range(len(interior)) if (mask >> i) & 1}
        cut3 = sum(1 for u, v in inner_edges if (u in inside) != (v in inside))
        attached = [p for p in pendants if adj[p][0] in inside]
        outside = [p for p in pendants if adj[p][0] not in inside]
        p_att = len(attached)
        for c in range(c_lo, c_hi + 1):
            x = min(c, p_att)
            y = c - x
            bd = cut3 + (p_att - x) + y
            if bd <= genus + 1:
                h_set = frozenset(inside) | set(attached[:x]) | set(outside[:y])
                return BalancedSubset(
                    h_set=h_set, boundary_edges=bd, boundary_vertices_inside=c
                )
    raise ExpanderForgeError("no balanced subset found (should not happen)")


def balanced_boundary_subset(g: MultiGraph) -> BalancedSubset:
    """A subset H with |boundary(H)| <= g+1 and n/4 <= |H ∩ dG| <= n/2.

    Follows the tree-split descent: start from the two-tree split, keep the
    side holding more than half the boundary vertices, and repeatedly cut
    its spanning tree at the attachment vertex of a crossing edge, keeping
    the piece with at least half the current boundary count, until the
    window is hit.  Falls back to a direct subset search if no cut choice
    preserves the |boundary| <= g+1 invariant.
    """
    if not is_connected(g):
        raise ExpanderForgeError("requires a connected graph")
    n = g.n
    if n <= 1:
        raise ExpanderForgeError("needs n >= 2 (integer window empty)")
    genus = topology(g).genus
    boundary_set = set(g.boundary_indices())

    def bcount(vs) -> int:
        return len(boundary_set & vs)

    def make(vs: frozenset[int]) -> BalancedSubset:
        return BalancedSubset(
            h_set=vs,
            boundary_edges=boundary_size(g, vs),
            boundary_vertices_inside=bcount(vs),
        )

    split = two_tree_split(g)
    tree_edges = list(g.edges)
    for e in split.removed_edges:
        tree_edges.remove(e)

    for side in (split.side_a, split.side_b):
        c = bcount(side)
        if _in_window(c, n) and boundary_size(g, side) <= genus + 1:
            return make(side)

    sides = [split.side_a, split.side_b]
    sides.sort(key=bcount, reverse=True)
    h_cur = sides[0]
    if 2 * bcount(h_cur) <= n:
        return _subset_search_fallback(g, genus)
    tree_cur = [e for e in tree_edges if e[0] in h_cur and e[1] in h_cur]

    for _ in range(g.num_vertices):
        crossing = sorted(
            e for e in set(g.edges) if (e[0] in h_cur) != (e[1] in h_cur)
        )
        progressed = False
        for e in crossing:
            w = e[0] if e[0] in h_cur else e[1]
            comps = _tree_components_without(g.num_vertices, tree_cur, h_cur, w)
            comps.sort(key=lambda cset: (-bcount(cset), min(cset)))
            for cset in comps:
                c = bcount(cset)
                if _in_window(c, n) and boundary_size(g, cset) <= genus + 1:
                    return make(cset)
            for cset in comps:
                if 2 * bcount(cset) > n and boundary_size(g, cset) <= genus + 1:
                    h_cur = cset
                    tree_cur = [
                        te for te in tree_cur if te[0] in cset and te[1] in cset
                    ]
                    progressed = True
                    break
            if progressed:
                break
        if not progressed:
            return _subset_search_fallback(g, genus)
    return _subset_search_fallback(g, genus)


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

    Spine v_0..v_k plus hairs w_1..w_{k-1} hanging off v_1..v_{k-1}.  The
    root v_0 has degree 1 inside the fragment and becomes degree 3 once the
    fragment is planted on an edge.
    """
    if k < 1:
        raise ExpanderForgeError("k must be >= 1")
    names = tuple(f"v{i}" for i in range(k + 1)) + tuple(
        f"w{i}" for i in range(1, k)
    )
    roles = [INTERIOR] * (k + 1) + [BOUNDARY] * (k - 1)
    roles[k] = BOUNDARY  # v_k is a pendant of the planted tree
    roles[0] = INTERIOR
    edges = [(i, i + 1) for i in range(k)]
    edges += [(i, k + i) for i in range(1, k)]
    return MultiGraph(names=names, roles=tuple(roles), edges=tuple(edges))


def plant_trees(g: MultiGraph, k: int) -> MultiGraph:
    """Replace every edge of a connected 3-regular graph by a caterpillar
    copy whose root is joined to both former endpoints.

    On a base with 2m vertices the result has 2m + 6mk vertices, 3mk of
    them pendant, and topological genus m + 1.
    """
    degs = g.degrees()
    if any(d != 3 for d in degs):
        raise ExpanderForgeError("plant_trees requires a 3-regular base")
    if not is_connected(g):
        raise ExpanderForgeError("plant_trees requires a connected base")
    nv = g.num_vertices
    roles = [INTERIOR] * nv
    names = [f"b{i}" for i in range(nv)]
    edges: list[tuple[int, int]] = []
    for u1, u2 in g.edges:
        base = len(names)
        # fragment layout: spine v_0..v_k at base..base+k, hairs after
        names += [f"t{base}_{i}" for i in range(2 * k)]
        roles += [INTERIOR] * (k + 1) + [BOUNDARY] * (k - 1)
        roles[base + k] = BOUNDARY
        roles[base] = INTERIOR
        edges += [(base + i, base + i + 1) for i in range(k)]
        edges += [(base + i, base + k + i) for i in range(1, k)]
        edges.append((u1, base))
        edges.append((u2, base))
    return relabel_canonical(names, roles, edges)


def add_loops(g: MultiGraph, vs: list[int]) -> MultiGraph:
    """Add a loop at each listed degree-1 vertex, flipping it to interior."""
    degs = g.degrees()
    for v in vs:
        if degs[v] != 1:
            raise ExpanderForgeError(f"vertex {v} has degree {degs[v]}, not 1")
    if len(set(vs)) != len(vs):
        raise ExpanderForgeError("duplicate vertices in loop list")
    roles = list(g.roles)
    for v in vs:
        roles[v] = INTERIOR
    edges = list(g.edges) + [(v, v) for v in vs]
    return relabel_canonical(g.names, roles, edges)


def tree_planting_lower_bound(h_base: Fraction, k: int) -> Fraction:
    """Cheeger lower bound for the planted graph in terms of the base's."""
    return min(Fraction(1, 2 * k), h_base / (3 * k + 1 + k * h_base))


# --- family specification -----------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    """Target boundary-to-genus ratio theta and the derived tree depth k
    with theta <= 3k < theta + 3."""

    theta: Fraction
    k: int

    @classmethod
    def from_theta(cls, theta) -> "FamilySpec":
        theta = Fraction(theta) if not isinstance(theta, Fraction) else theta
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
        if self.exact_multiple:
            return 0
        val = ((3 * self.k - self.theta) * m - self.theta) / (1 + self.theta)
        return max(0, math.floor(val))

    def g_of(self, m: int) -> int:
        if self.exact_multiple:
            return m + 1
        return m + 1 + self.t(m)

    def n_of(self, m: int) -> int:
        return 3 * self.k * m - self.t(m)

    @property
    def loop_step_bound(self) -> Fraction:
        return 1 + (3 * self.k - self.theta) / (1 + self.theta)


# --- certified cubic bases ----------------------------------------------------


def theta_base() -> MultiGraph:
    return MultiGraph(
        names=("v1", "v2"),
        roles=(INTERIOR, INTERIOR),
        edges=((0, 1), (0, 1), (0, 1)),
    )


def k4_graph() -> MultiGraph:
    edges = tuple((i, j) for i in range(4) for j in range(i + 1, 4))
    return MultiGraph(
        names=tuple(f"v{i}" for i in range(1, 5)),
        roles=(INTERIOR,) * 4,
        edges=edges,
    )


def k33_graph() -> MultiGraph:
    edges = tuple((i, 3 + j) for i in range(3) for j in range(3))
    return MultiGraph(
        names=tuple(f"v{i}" for i in range(1, 7)),
        roles=(INTERIOR,) * 6,
        edges=edges,
    )


def cube_graph() -> MultiGraph:
    edges = []
    for v in range(8):
        for bit in (1, 2, 4):
            if v < v ^ bit:
                edges.append((v, v ^ bit))
    return MultiGraph(
        names=tuple(f"v{i}" for i in range(1, 9)),
        roles=(INTERIOR,) * 8,
        edges=tuple(edges),
    )


def petersen_graph() -> MultiGraph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))  # outer cycle
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
        edges.append((i, 5 + i))  # spokes
    return MultiGraph(
        names=tuple(f"v{i}" for i in range(1, 11)),
        roles=(INTERIOR,) * 10,
        edges=tuple(edges),
    )


def heawood_graph() -> MultiGraph:
    edges = [(i, (i + 1) % 14) for i in range(14)]
    edges += [(i, (i + 5) % 14) for i in range(0, 14, 2)]
    return MultiGraph(
        names=tuple(f"v{i}" for i in range(1, 15)),
        roles=(INTERIOR,) * 14,
        edges=tuple(sorted((min(u, v), max(u, v)) for u, v in edges)),
    )


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
    exact: bool


def default_base_provider(
    m: int, seed: int = 20240601, guard: int | None = None, max_attempts: int = 500
) -> CertifiedBase:
    """Connected 3-regular graph on 2m vertices with h >= 2/11.

    Named graphs (certified by exact search) for small m; otherwise random
    cubic samples, certified exactly while 2m fits the guard and screened
    by the sweep upper bound beyond it.
    """
    limit = resolve_guard(guard)
    if m in NAMED_BASES:
        g = NAMED_BASES[m]()
        h = cheeger_exact(g, guard=max(limit, 2 * m)).h
        if h >= BASE_CHEEGER_TARGET:
            return CertifiedBase(graph=g, h_bound=h, exact=True)
    cfg = SampleConfig(chi=2 * m, n=0, trials=max_attempts, seed=seed + m)
    for t in range(max_attempts):
        g = sample_graph(cfg, t)
        if not is_connected(g):
            continue
        if 2 * m <= limit:
            h = cheeger_exact(g, guard=limit).h
            if h >= BASE_CHEEGER_TARGET:
                return CertifiedBase(graph=g, h_bound=h, exact=True)
        else:
            up = cheeger_upper(g).h
            if up >= 2 * BASE_CHEEGER_TARGET:  # screen only: upper >= h
                return CertifiedBase(
                    graph=g, h_bound=BASE_CHEEGER_TARGET, exact=False
                )
    raise CertificationError(
        f"no cubic base on {2 * m} vertices certified h >= 2/11 "
        f"after {max_attempts} attempts"
    )


@dataclass(frozen=True)
class FamilyMember:
    graph: MultiGraph
    genus: int
    n: int
    chi: int
    h_lower: Fraction
    base_exact: bool


def expander_family(
    spec: FamilySpec,
    g: int,
    base_provider: Callable[[int], CertifiedBase] | None = None,
) -> FamilyMember:
    """The genus-g member of the family with n(g)/g -> theta.

    For g below the construction threshold the first connected member of
    F_{2g,2} under enumeration order is used; otherwise the certified base
    on 2m vertices is planted at depth k and t_m + (g - g_m) pendants get
    loops, lowest canonical id first.
    """
    if g < 1:
        raise ExpanderForgeError("genus must be >= 1")
    provider = base_provider or default_base_provider

    if not spec.exact_multiple and g < spec.g_of(spec.m0):
        member = _first_connected_member(2 * g, 2)
        return FamilyMember(
            graph=member, genus=g, n=2, chi=2 * g, h_lower=Fraction(0), base_exact=False
        )

    if spec.exact_multiple:
        m = g - 1
        if m < 1:
            member = _first_connected_member(2 * g, 2)
            return FamilyMember(
                graph=member, genus=g, n=2, chi=2 * g,
                h_lower=Fraction(0), base_exact=False,
            )
        loops = 0
    else:
        m = spec.m0
        while spec.g_of(m + 1) <= g:
            m += 1
        loops = spec.t(m) + (g - spec.g_of(m))

    base = provider(m)
    planted = plant_trees(base.graph, spec.k)
    if loops:
        pendants = [
            v for v in range(planted.num_vertices) if planted.roles[v] == BOUNDARY
        ]
        result = add_loops(planted, pendants[:loops])
    else:
        result = planted
    top = topology(result)
    if top.genus != g:
        raise ExpanderForgeError(
            f"constructed genus {top.genus} != requested {g} (internal error)"
        )
    return FamilyMember(
        graph=result,
        genus=g,
        n=result.n,
        chi=result.chi,
        h_lower=tree_planting_lower_bound(base.h_bound, spec.k),
        base_exact=base.exact,
    )


def _first_connected_member(chi: int, n: int) -> MultiGraph:
    from .graph_core import build_graph
    from .sampler import enumerate_family

    for p in enumerate_family(chi, n, guard=None):
        graph = build_graph(p)
        if is_connected(graph):
            return graph
    raise ExpanderForgeError(f"no connected member in F_{{{chi},{n}}}")
