"""Half-edge pairings, multigraphs and topological invariants.

The model: chi interior vertices v_1..v_chi carry half-edge labels
(3i-2, 3i-1, 3i); n boundary vertices w_1..w_n carry the single label
3*chi + j.  A pairing of all labels is *good* when every pair contains at
least one interior label, so no edge ever joins two boundary vertices.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import ExpanderForgeError, ParityError

if TYPE_CHECKING:
    import numpy as np

INTERIOR = "interior"
BOUNDARY = "boundary"


def exact_fraction(x) -> Fraction:
    """`x` as an exact rational; a float is read as its decimal literal
    (0.4 is 2/5, not the binary value of the float)."""
    return Fraction(repr(x)) if isinstance(x, float) else Fraction(x)


def check_parity(chi: int, n: int) -> None:
    """Raise ParityError unless 3*chi - n is a non-negative even integer."""
    if chi < 1 or n < 0:
        raise ParityError(f"need chi >= 1 and n >= 0, got chi={chi}, n={n}")
    if 3 * chi - n < 0 or (3 * chi - n) % 2 != 0:
        raise ParityError(
            f"3*chi - n = {3 * chi - n} must be a non-negative even integer"
        )


@dataclass(frozen=True)
class HalfEdgePairing:
    """A good partition: fixed-point-free involution on {1..3*chi+n}."""

    chi: int
    n: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        canon = tuple(sorted((min(i, j), max(i, j)) for i, j in self.pairs))
        object.__setattr__(self, "pairs", canon)
        if not validate_partition(self.chi, self.n, self.pairs):
            raise ExpanderForgeError("pairs do not form a good partition")


def validate_partition(
    chi: int, n: int, pairs: Iterable[tuple[int, int]]
) -> bool:
    """True iff `pairs` is a fixed-point-free involution covering
    {1..3*chi+n} in which every pair contains an interior label (<= 3*chi).

    Raises ParityError when 3*chi - n is negative or odd; any other defect
    just yields False.
    """
    check_parity(chi, n)
    total = 3 * chi + n
    seen: set[int] = set()
    for i, j in pairs:
        if i == j:
            return False
        if not (1 <= i <= total and 1 <= j <= total):
            return False
        if i in seen or j in seen:
            return False
        seen.add(i)
        seen.add(j)
        if min(i, j) > 3 * chi:
            return False
    return len(seen) == total


@dataclass(frozen=True)
class MultiGraph:
    """Immutable multigraph of the model: chi interior vertices v1..vchi
    (indices 0..chi-1), then n boundary vertices w1..wn (chi..chi+n-1).

    Edges are stored as index pairs (u, v) with u <= v; loops (u, u) are
    allowed and a loop contributes 2 to its vertex degree but 1 to |E|.
    Parallel edges appear with repetition.
    """

    chi: int
    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.chi < 0 or self.n < 0:
            raise ExpanderForgeError(f"need chi, n >= 0, got {self.chi}, {self.n}")
        nv = self.chi + self.n
        canon = tuple(sorted((min(u, v), max(u, v)) for u, v in self.edges))
        for u, v in canon:
            if not (0 <= u < nv and 0 <= v < nv):
                raise ExpanderForgeError(f"edge ({u},{v}) out of range")
        object.__setattr__(self, "edges", canon)

    # cached: callers index these once per vertex
    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(_vertex_name(self.chi, v) for v in range(self.num_vertices))

    @cached_property
    def roles(self) -> tuple[str, ...]:
        return (INTERIOR,) * self.chi + (BOUNDARY,) * self.n

    # cached: each layer asks for connectivity, and the graph cannot change
    @cached_property
    def components(self) -> tuple[frozenset[int], ...]:
        """The connected components, sorted by least member."""
        return tuple(map(frozenset, components(self.num_vertices, self.edges)))

    @property
    def num_vertices(self) -> int:
        return self.chi + self.n

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.num_vertices
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1  # a loop hits the same entry twice
        return deg

    def boundary_indices(self) -> range:
        return range(self.chi, self.chi + self.n)


@dataclass(frozen=True)
class Topology:
    components: int
    euler_char: int
    genus: int


@dataclass(frozen=True)
class GraphBlock:
    """k model graphs of one size, chi interior and n boundary vertices
    each, numbered as in MultiGraph: edges is a (k, E, 2) integer array of
    vertex index pairs, in any order, graph by graph.  The spectra and the
    exact Cheeger search take a block where they take a MultiGraph, to
    work on its k graphs at once."""

    chi: int
    n: int
    edges: np.ndarray

    @property
    def num_vertices(self) -> int:
        return self.chi + self.n


def label_owners(chi: int, n: int) -> list[int]:
    """The vertex index that owns each half-edge label 1..3*chi+n, at
    position label - 1.  Interior vertex v_i owns labels (3i-2, 3i-1, 3i)
    and boundary vertex w_j owns label 3*chi + j, so label l <= 3*chi goes
    to index (l - 1) // 3, and label l > 3*chi to index l - 2*chi - 1
    (interior vertices first, then boundary)."""
    return [v for v in range(chi) for _ in range(3)] + list(range(chi, chi + n))


def build_graph(p: HalfEdgePairing) -> MultiGraph:
    """Glue the half-edges of a good partition into a multigraph: each
    pair joins the owners (label_owners) of its two labels, so an interior
    vertex ends up with degree 3 and a boundary vertex with degree 1."""
    owner = label_owners(p.chi, p.n)
    edges = [(owner[i - 1], owner[j - 1]) for i, j in p.pairs]
    return MultiGraph(chi=p.chi, n=p.n, edges=edges)


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a: int, b: int) -> bool:
        """Join the sets of a and b; False if they were already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def components(
    nv: int, edges: Iterable[Sequence[int]], vertices: Iterable[int] | None = None
) -> list[set[int]]:
    """Connected components of `vertices` (default: all of 0..nv-1) joined
    along `edges`, whose ends must lie in `vertices`; sorted by least member."""
    uf = _UnionFind(nv)
    for u, v in edges:
        uf.union(u, v)
    comps: dict[int, set[int]] = {}
    for v in range(nv) if vertices is None else vertices:
        comps.setdefault(uf.find(v), set()).add(v)
    return sorted(comps.values(), key=min)


def spanning_forest(
    nv: int, edges: Iterable[tuple[int, int]]
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Kruskal's algorithm in the given edge order: the edges it keeps and
    the edges (loops included) that would close a cycle, each in input order."""
    uf = _UnionFind(nv)
    kept: list[tuple[int, int]] = []
    closing: list[tuple[int, int]] = []
    for e in edges:
        (kept if uf.union(*e) else closing).append(e)
    return kept, closing


def boundary_size(g: MultiGraph, subset: set[int] | frozenset[int]) -> int:
    """|edges leaving subset| with multiplicity; loops never count."""
    s = 0
    for u, v in g.edges:
        if u != v and (u in subset) != (v in subset):
            s += 1
    return s


def connected_components(g: MultiGraph) -> list[set[int]]:
    """Partition of vertex indices into maximal connected sets (fresh sets,
    free to mutate)."""
    return [set(c) for c in g.components]


def is_connected(g: MultiGraph) -> bool:
    return len(g.components) <= 1


def _vertex_name(chi: int, v: int) -> str:
    """The id of vertex index v in a graph with chi interior vertices."""
    return f"v{v + 1}" if v < chi else f"w{v - chi + 1}"


def topology(g: MultiGraph) -> Topology:
    """Component count, Euler characteristic |V| - |E| and genus
    (chi - n)/2 + 1 of a model graph: an interior vertex at least, no edge
    between two boundary vertices, interior degrees 3 (a loop counts 2) and
    boundary degrees 1.  ExpanderForgeError names the first edge or vertex
    that breaks the rule.  O(|E|) work whatever chi + n is: when chi + n >
    2|E|, one of the first 2|E| + 1 vertices has degree 0 and stops the scan.
    """
    chi, nv = g.chi, g.num_vertices
    if not chi:
        raise ExpanderForgeError("a model graph needs an interior vertex, got chi = 0")
    i = bisect_left(g.edges, (chi,))  # edges sort by u <= v: the first boundary u
    if i < len(g.edges):
        u, v = g.edges[i]
        raise ExpanderForgeError(
            f"edge {_vertex_name(chi, u)} {_vertex_name(chi, v)} joins two boundary vertices"
        )
    degree = Counter(chain.from_iterable(g.edges))  # over the edge ends alone
    for v in range(nv):
        want = 3 if v < chi else 1
        if degree[v] != want:
            raise ExpanderForgeError(
                f"{INTERIOR if v < chi else BOUNDARY} vertex {_vertex_name(chi, v)}"
                f" has degree {degree[v]}, not {want}"
            )
    return Topology(len(g.components), nv - g.num_edges, genus(chi, g.n))


def genus(chi: int, n: int) -> int:
    """The genus (chi - n)/2 + 1 that topology reports for a model graph
    with chi interior and n boundary vertices: it depends on them alone."""
    return (chi - n) // 2 + 1


# --- text format ------------------------------------------------------------
#
# One record per line.  Header `G <chi> <n>`, then one `E <u> <v>` line per
# edge with vertex ids v1..vchi, w1..wn; loops are written `E u u`.


def to_text(g: MultiGraph) -> str:
    lines = [f"G {g.chi} {g.n}"]
    for u, v in g.edges:
        lines.append(f"E {g.names[u]} {g.names[v]}")
    return "\n".join(lines) + "\n"


def _vertex_index(name: str, chi: int, n: int) -> int:
    """The index of vertex id `name`: v<i> is i - 1 and w<j> is chi + j - 1,
    for exactly the ids _vertex_name writes (ASCII digits, no leading
    zero, 1 <= i <= chi, 1 <= j <= n); ValueError for any other."""
    digits = name[1:]
    if digits.isascii() and digits.isdigit() and digits[0] != "0":
        i = int(digits)  # ValueError past int's digit limit too
        if name[0] == "v" and i <= chi:
            return i - 1
        if name[0] == "w" and i <= n:
            return chi + i - 1
    raise ValueError(name)


def from_text(text: str) -> MultiGraph:
    """The graph of a text file.  Vertex ids are read by arithmetic, so the
    header's counts size no work; a malformed record's error names its line
    in the text, blank lines included."""
    lines = enumerate(map(str.strip, text.splitlines()), 1)
    header = next((ln for _, ln in lines if ln), "").split()
    try:
        # ASCII digits only: int() also reads other scripts' digits
        if len(header) != 3 or header[0] != "G" or not all(
            f.isascii() and f.isdigit() for f in header[1:]
        ):
            raise ValueError
        chi, n = int(header[1]), int(header[2])  # ValueError past the digit limit
    except ValueError:
        raise ExpanderForgeError(
            f"expected a `G <chi> <n>` header, got {' '.join(header)!r}"
        ) from None
    edges = []
    for k, ln in lines:
        parts = ln.split()
        if not parts:
            continue
        if parts[0] != "E" or len(parts) != 3:
            raise ExpanderForgeError(f"line {k}: bad edge record: {ln!r}")
        try:
            edges.append((_vertex_index(parts[1], chi, n), _vertex_index(parts[2], chi, n)))
        except ValueError:
            raise ExpanderForgeError(f"line {k}: unknown vertex id in {ln!r}") from None
    return MultiGraph(chi=chi, n=n, edges=tuple(edges))


def relabel_canonical(
    roles: Sequence[str], edges: Iterable[tuple[int, int]]
) -> MultiGraph:
    """Rename vertices to the canonical v1..vchi, w1..wn scheme, keeping
    interior vertices in their original relative order, then boundary."""
    order = [i for i, r in enumerate(roles) if r == INTERIOR] + [
        i for i, r in enumerate(roles) if r == BOUNDARY
    ]
    new_index = {old: new for new, old in enumerate(order)}
    chi = sum(1 for r in roles if r == INTERIOR)
    return MultiGraph(
        chi=chi,
        n=len(order) - chi,
        edges=tuple((new_index[u], new_index[v]) for u, v in edges),
    )
