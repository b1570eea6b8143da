import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expander_forge.errors import ExpanderForgeError, ParityError
from expander_forge.graph_core import (
    BOUNDARY,
    INTERIOR,
    HalfEdgePairing,
    MultiGraph,
    build_graph,
    connected_components,
    from_text,
    is_connected,
    relabel_canonical,
    to_text,
    topology,
    validate_partition,
)
from expander_forge.sampler import (
    SampleConfig,
    enumerate_family,
    sample_graph,
    sample_partition,
)


STAR = HalfEdgePairing(chi=1, n=3, pairs=((1, 4), (2, 5), (3, 6)))
LOOP_PENDANT = HalfEdgePairing(chi=1, n=1, pairs=((1, 4), (2, 3)))
THETA = HalfEdgePairing(chi=2, n=0, pairs=((1, 4), (2, 5), (3, 6)))


def test_validate_partition_good():
    assert validate_partition(1, 3, [(1, 4), (2, 5), (3, 6)])


def test_validate_partition_boundary_boundary_pair():
    assert not validate_partition(1, 3, [(4, 5), (1, 2), (3, 6)])


def test_validate_partition_parity_error():
    with pytest.raises(ParityError):
        validate_partition(1, 2, [(1, 2)])
    with pytest.raises(ParityError):
        HalfEdgePairing(chi=1, n=2, pairs=((1, 2),))
    with pytest.raises(ParityError):
        next(enumerate_family(1, 2))


def test_validate_partition_defects():
    assert not validate_partition(1, 3, [(1, 1), (2, 5), (3, 6)])  # fixed point
    assert not validate_partition(1, 3, [(1, 4), (1, 5), (3, 6)])  # repeat
    assert not validate_partition(1, 3, [(1, 4), (2, 5)])  # not covering
    assert not validate_partition(1, 3, [(1, 7), (2, 5), (3, 6)])  # range


def test_pairing_rejects_bad_pairs():
    with pytest.raises(ExpanderForgeError):
        HalfEdgePairing(chi=1, n=3, pairs=((4, 5), (1, 2), (3, 6)))


def test_build_graph_star():
    g = build_graph(STAR)
    assert g.names == ("v1", "w1", "w2", "w3")
    assert g.roles == (INTERIOR, BOUNDARY, BOUNDARY, BOUNDARY)
    assert sorted(g.edges) == [(0, 1), (0, 2), (0, 3)]
    assert g.degrees() == [3, 1, 1, 1]


def test_multigraph_views_and_checks():
    g = build_graph(STAR)
    assert (g.chi, g.n, g.num_vertices) == (1, 3, 4)
    assert list(g.boundary_indices()) == [1, 2, 3]
    assert g.names is g.names and g.roles is g.roles  # cached, built once
    with pytest.raises(ExpanderForgeError):
        MultiGraph(chi=-1, n=2, edges=())
    with pytest.raises(ExpanderForgeError):
        MultiGraph(chi=1, n=0, edges=((0, 1),))


def test_build_graph_loop_pendant():
    g = build_graph(LOOP_PENDANT)
    assert g.edges == ((0, 0), (0, 1))
    assert g.degrees() == [3, 1]  # loop counts 2
    assert g.num_edges == 2


def test_build_graph_theta():
    g = build_graph(THETA)
    assert g.edges == ((0, 1), (0, 1), (0, 1))
    assert g.degrees() == [3, 3]


def test_connected_components():
    star = build_graph(STAR)
    assert connected_components(star) == [{0, 1, 2, 3}]
    iso = MultiGraph(chi=2, n=0, edges=())
    assert connected_components(iso) == [{0}, {1}]
    assert is_connected(build_graph(THETA))


def test_connected_components_are_fresh_per_call():
    iso = MultiGraph(chi=2, n=0, edges=())
    first = connected_components(iso)
    first[0].add(1)
    first.append({7})
    assert connected_components(iso) == [{0}, {1}]
    assert not is_connected(iso)
    two = MultiGraph(chi=2, n=2, edges=[(0, 0), (0, 2), (1, 1), (1, 3)])
    connected_components(two)[0].clear()
    assert topology(two).components == 2
    assert connected_components(two) == [{0, 2}, {1, 3}]


def test_topology_examples():
    t = topology(build_graph(STAR))
    assert (t.components, t.euler_char, t.genus) == (1, 1, 0)
    t = topology(build_graph(THETA))
    assert (t.components, t.euler_char, t.genus) == (1, -1, 2)
    t = topology(build_graph(LOOP_PENDANT))
    assert (t.components, t.euler_char, t.genus) == (1, 0, 1)


def test_topology_rejects_bad_degrees():
    g = MultiGraph(chi=2, n=0, edges=((0, 1), (0, 1)))
    with pytest.raises(ExpanderForgeError):
        topology(g)  # both vertices have degree 2


@pytest.mark.parametrize(
    "g,error",
    [
        (MultiGraph(chi=0, n=2, edges=((0, 1),)),
         "a model graph needs an interior vertex, got chi = 0"),
        (MultiGraph(chi=1, n=3, edges=((0, 0), (0, 1), (2, 3))),
         "edge w2 w3 joins two boundary vertices"),
        # K_{3,3} with one side named boundary: every degree is 3
        (MultiGraph(chi=3, n=3, edges=[(i, 3 + j) for i in range(3) for j in range(3)]),
         "boundary vertex w1 has degree 3, not 1"),
        # header counts far beyond the edges: the scan stops at the first
        # vertex of degree 0, which a list of all degrees would never reach
        (MultiGraph(chi=10**12, n=0, edges=((0, 1),)),
         "interior vertex v1 has degree 1, not 3"),
        (MultiGraph(chi=1, n=10**12, edges=((0, 0), (0, 1))),
         "boundary vertex w2 has degree 0, not 1"),
    ],
)
def test_topology_names_the_first_offender(g, error):
    with pytest.raises(ExpanderForgeError) as err:
        topology(g)
    assert str(err.value) == error


def _label_map(labels: np.ndarray, chi: int) -> np.ndarray:
    """Reference for build_graph: the owning vertex of each half-edge label,
    elementwise over an array."""
    return np.where(labels <= 3 * chi, (labels - 1) // 3, labels - 2 * chi - 1)


@pytest.mark.parametrize(
    "chi,n", [(1, 1), (1, 3), (2, 0), (2, 2), (3, 1), (3, 3), (400, 20), (1500, 38)]
)
def test_euler_genus_over_enumeration(chi, n):
    # every member of the small families; three samples of the large ones
    cfg = SampleConfig(chi=chi, n=n, trials=3, seed=1)
    members = (
        enumerate_family(chi, n) if chi <= 3
        else (sample_partition(cfg, t) for t in range(cfg.trials))
    )
    for p in members:
        g = build_graph(p)
        edges = _label_map(np.array(p.pairs), chi).tolist()
        assert g == MultiGraph(chi=chi, n=n, edges=edges)
        degs = g.degrees()
        assert sum(1 for d in degs if d == 3) == chi
        assert sum(1 for d in degs if d == 1) == n
        for u, v in g.edges:
            assert not (g.roles[u] == BOUNDARY and g.roles[v] == BOUNDARY)
        if is_connected(g):
            t = topology(g)
            assert t.euler_char == 1 - t.genus
            assert t.genus == (chi - n) // 2 + 1


def test_text_round_trip():
    for p in (STAR, LOOP_PENDANT, THETA):
        g = build_graph(p)
        assert from_text(to_text(g)) == g


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    chi=st.integers(1, 60),
    n=st.integers(0, 60),
    seed=st.integers(0, 2**32 - 1),
    text=st.tuples(
        st.sampled_from(["", "G 1 1\n", "G 2 0\n", "G 3 3\n"]),
        st.text(alphabet="GEvw0123456789 \t\r\n", max_size=40),
    ).map("".join),
)
def test_text_round_trip_and_malformed_text(chi, n, seed, text):
    n = min(n, 3 * chi)
    n += (3 * chi - n) % 2  # 3*chi - n even
    g = sample_graph(SampleConfig(chi=chi, n=n, trials=1, seed=seed), 0)
    assert from_text(to_text(g)) == g
    # any text either reads as a graph that round-trips, or raises
    # ExpanderForgeError alone
    try:
        h = from_text(text)
    except ExpanderForgeError:
        return
    assert from_text(to_text(h)) == h


def test_text_format_shape():
    text = to_text(build_graph(LOOP_PENDANT))
    lines = text.strip().splitlines()
    assert lines[0] == "G 1 1"
    assert "E v1 v1" in lines and "E v1 w1" in lines


def test_from_text_errors():
    with pytest.raises(ExpanderForgeError):
        from_text("X 1 1\n")
    with pytest.raises(ExpanderForgeError):
        from_text("G 1 1\nE v1 z9\n")
    for text, got in (("G 2\n", "'G 2'"), ("G a b\n", "'G a b'"), ("", "''"),
                      ("G 1 -1\n", "'G 1 -1'"), ("G 1 1 1\n", "'G 1 1 1'")):
        with pytest.raises(ExpanderForgeError) as err:
            from_text(text)
        assert str(err.value) == f"expected a `G <chi> <n>` header, got {got}"


@pytest.mark.parametrize(
    "header",
    ["G \u0662 0", "G 2 \u0660", "G \uff12 0",
     pytest.param("G " + "9" * 5000 + " 0", id="chi-5000-digits"),
     pytest.param("G 2 " + "9" * 4301, id="n-4301-digits")],
)
def test_from_text_header_reads_ascii_counts_only(header):
    # counts are ASCII digits, as to_text writes them: an Arabic-Indic or
    # fullwidth 2 is no count, nor is one past int's digit limit
    with pytest.raises(ExpanderForgeError) as err:
        from_text(f"{header}\nE v1 v1\nE v1 v2\nE v2 v2\n")
    assert str(err.value) == f"expected a `G <chi> <n>` header, got {header!r}"


def test_relabel_canonical_reorders_roles():
    g = relabel_canonical(
        [BOUNDARY, INTERIOR, INTERIOR],
        [(0, 1), (1, 2), (1, 2), (2, 2)],
    )
    assert g.names == ("v1", "v2", "w1")
    assert g.roles == (INTERIOR, INTERIOR, BOUNDARY)
    assert sorted(g.edges) == [(0, 1), (0, 1), (0, 2), (1, 1)]


@pytest.mark.parametrize(
    "name",
    ["v0", "v01", "v3", "w1", "v", "v+1", "w0", "x1", "V1", "v\u0661",
     pytest.param("v" + "9" * 5000, id="v-5000-digits")],
)
def test_from_text_reads_only_the_ids_to_text_writes(name):
    # ids are read by arithmetic: v1..v2 and no w, exactly as to_text writes
    # them, with no leading zero and no digit other than ASCII
    with pytest.raises(ExpanderForgeError, match="^line 2: unknown vertex id in "):
        from_text(f"G 2 0\nE v1 {name}\n")

