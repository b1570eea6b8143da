import random
from fractions import Fraction

import pytest

from expander_forge import construct
from expander_forge.cheeger import (
    CheegerCertificate,
    boundary_size,
    cheeger_exact,
    cheeger_upper,
)
from expander_forge.construct import (
    BASE_CHEEGER_TARGET,
    _first_connected_member,
    TreeSplit,
    FamilySpec,
    add_loops,
    balanced_boundary_subset,
    build_Tk,
    cube_graph,
    default_base_provider,
    expander_family,
    heawood_graph,
    k33_graph,
    k4_graph,
    petersen_graph,
    plant_trees,
    steklov_test_function,
    theta_base,
    tree_planting_lower_bound,
    two_tree_split,
)
from expander_forge.errors import DEFAULT_GUARD, CertificationError, ExpanderForgeError
from expander_forge.graph_core import (
    BOUNDARY,
    HalfEdgePairing,
    MultiGraph,
    build_graph,
    components,
    is_connected,
    topology,
)
from expander_forge.sampler import SampleConfig, enumerate_family, sample_graph
from expander_forge.spectra import rayleigh_quotient, steklov_spectrum

STAR = build_graph(HalfEdgePairing(chi=1, n=3, pairs=((1, 4), (2, 5), (3, 6))))
LOOP_PENDANT = build_graph(HalfEdgePairing(chi=1, n=1, pairs=((1, 4), (2, 3))))


def _sides_are_trees(g, split):
    removed = list(split.removed_edges)
    remaining = list(g.edges)
    for e in removed:
        remaining.remove(e)
    for side in (split.side_a, split.side_b):
        inner = [e for e in remaining if e[0] in side and e[1] in side]
        assert len(inner) == len(side) - 1  # |E| = |V| - 1
        idx = {v: i for i, v in enumerate(sorted(side))}
        assert all(u != v for u, v in inner)
        assert len(components(len(side), [(idx[u], idx[v]) for u, v in inner])) == 1
    assert not [
        e for e in remaining if (e[0] in split.side_a) != (e[1] in split.side_a)
    ]


def _split_by_retesting(g):
    """Reference two-tree split: each round removes the smallest edge whose
    removal keeps the graph connected, retesting connectivity per edge."""

    def connected(edges):
        return len(components(g.num_vertices, edges)) == 1

    edges = list(g.edges)
    removed = []
    for _ in range(len(edges) - g.num_vertices + 1):
        for e in sorted(set(edges)):
            trial = list(edges)
            trial.remove(e)
            if connected(trial):
                edges = trial
                removed.append(e)
                break
    final = min(edges)
    edges.remove(final)
    removed.append(final)
    a, b = components(g.num_vertices, edges)
    return TreeSplit(tuple(removed), frozenset(a), frozenset(b), frozenset(edges))


def _random_connected_multigraphs(count, seed):
    """Connected multigraphs on 2..12 vertices with loops and parallel edges."""
    rnd = random.Random(seed)
    out = []
    while len(out) < count:
        nv = rnd.randint(2, 12)
        edges = [
            (rnd.randrange(nv), rnd.randrange(nv))
            for _ in range(rnd.randint(nv - 1, 3 * nv))
        ]
        edges += [rnd.choice(edges) for _ in range(rnd.randint(0, 3))]
        g = MultiGraph(chi=nv, n=0, edges=tuple(edges))
        if is_connected(g):
            out.append(g)
    return out


def test_split_star():
    split = two_tree_split(STAR)
    assert len(split.removed_edges) == 1  # g = 0
    assert sorted(map(len, (split.side_a, split.side_b))) == [1, 3]


def test_split_theta():
    split = two_tree_split(theta_base())
    assert len(split.removed_edges) == 3  # g = 2
    assert len(split.side_a) == len(split.side_b) == 1


def test_split_loop_pendant():
    split = two_tree_split(LOOP_PENDANT)
    assert split.removed_edges == ((0, 0), (0, 1))  # loop first, then bridge


def test_split_rejects_disconnected():
    from expander_forge.graph_core import MultiGraph

    g = MultiGraph(chi=2, n=0, edges=())
    with pytest.raises(ExpanderForgeError):
        two_tree_split(g)


def _connected_samples(combos, trials, seed):
    out = []
    for chi, n in combos:
        cfg = SampleConfig(chi=chi, n=n, trials=trials, seed=seed)
        for t in range(trials):
            g = sample_graph(cfg, t)
            if is_connected(g):
                out.append(g)
    return out


SAMPLES = _connected_samples(
    [(3, 3), (4, 2), (5, 5), (6, 4), (7, 3), (8, 6), (4, 6), (8, 2)],
    trials=110,
    seed=11,
)


def test_split_invariants_on_samples():
    assert len(SAMPLES) >= 500
    for g in SAMPLES[:500]:
        genus = topology(g).genus
        split = two_tree_split(g)
        assert len(split.removed_edges) == genus + 1
        assert split.side_a | split.side_b == set(range(g.num_vertices))
        assert not (split.side_a & split.side_b)
        _sides_are_trees(g, split)


def test_split_matches_retesting_reference():
    planted = [
        plant_trees(base(), k)
        for base in (theta_base, k4_graph, k33_graph, petersen_graph)
        for k in (1, 2, 3)
    ]
    graphs = SAMPLES + planted + _random_connected_multigraphs(300, seed=3)
    assert any(u == v for g in graphs for u, v in g.edges)  # loops
    assert any(len(set(g.edges)) < g.num_edges for g in graphs)  # parallels
    for g in graphs:
        assert two_tree_split(g) == _split_by_retesting(g)


def test_balanced_subset_invariants_on_samples():
    # genus-0 draws leave |dH| <= 1, which no set of pendants alone meets
    trees = _connected_samples([(4, 6), (5, 7), (6, 8), (7, 9)], trials=40, seed=5)
    assert trees
    for g in SAMPLES[:500] + trees:
        if g.n < 2:
            continue
        genus = topology(g).genus
        bal = balanced_boundary_subset(g)
        assert bal.boundary_edges <= genus + 1
        assert boundary_size(g, bal.h_set) == bal.boundary_edges
        c = bal.boundary_vertices_inside
        assert g.n <= 4 * c and 2 * c <= g.n
        inside_boundary = sum(
            1 for v in bal.h_set if g.roles[v] == BOUNDARY
        )
        assert inside_boundary == c


def test_balanced_subset_star():
    bal = balanced_boundary_subset(STAR)
    assert bal.boundary_edges <= 1
    assert bal.boundary_vertices_inside == 1


def test_balanced_subset_needs_two_boundary_vertices():
    with pytest.raises(ExpanderForgeError):
        balanced_boundary_subset(LOOP_PENDANT)
    # n >= 2 is not enough: two stars, n = 6, are not connected
    two_stars = MultiGraph(
        chi=2, n=6, edges=((0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7))
    )
    with pytest.raises(ExpanderForgeError):
        balanced_boundary_subset(two_stars)


def test_test_function_star():
    bal = balanced_boundary_subset(STAR)
    f, rq = steklov_test_function(STAR, bal)
    assert sum(f[v] for v in STAR.boundary_indices()) == 0
    assert rq == Fraction(3, 2)
    assert rq <= Fraction(16 * (0 + 1), 3 * 3)
    # the rational value agrees with the float Rayleigh quotient
    assert abs(rayleigh_quotient(STAR, [float(x) for x in f]) - 1.5) < 1e-12


def test_test_function_bounds_on_samples():
    for g in SAMPLES[:200]:
        if g.n < 2:
            continue
        genus = topology(g).genus
        bal = balanced_boundary_subset(g)
        f, rq = steklov_test_function(g, bal)
        assert sum(f[v] for v in g.boundary_indices()) == 0
        assert rq <= Fraction(16 * (genus + 1), 3 * g.n)
        sigma1 = steklov_spectrum(g)[1]
        assert sigma1 <= float(rq) + 1e-9


def test_test_function_half_split_value():
    # c = n/2 exactly: R(f) = |dH| * 4 / n
    for g in SAMPLES[:200]:
        if g.n < 2 or g.n % 2:
            continue
        bal = balanced_boundary_subset(g)
        if 2 * bal.boundary_vertices_inside != g.n:
            continue
        _, rq = steklov_test_function(g, bal)
        assert rq == Fraction(4 * bal.boundary_edges, g.n)
        break


def test_build_Tk_shapes():
    t1 = build_Tk(1)
    assert t1.num_vertices == 2 and t1.edges == ((0, 1),)
    t2 = build_Tk(2)
    assert t2.num_vertices == 4
    assert sorted(t2.edges) == [(0, 1), (1, 2), (1, 3)]
    for k in range(1, 6):
        tk = build_Tk(k)
        assert tk.num_vertices == 2 * k
        assert tk.num_edges == 2 * k - 1
        degs = tk.degrees()
        assert degs[0] == 1  # root
        assert sum(1 for d in degs[1:] if d == 1) == k
    with pytest.raises(ExpanderForgeError):
        build_Tk(0)


def test_plant_trees_k4():
    p1 = plant_trees(k4_graph(), 1)
    assert p1.num_vertices == 16
    assert p1.n == 6 and p1.chi == 10
    assert topology(p1).genus == 3
    assert is_connected(p1)
    p2 = plant_trees(k4_graph(), 2)
    assert p2.num_vertices == 28 and p2.n == 12


def test_plant_trees_requires_cubic():
    with pytest.raises(ExpanderForgeError):
        plant_trees(STAR, 1)


def test_plant_trees_handles_loops_and_multiedges():
    g = build_graph(HalfEdgePairing(chi=2, n=0, pairs=((1, 2), (3, 4), (5, 6))))
    assert (0, 0) in g.edges  # dumbbell: loop + bridge + loop
    planted = plant_trees(g, 1)
    assert is_connected(planted)
    assert topology(planted).genus == 2  # m = 1 (two base vertices)


def test_lemma_bound_k4_exact():
    h_k4 = cheeger_exact(k4_graph()).h
    assert h_k4 == 2
    p1 = plant_trees(k4_graph(), 1)
    bound = tree_planting_lower_bound(h_k4, 1)
    assert bound == Fraction(1, 3)
    assert cheeger_exact(p1).h >= bound


def test_lemma_bound_k4_k2_exact_28_vertices():
    p2 = plant_trees(k4_graph(), 2)
    bound = tree_planting_lower_bound(Fraction(2), 2)
    assert bound == Fraction(2, 11)
    assert cheeger_exact(p2, guard=28).h >= bound


@pytest.mark.parametrize(
    "base,name", [(k4_graph, "k4"), (k33_graph, "k33"), (petersen_graph, "petersen")]
)
@pytest.mark.parametrize("k", [1, 2])
def test_lemma_bound_numeric(base, name, k):
    g = base()
    h = cheeger_exact(g).h
    planted = plant_trees(g, k)
    bound = tree_planting_lower_bound(h, k)
    if planted.num_vertices <= 28:
        assert cheeger_exact(planted, guard=28).h >= bound
    else:
        # necessary condition only: any upper bound must clear the certified
        # lower bound
        assert cheeger_upper(planted).h >= bound


# members of at most 48 vertices; vertex counts grow with the genus
LEMMA_MEMBERS = {"2": 8, "5/2": 7, "3": 7, "6": 4}
# where the lemma is tight: k = 1 on the sampled 12-vertex base (h = 1/5)
# gives h = h_lower = 1/21 on 48 vertices
LEMMA_TIGHT = {"2": [8], "5/2": [7], "3": [7], "6": []}


@pytest.mark.parametrize("theta", sorted(LEMMA_MEMBERS))
def test_lemma_bound_on_every_member_the_mask_holds(theta):
    spec = FamilySpec.from_theta(theta)
    hs, g = {}, 1
    member = expander_family(spec, g)
    while member.graph.num_vertices <= 48:
        h = cheeger_exact(member.graph, guard=48).h
        hs[g] = h, member.h_lower, member.graph.num_vertices
        g += 1
        member = expander_family(spec, g)
    assert len(hs) == LEMMA_MEMBERS[theta]
    assert all(h >= h_lower for h, h_lower, _ in hs.values())
    assert [g for g, (h, h_lower, _) in hs.items() if h == h_lower] == LEMMA_TIGHT[theta]
    for g in LEMMA_TIGHT[theta]:
        assert hs[g] == (Fraction(1, 21), Fraction(1, 21), 48)


def test_named_bases_are_cubic_expanders():
    for builder, h_expect in [
        (theta_base, Fraction(3)),
        (k4_graph, Fraction(2)),
        (k33_graph, Fraction(5, 3)),
        (cube_graph, Fraction(1)),
        (petersen_graph, Fraction(1)),
        (heawood_graph, None),
    ]:
        g = builder()
        assert all(d == 3 for d in g.degrees())
        assert is_connected(g)
        h = cheeger_exact(g).h
        if h_expect is not None:
            assert h == h_expect
        assert h >= BASE_CHEEGER_TARGET


def test_add_loops():
    leaf = STAR.boundary_indices()[0]
    g = add_loops(STAR, [leaf])
    assert g.chi == 2 and g.n == 2
    assert topology(g).genus == 1
    degs = g.degrees()
    assert sorted(degs) == [1, 1, 3, 3]


def test_add_loops_identity_and_errors():
    assert add_loops(STAR, []).edges == STAR.edges
    with pytest.raises(ExpanderForgeError):
        add_loops(STAR, [0])  # interior vertex
    with pytest.raises(ExpanderForgeError):
        add_loops(STAR, [1, 1])  # duplicate


def test_family_spec_theta3():
    spec = FamilySpec.from_theta(3)
    assert spec.k == 1 and spec.exact_multiple
    for g in range(2, 8):
        member = expander_family(spec, g)
        assert topology(member.graph).genus == g
        assert member.graph.n == 3 * (g - 1)
        assert member.graph.chi == 2 * g - 2 + member.graph.n


def test_family_spec_theta1():
    spec = FamilySpec.from_theta(1)
    assert spec.k == 1 and not spec.exact_multiple
    assert spec.m0 == 1
    prev = None
    for g in range(2, 13):
        member = expander_family(spec, g)
        top = topology(member.graph)
        assert top.genus == g and top.components == 1
        assert member.graph.chi == 2 * g - 2 + member.graph.n
        dev = abs(Fraction(member.graph.n, g) - 1)
        if prev is not None:
            assert dev < prev
        prev = dev


def test_family_spec_reads_a_float_theta_as_its_decimal():
    # 0.4 is 2/5, as `construct --theta 0.4` and bounds' mu read it, not
    # the binary value of the float
    spec = FamilySpec.from_theta(0.4)
    assert spec == FamilySpec.from_theta(Fraction(2, 5))
    assert spec.g_of(5) == 15


def test_family_h_lower_certificate():
    spec = FamilySpec.from_theta(3)
    member = expander_family(spec, 3)  # base K4, k=1, 16 vertices
    assert member.h_lower == Fraction(1, 3)
    assert cheeger_exact(member.graph).h >= member.h_lower


def test_family_deterministic():
    spec = FamilySpec.from_theta(1)
    a = expander_family(spec, 6)
    b = expander_family(spec, 6)
    assert a.graph == b.graph


def test_default_base_provider_sampled():
    base = default_base_provider(6)  # 12 vertices, not a named graph
    assert base.graph.num_vertices == 12
    assert all(d == 3 for d in base.graph.degrees())
    assert base.h_bound >= BASE_CHEEGER_TARGET
    assert cheeger_exact(base.graph).h == base.h_bound


def test_base_provider_guard_above_mask_width(monkeypatch):
    # 64 vertices exceed the 63-bit subset masks whatever the guard: no
    # base is proven, so none is returned, and no trial is drawn
    monkeypatch.setattr(construct, "sample_graph", None)
    for guard in (DEFAULT_GUARD, 64):
        with pytest.raises(CertificationError):
            default_base_provider(32, guard=guard)


def test_guard_reaches_base_certification():
    # g = 14 plants a 26-vertex base: the default guard 24 proves the
    # screened trial at 2/11, guard 26 finds its exact constant
    spec = FamilySpec.from_theta(3)
    assert expander_family(spec, 14).h_lower == Fraction(1, 23)
    assert expander_family(spec, 14, guard=26).h_lower == Fraction(1, 9)


def test_base_provider_returns_no_unproven_screened_trial(monkeypatch):
    """Beyond the guard the screen only picks a trial: a 26-vertex path
    (h = 1/13) that the screen passes at trial 0 must be skipped."""
    path = MultiGraph(chi=26, n=0, edges=tuple((v, v + 1) for v in range(25)))
    drawn = []

    def sample(cfg, t):
        drawn.append(t)
        return path if t == 0 else sample_graph(cfg, t)

    monkeypatch.setattr(construct, "sample_graph", sample)
    monkeypatch.setattr(construct, "cheeger_upper", lambda g: CheegerCertificate(1, (), 0, False))
    base = default_base_provider(13)
    assert drawn[0] == 0 and len(drawn) > 1
    assert base.graph != path and base.h_bound == BASE_CHEEGER_TARGET
    assert cheeger_exact(base.graph, guard=26).h >= BASE_CHEEGER_TARGET


def test_family_bases_beyond_the_guard_are_proven(monkeypatch):
    """theta = 3, 6 and 9 over g = 14..20 plant the bases m = 13..19, all
    beyond the default guard: each member's h_lower is the planting bound
    at 2/11, and the exact search with a raised guard proves h >= 2/11 on
    each distinct base, searched once."""
    bases = {}

    def recorded(m, guard):
        bases[m] = default_base_provider(m, guard)
        return bases[m]

    monkeypatch.setattr(construct, "default_base_provider", recorded)
    for theta in (3, 6, 9):
        spec = FamilySpec.from_theta(theta)
        for g in range(14, 21):
            member = expander_family(spec, g)
            assert member.h_lower == tree_planting_lower_bound(BASE_CHEEGER_TARGET, spec.k)
    assert sorted(bases) == list(range(13, 20))
    for m, base in bases.items():
        assert base.h_bound == BASE_CHEEGER_TARGET
        assert cheeger_exact(base.graph, guard=2 * m).h >= BASE_CHEEGER_TARGET


@pytest.mark.parametrize("chi", [2, 4])
def test_first_connected_member_matches_exhaustive_search(chi):
    # larger chi exceed ENUM_GUARD; tests/test_golden.py pins g = 1..60
    exhaustive = next(
        g for g in map(build_graph, enumerate_family(chi, 2)) if is_connected(g)
    )
    assert _first_connected_member(chi, 2) == exhaustive
