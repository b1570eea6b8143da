import math

import numpy as np
import pytest

from expander_forge import spectra
from expander_forge.construct import add_loops, heawood_graph, petersen_graph, plant_trees
from expander_forge.errors import ExpanderForgeError, SolverError
from expander_forge.graph_core import (
    HalfEdgePairing,
    MultiGraph,
    build_graph,
    is_connected,
)
from expander_forge.sampler import SampleConfig, sample_graph
from expander_forge.spectra import (
    DENSE_LIMIT,
    LANCZOS_FROM,
    _lu_solve,
    _smallest_eigs_iterative,
    combinatorial_laplacian,
    harmonic_extension,
    lambda1,
    laplacian_spectrum,
    normalized_laplacian,
    rayleigh_quotient,
    report_json,
    steklov_spectrum,
    verify_domination,
)

TOL = 1e-9

STAR = build_graph(HalfEdgePairing(chi=1, n=3, pairs=((1, 4), (2, 5), (3, 6))))
THETA = build_graph(HalfEdgePairing(chi=2, n=0, pairs=((1, 4), (2, 5), (3, 6))))
LOOP_PENDANT = build_graph(HalfEdgePairing(chi=1, n=1, pairs=((1, 4), (2, 3))))
# not a model graph: a triple edge between vertices of degrees 3 and 5, where
# (dinv[u] * 3) * dinv[v] and (dinv[u] * dinv[v]) * 3 round apart; at a
# model graph's triple edge both ends have degree 3 and they agree
FAT_THETA = MultiGraph(chi=2, n=2, edges=((0, 1), (0, 1), (0, 1), (1, 2), (1, 3)))


def star_graph(leaves: int) -> MultiGraph:
    edges = tuple((0, j) for j in range(1, leaves + 1))
    return MultiGraph(chi=1, n=leaves, edges=edges)


def test_star_laplacian_closed_form():
    eigs = laplacian_spectrum(STAR)
    assert np.allclose(eigs, [0.0, 1.0, 1.0, 2.0], atol=TOL)


def test_theta_laplacian_closed_form():
    assert np.allclose(laplacian_spectrum(THETA), [0.0, 2.0], atol=TOL)
    assert abs(lambda1(THETA) - 2.0) < TOL


def test_loop_pendant_laplacian_closed_form():
    eigs = laplacian_spectrum(LOOP_PENDANT)
    assert np.allclose(eigs, [0.0, 4.0 / 3.0], atol=TOL)


def test_star_steklov_closed_form():
    eigs = steklov_spectrum(STAR)
    assert np.allclose(eigs, [0.0, 1.0, 1.0], atol=TOL)
    assert abs(eigs[1] - 1.0) < TOL


@pytest.mark.parametrize("leaves", [3, 5, 7])
def test_star_steklov_general(leaves):
    eigs = steklov_spectrum(star_graph(leaves))
    assert np.allclose(eigs, [0.0] + [1.0] * (leaves - 1), atol=TOL)


def test_steklov_requires_connectivity_and_boundary():
    disc = MultiGraph(chi=2, n=0, edges=())
    for check in (steklov_spectrum, verify_domination):
        with pytest.raises(ExpanderForgeError):
            check(disc)
        with pytest.raises(ExpanderForgeError):
            check(THETA)  # n = 0


def test_rayleigh_quotient_examples():
    f = [-1 / 3, 2 / 3, -1 / 3, -1 / 3]
    assert abs(rayleigh_quotient(STAR, f) - 1.5) < TOL
    assert rayleigh_quotient(STAR, [5.0] * 4) == 0.0
    assert abs(rayleigh_quotient(STAR, [0.0, 1.0, -1.0, 0.0]) - 1.0) < TOL
    with pytest.raises(ExpanderForgeError):
        rayleigh_quotient(STAR, [1.0, 0.0, 0.0, 0.0])  # zero boundary norm


def _connected_samples(combos, trials, seed):
    out = []
    for chi, n in combos:
        cfg = SampleConfig(chi=chi, n=n, trials=trials, seed=seed)
        for t in range(trials):
            g = sample_graph(cfg, t)
            if is_connected(g):
                out.append(g)
    return out


def test_sigma1_lower_bounds_random_rayleigh_quotients():
    """sigma1 <= R(f) for 200 harmonic extensions of mean-zero data."""
    rng = np.random.default_rng(5)
    for g in _connected_samples([(3, 3), (4, 2), (2, 4)], 10, seed=77):
        sigma1 = steklov_spectrum(g)[1]
        n = g.n
        for _ in range(10):
            data = rng.normal(size=n)
            data -= data.mean()
            if np.linalg.norm(data) < 1e-12:
                continue
            f = harmonic_extension(g, data)
            assert sigma1 <= rayleigh_quotient(g, f) + TOL


def test_random_rayleigh_minimum_approaches_sigma1():
    rng = np.random.default_rng(8)
    for g in _connected_samples([(3, 3), (2, 4)], 5, seed=13):
        if g.num_vertices > 12:
            continue
        sigma1 = steklov_spectrum(g)[1]
        best = math.inf
        for _ in range(2000):
            data = rng.normal(size=g.n)
            data -= data.mean()
            if np.linalg.norm(data) < 1e-12:
                continue
            best = min(best, rayleigh_quotient(g, harmonic_extension(g, data)))
        assert sigma1 <= best + TOL
        assert best <= sigma1 * 1.05


def test_lambda1_positive_iff_connected():
    cfg = SampleConfig(chi=6, n=4, trials=60, seed=3)
    saw_disconnected = False
    for t in range(cfg.trials):
        g = sample_graph(cfg, t)
        lam1 = lambda1(g)
        if is_connected(g):
            assert lam1 > TOL
        else:
            saw_disconnected = True
            assert lam1 <= TOL
    assert saw_disconnected, "seed should produce at least one disconnected draw"


def test_domination_on_star_and_samples():
    ok, rep = verify_domination(STAR)
    assert ok and rep["min_margin"] >= -TOL
    for g in _connected_samples([(3, 3), (4, 2)], 20, seed=21):
        ok, rep = verify_domination(g)
        assert ok, rep


def _lanczos(g: MultiGraph, k: int) -> np.ndarray:
    return _smallest_eigs_iterative(g.num_vertices, np.array(g.edges), k)


def test_iterative_smallest_eigs_match_dense():
    graphs = [LOOP_PENDANT, *_connected_samples([(12, 6), (30, 4)], 3, seed=5)]
    for g in graphs:
        dense = laplacian_spectrum(g)
        k = min(5, g.num_vertices - 1)
        assert np.allclose(_lanczos(g, k), dense[:k], atol=1e-8)


def test_iterative_smallest_eigs_reproducible():
    # bit-for-bit repeats need a fixed ARPACK start vector; the symmetric
    # planted graph repeats lambda1, which one start vector finds only once
    cases = [(g, 3) for g in _connected_samples([(60, 6), (200, 10)], 2, seed=1)]
    cases.append((plant_trees(petersen_graph(), 2), 2))
    for g, k in cases:
        first = _lanczos(g, k)
        assert np.array_equal(first, _lanczos(g, k))
        dense = laplacian_spectrum(g)
        assert np.allclose(first, dense[:k], atol=1e-8)
    (big,) = _connected_samples([(2000, 4)], 1, seed=1)
    assert lambda1(big) == lambda1(big)


def _dense_lambda1(g: MultiGraph) -> float:
    return float(np.linalg.eigvalsh(normalized_laplacian(g))[1])


def test_lambda1_matches_dense_on_both_sides_of_the_threshold(monkeypatch):
    # at the real threshold: 1398 vertices are dense, 1400 Lanczos
    graphs = _connected_samples([(1380, 18), (1390, 10)], 1, seed=4)
    assert [g.num_vertices for g in graphs] == [1398, 1400]
    assert graphs[0].num_vertices < LANCZOS_FROM <= graphs[1].num_vertices
    for g in graphs:
        assert lambda1(g) == pytest.approx(_dense_lambda1(g), rel=1e-11, abs=0)
    # and many smaller samples around a lowered threshold
    monkeypatch.setattr(spectra, "LANCZOS_FROM", 200)
    small = _connected_samples([(120, 10), (180, 18), (200, 20), (400, 12)], 3, seed=9)
    assert {g.num_vertices < 200 for g in small} == {True, False}
    for g in small:
        assert lambda1(g) == pytest.approx(_dense_lambda1(g), rel=1e-11, abs=0)


def test_lambda1_is_zero_on_disconnected_lanczos_graph(monkeypatch):
    # components of 4 and 256 vertices: Lanczos finds one copy of 0 and
    # reports the next eigenvalue, 0.02568, as lambda1
    g = sample_graph(SampleConfig(chi=200, n=60, trials=200, seed=12345), 3)
    assert not is_connected(g)
    assert abs(_dense_lambda1(g)) < 1e-12
    monkeypatch.setattr(spectra, "LANCZOS_FROM", 100)
    assert lambda1(g) == 0.0
    monkeypatch.setattr(spectra, "DENSE_LIMIT", 100)
    rep = report_json(g)
    assert rep["lambda"] == [] and rep["lambda1"] == 0.0


def test_lambda1_is_entry_one_of_the_dense_spectrum():
    graphs = _connected_samples([(6, 4), (40, 8), (300, 12)], 4, seed=6)
    assert graphs and all(g.num_vertices < LANCZOS_FROM for g in graphs)
    for g in graphs:
        assert lambda1(g) == laplacian_spectrum(g)[1]


def test_lambda1_is_exactly_zero_on_disconnected_dense_graph():
    # the dense entry 1 of these graphs is rounding noise, -2.6e-16 on
    # trial 32; lambda1 must not report it
    cfg = SampleConfig(chi=16, n=4, trials=40, seed=11)
    graphs = [sample_graph(cfg, t) for t in range(cfg.trials)]
    disconnected = [g for g in graphs if not is_connected(g)]
    assert any(laplacian_spectrum(g)[1] != 0.0 for g in disconnected)
    assert all(g.num_vertices < LANCZOS_FROM for g in disconnected)
    assert [lambda1(g) for g in disconnected] == [0.0] * len(disconnected)


def test_lambda1_near_zero_on_connected_graph_is_solver_error(monkeypatch):
    (g,) = _connected_samples([(200, 20)], 1, seed=2)
    monkeypatch.setattr(spectra, "LANCZOS_FROM", 100)
    monkeypatch.setattr(
        spectra, "_smallest_eigs_iterative", lambda nv, edges, k: np.zeros(k)
    )
    with pytest.raises(SolverError):
        lambda1(g)


def test_domination_above_dense_limit():
    (g,) = _connected_samples([(2000, 4)], 1, seed=1)
    assert g.num_vertices == 2004 > DENSE_LIMIT
    ok, rep = verify_domination(g)
    assert ok and rep["min_margin"] >= -TOL
    assert len(rep["lambda"]) == len(rep["sigma"]) == 4


def test_domination_compares_the_dense_spectrum(monkeypatch):
    # Planted Petersen graph with a loop on every hair, so the 15 spine tips
    # are the boundary.  Its 15 smallest eigenvalues repeat 0.043125 five
    # times, 0.073915 four and 0.079481 five; Lanczos for the 15 smallest
    # found three copies of each, and domination failed on them.  lambda
    # must be the dense spectrum whatever DENSE_LIMIT is.
    planted = plant_trees(petersen_graph(), 2)
    g = add_loops(planted, planted.boundary_indices()[1::2])
    assert g.n == 15
    monkeypatch.setattr(spectra, "DENSE_LIMIT", 10)
    ok, rep = verify_domination(g)
    dense = np.sort(np.linalg.eigvalsh(normalized_laplacian(g)))
    assert np.allclose(rep["lambda"], dense[: g.n], atol=1e-8)
    assert ok


def test_harmonic_extension_all_interior_component_is_solver_error():
    # v1 carries a loop and w1; v2 and v3 form a theta with no boundary, so
    # the interior Dirichlet block is singular
    g = MultiGraph(chi=3, n=1, edges=((0, 0), (0, 3), (1, 2), (1, 2), (1, 2)))
    with pytest.raises(SolverError):
        harmonic_extension(g, [1.0])


def test_report_json_shape():
    rep = report_json(STAR)
    assert rep["chi"] == 1 and rep["n"] == 3 and rep["genus"] == 0
    assert rep["connected"] is True
    assert len(rep["lambda"]) == 4 and len(rep["sigma"]) == 3
    assert rep["tol"] == TOL


def test_report_json_above_dense_limit(monkeypatch):
    (g,) = _connected_samples([(200, 20)], 1, seed=2)
    monkeypatch.setattr(spectra, "LANCZOS_FROM", 100)
    monkeypatch.setattr(spectra, "DENSE_LIMIT", 100)
    rep = report_json(g)
    assert rep["lambda"] == []
    assert rep["lambda1"] == lambda1(g)
    assert rep["sigma1"] == steklov_spectrum(g)[1]
    assert rep["sigma"] == list(steklov_spectrum(g))


def test_report_json_lambda1_is_the_dense_entry_on_disconnected_graph():
    g = sample_graph(SampleConfig(chi=16, n=4, trials=40, seed=11), 32)
    assert not is_connected(g) and g.num_vertices <= DENSE_LIMIT
    rep = report_json(g)
    assert rep["lambda1"] == rep["lambda"][1]
    assert rep["lambda"] == list(laplacian_spectrum(g))
    assert rep["sigma"] == [] and rep["sigma1"] is None


def _dense_adjacency(g: MultiGraph) -> np.ndarray:
    a = np.zeros((g.num_vertices, g.num_vertices))
    for u, v in g.edges:
        a[u, v] += 1.0
        a[v, u] += 1.0  # a loop adds 2
    return a


def _oracle_normalized_laplacian(g: MultiGraph) -> np.ndarray:
    a = _dense_adjacency(g)
    dinv = 1.0 / np.sqrt(a.sum(axis=1))
    return np.eye(g.num_vertices) - dinv[:, None] * a * dinv[None, :]


def _oracle_combinatorial_laplacian(g: MultiGraph) -> np.ndarray:
    a = _dense_adjacency(g)
    return np.diag(a.sum(axis=1)) - a


def _planted_with_loops() -> list[MultiGraph]:
    out = []
    for base, k in [(petersen_graph(), 2), (heawood_graph(), 2), (petersen_graph(), 5)]:
        planted = plant_trees(base, k)
        out.append(add_loops(planted, planted.boundary_indices()[1::2]))
    return out


def _sampled(combos, seed) -> list[MultiGraph]:
    return [
        sample_graph(SampleConfig(chi=chi, n=n, trials=trials, seed=seed), t)
        for chi, n, trials in combos
        for t in range(trials)
    ]


def test_laplacians_are_bit_identical_to_the_dense_adjacency_oracle():
    sampled = _sampled([(16, 4, 6), (60, 8, 4), (200, 20, 4), (400, 20, 3), (580, 20, 3)], seed=3)
    assert len(sampled) == 20
    assert {g.num_vertices for g in sampled} <= set(range(20, 601))
    assert not all(is_connected(g) for g in sampled)
    # a builder that scales as dinv * dinv * a fails only on FAT_THETA: the
    # two orders agree exactly at counts 1, 2 and 4, and at degrees 3 and 3
    d3, d5 = 1.0 / np.sqrt(3.0), 1.0 / np.sqrt(5.0)
    assert (d3 * 3.0) * d5 != (d3 * d5) * 3.0
    graphs = [STAR, THETA, LOOP_PENDANT, FAT_THETA, *_planted_with_loops(), *sampled]
    for g in graphs:
        lap = normalized_laplacian(g)
        assert lap.dtype == np.float64 and lap.flags.c_contiguous
        assert np.array_equal(lap, _oracle_normalized_laplacian(g))
        assert np.array_equal(combinatorial_laplacian(g), _oracle_combinatorial_laplacian(g))


def test_sparse_steklov_route_matches_the_dense_one(monkeypatch):
    sampled = _sampled([(60, 6, 2), (150, 12, 2), (300, 16, 2), (560, 40, 2)], seed=8)
    graphs = [g for g in [*sampled, *_planted_with_loops()] if is_connected(g)]
    assert len(graphs) >= 8
    assert all(60 <= g.num_vertices <= 600 for g in graphs)
    rng = np.random.default_rng(4)
    for g in graphs:
        data = rng.normal(size=g.n)
        routes = []
        for threshold in (10**9, 50):  # dense, then sparse
            monkeypatch.setattr(spectra, "LANCZOS_FROM", threshold)
            routes.append((np.array(steklov_spectrum(g)), harmonic_extension(g, data)))
        for dense, sparse in zip(*routes):
            assert np.allclose(sparse, dense, rtol=1e-12, atol=1e-12 * np.max(np.abs(dense)))


@pytest.mark.parametrize("threshold", [10**9, 50], ids=["dense", "sparse"])
def test_harmonic_extension_is_harmonic_on_both_routes(monkeypatch, threshold):
    """L f vanishes at every interior vertex and f is the data on the
    boundary, whichever solve extends it."""
    monkeypatch.setattr(spectra, "LANCZOS_FROM", threshold)
    graphs = [*_connected_samples([(60, 6), (150, 12), (300, 16)], 2, seed=8),
              *_planted_with_loops()]
    assert len(graphs) >= 6
    rng = np.random.default_rng(9)
    for g in graphs:
        data = rng.normal(size=g.n)
        f = harmonic_extension(g, data)
        assert np.array_equal(f[g.chi:], data)
        interior = (combinatorial_laplacian(g) @ f)[: g.chi]
        assert np.max(np.abs(interior)) <= 1e-12 * np.max(np.abs(data))


def _lu_schur_complement(g: MultiGraph) -> np.ndarray:
    """L_BB - L_BI L_II^{-1} L_IB from the dense adjacency oracle, by an LU
    solve on the role-indexed blocks."""
    lap = _oracle_combinatorial_laplacian(g)
    it = [v for v, r in enumerate(g.roles) if r != "boundary"]
    bd = [v for v, r in enumerate(g.roles) if r == "boundary"]
    return lap[np.ix_(bd, bd)] - lap[np.ix_(bd, it)] @ np.linalg.solve(
        lap[np.ix_(it, it)], lap[np.ix_(it, bd)]
    )


def test_blocked_schur_complement_matches_an_lu_one():
    # chi one below, at and one above the first and second panel edges, and
    # a dozen panels; loops cancel in L, multi-edges count
    assert spectra.SCHUR_PANEL == 32
    sampled = _connected_samples(
        [(31, 1), (32, 2), (33, 1), (64, 2), (65, 1), (420, 20)], 3, seed=6
    )
    graphs = [STAR, LOOP_PENDANT, *sampled, *_planted_with_loops()]
    assert {g.chi for g in graphs} >= {1, 31, 32, 33, 64, 65, 420}
    assert {g.n for g in graphs} >= {1, 2}
    for g in graphs:
        want = _lu_schur_complement(g)
        lap = combinatorial_laplacian(g)
        # at n = 1 the complement is 0: absolute error is on the scale of L
        atol = 1e-12 * np.max(np.abs(lap))
        got = spectra._schur_dense(lap, g.chi)
        assert got.shape == (g.n, g.n)
        assert np.allclose(got, want, rtol=1e-12, atol=atol)


@pytest.mark.parametrize("bad", [5, 40])  # in the first panel, in the second
def test_blocked_schur_complement_rejects_an_indefinite_interior_block(bad):
    lap = np.eye(43)
    lap[bad, bad] = -1.0
    with pytest.raises(SolverError):
        spectra._schur_dense(lap, 41)


def test_sparse_route_never_builds_a_dense_laplacian(monkeypatch):
    def dense(g):
        raise AssertionError("dense Laplacian built")

    (g,) = _connected_samples([(300, 16)], 1, seed=2)
    monkeypatch.setattr(spectra, "LANCZOS_FROM", 50)
    monkeypatch.setattr(spectra, "combinatorial_laplacian", dense)
    assert len(steklov_spectrum(g)) == 16
    assert harmonic_extension(g, np.ones(16)) == pytest.approx(np.ones(g.num_vertices))


def test_superlu_failure_is_solver_error(monkeypatch):
    import scipy.sparse
    import scipy.sparse.linalg

    # the interior block of a theta without boundary: exactly singular
    singular = scipy.sparse.csc_array(np.array([[3.0, -3.0], [-3.0, 3.0]]))
    with pytest.raises(SolverError):
        _lu_solve(singular, np.ones((2, 1)))

    def fail(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    (g,) = _connected_samples([(100, 8)], 1, seed=2)
    monkeypatch.setattr(spectra, "LANCZOS_FROM", 50)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", fail)
    with pytest.raises(SolverError):
        steklov_spectrum(g)


def test_harmonic_extension_without_boundary_component_is_solver_error(monkeypatch):
    # a closed cubic component of 60 vertices beside a star: SuperLU factors
    # its singular interior block with a rounding-noise pivot instead of
    # failing, where Cholesky fails; both routes must report it
    (closed,) = _sampled([(60, 0, 1)], seed=0)
    assert len(closed.components) == 1
    g = MultiGraph(chi=61, n=3, edges=closed.edges + ((60, 61), (60, 62), (60, 63)))
    for threshold in (10**9, 50):
        monkeypatch.setattr(spectra, "LANCZOS_FROM", threshold)
        with pytest.raises(SolverError):
            harmonic_extension(g, [1.0, 2.0, 3.0])
