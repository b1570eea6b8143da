"""Normalized-Laplacian and Steklov spectra.

The Laplacian spectrum is that of I - D^{-1/2} A D^{-1/2}, with adjacency
counting edge multiplicity and a loop adding 2 to its diagonal entry and to
the degree.  The Steklov spectrum is computed through the
Dirichlet-to-Neumann reduction: the Schur complement
L_BB - L_BI L_II^{-1} L_IB of the combinatorial Laplacian L = D - A maps
boundary data to the outward derivative of its harmonic extension.

`laplacian_spectrum` (the one dense normalized-Laplacian solve, at every
size) and `steklov_spectrum` return ascending tuples of floats for a
MultiGraph, and a (k, .) array for a graph_core.GraphBlock of k graphs of
one size.  The dense builders, `_schur_dense` and eigvalsh each take a
block's stack in one call, which LAPACK and BLAS run matrix by matrix, so
each row is bit for bit its graph's tuple; a MultiGraph is a block of one.
`lambda1` answers the spectral gap alone: 0 for a disconnected graph, with
no solve, else entry 1 of `laplacian_spectrum` below LANCZOS_FROM vertices
and a sparse Lanczos solve from there on.

Each dense stack is built in one k x nv x nv allocation, straight from the
edge arrays.  One threshold, LANCZOS_FROM, selects both sparse routes: from
there on `lambda1` is a Lanczos solve and the Steklov interior block
L_II is factored by a sparse LU, so neither builds a dense nv x nv array.
Below it the Steklov route is one dense Laplacian stack and a blocked
Cholesky factorization of its interior blocks, made in place in that
array with numpy alone.

scipy is imported only inside the sparse solves, so no command loads it
below LANCZOS_FROM vertices.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ExpanderForgeError, SolverError
from .graph_core import GraphBlock, MultiGraph, Topology, is_connected, topology

DEFAULT_TOL = 1e-9
DENSE_LIMIT = 2000
# From this many vertices `lambda1` and `steklov_spectrum` take their
# sparse routes.  One Lanczos solve plus a cold import of
# scipy.sparse.linalg (0.26-0.33 s) beats one dense eigvalsh from here, so
# `lambda1` never makes a process slower.  1 BLAS thread, 2-core host:
# dense 261, 319 and 403 ms against Lanczos 16, 25 and 30 ms at 1230, 1332
# and 1434 vertices.  The Steklov solves cross earlier, warm: the dense
# blocked Cholesky 1.2, 9.8 and 25 ms against sparse LU 1.1, 3.6 and 6.7 ms
# at 420, 1030 and 1436 vertices.  Steklov keeps this one threshold, so
# every output below it stays what the dense route computes, and no
# command loads scipy below it.
LANCZOS_FROM = 1400
# Interior columns per step of `_schur_dense`.  1 BLAS thread, 2-core
# host, best of 25 at 420, 624 and 1030 vertices: 32 takes 1.05, 2.6 and
# 9.4 ms, 64 1.2, 2.7 and 9.3 ms, 96 1.5, 3.3 and 10 ms, 128 2.1, 4.1 and
# 12 ms, 16 1.1, 2.8 and 11 ms.
SCHUR_PANEL = 32


def _edge_array(g: MultiGraph) -> np.ndarray:
    """The edges of g as an (E, 2) array of vertex index pairs."""
    return np.array(g.edges, dtype=np.intp).reshape(-1, 2)


def _as_block(g: MultiGraph | GraphBlock) -> GraphBlock:
    """g itself if it is a block; a MultiGraph as a block of one graph."""
    if isinstance(g, GraphBlock):
        return g
    return GraphBlock(g.chi, g.n, _edge_array(g)[None])


def _adjacency_entries(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the adjacency's unit entries, per graph of
    an (..., E, 2) edge array, as (..., 2E) arrays: edge (u, v) adds 1 at
    (u, v) and at (v, u), so a loop adds 2 on the diagonal."""
    u, v = edges[..., 0], edges[..., 1]
    return np.concatenate((u, v), axis=-1), np.concatenate((v, u), axis=-1)


def _adjacency_stack(b: GraphBlock, unit: float) -> tuple[np.ndarray, tuple, np.ndarray]:
    """The adjacency counts of the k graphs of b times unit, summed in
    place in one (k, nv, nv) allocation; with the (graph, row, column)
    index of every unit entry and the (k, nv) vertex degrees."""
    k, nv = len(b.edges), b.num_vertices
    rows, cols = _adjacency_entries(b.edges)
    graph = np.arange(k)[:, None]
    lap = np.zeros((k, nv, nv))
    np.add.at(lap, (graph, rows, cols), unit)
    deg = np.bincount((rows + nv * graph).reshape(-1), minlength=k * nv)
    return lap, (graph, rows, cols), deg.reshape(k, nv)


def normalized_laplacian(g: MultiGraph | GraphBlock) -> np.ndarray:
    """I - D^{-1/2} A D^{-1/2}, dense: (nv, nv) for a MultiGraph and
    (k, nv, nv) for a block of k graphs, in one allocation.  The adjacency
    counts are summed in place, then scaled at their non-zeros as
    (dinv[u] * a) * dinv[v], and 1 is added on the diagonal."""
    b = _as_block(g)
    lap, at, deg = _adjacency_stack(b, 1.0)
    if np.any(deg == 0):
        raise ExpanderForgeError("isolated vertex (degree 0)")
    dinv = 1.0 / np.sqrt(deg)
    graph, rows, cols = at
    lap[at] = -(dinv[graph, rows] * lap[at]) * dinv[graph, cols]
    nv = b.num_vertices
    lap.reshape(len(lap), nv * nv)[:, :: nv + 1] += 1.0
    return lap if g is b else lap[0]


def combinatorial_laplacian(g: MultiGraph | GraphBlock) -> np.ndarray:
    """L = D - A, dense: (nv, nv) for a MultiGraph and (k, nv, nv) for a
    block of k graphs, in one allocation."""
    b = _as_block(g)
    lap, _, deg = _adjacency_stack(b, -1.0)
    nv = b.num_vertices
    lap.reshape(len(lap), nv * nv)[:, :: nv + 1] += deg
    return lap if g is b else lap[0]


def _sparse_laplacian(nv: int, edges: np.ndarray):
    """L = D - A of the graph on nv vertices with the (E, 2) edge array
    edges, as a scipy CSC array; repeated entries are summed."""
    import scipy.sparse

    rows, cols = _adjacency_entries(edges)
    diag = np.arange(nv)
    data = np.concatenate((np.full(len(rows), -1.0), np.bincount(rows, minlength=nv)))
    return scipy.sparse.csc_array(
        (data, (np.concatenate((rows, diag)), np.concatenate((cols, diag)))),
        shape=(nv, nv),
    )


def laplacian_spectrum(g: MultiGraph | GraphBlock):
    """The normalized-Laplacian spectrum, ascending, from one dense
    symmetric eigendecomposition at every size: a tuple of floats for a
    MultiGraph, a (k, nv) array for a block of k graphs, whose k
    eigendecompositions are one stacked eigvalsh call."""
    eigs = np.linalg.eigvalsh(normalized_laplacian(g))
    return eigs if isinstance(g, GraphBlock) else tuple(eigs.tolist())


def lambda1(g: MultiGraph) -> float:
    """The spectral gap lambda1 alone; exactly 0 on a disconnected graph.

    Below LANCZOS_FROM vertices it is entry 1 of the dense spectrum.  From
    there on a connected graph has a simple eigenvalue 0, so the second of
    the two smallest Lanczos eigenvalues is lambda1 even when lambda1
    repeats; a value within tol of 0 there is a solver failure (SolverError).
    """
    if not is_connected(g):
        return 0.0
    if g.num_vertices < LANCZOS_FROM:
        return laplacian_spectrum(g)[1]
    lam1 = float(_smallest_eigs_iterative(g, 2)[1])
    if lam1 <= DEFAULT_TOL:
        raise SolverError(
            f"lambda_1 = {lam1} <= tol on a connected graph (solver failure)"
        )
    return lam1


def _smallest_eigs_iterative(g: MultiGraph, k: int) -> np.ndarray:
    """The k smallest normalized-Laplacian eigenvalues, ascending: Lanczos
    for the k largest eigenvalues of the flipped operator 2I - L.  g is
    connected and not one vertex, as lambda1 passes it, so no degree is 0.

    The start vector is fixed, so repeated calls agree bit for bit.  It is
    drawn at random because a constant vector is orthogonal to every
    eigenvector that is antisymmetric under a graph automorphism.  An ARPACK
    failure, non-convergence included, is a SolverError.
    """
    import scipy.sparse
    import scipy.sparse.linalg

    nv = g.num_vertices
    a = scipy.sparse.csr_matrix(
        (np.ones(2 * g.num_edges), _adjacency_entries(_edge_array(g))), shape=(nv, nv)
    )
    deg = np.asarray(a.sum(axis=1)).ravel()
    dinv = scipy.sparse.diags(1.0 / np.sqrt(deg))
    lap = scipy.sparse.identity(nv) - dinv @ a @ dinv
    flipped = 2.0 * scipy.sparse.identity(nv) - lap
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, nv)
    try:
        vals = scipy.sparse.linalg.eigsh(
            flipped, k=k, which="LA", return_eigenvectors=False, tol=DEFAULT_TOL,
            v0=v0,
        )
    except scipy.sparse.linalg.ArpackError as exc:
        raise SolverError(f"Lanczos solve failed: {exc}") from exc
    return np.sort(2.0 - vals)


def _schur_dense(lap: np.ndarray, chi: int) -> np.ndarray:
    """The Schur complement L_BB - L_BI L_II^{-1} L_IB of a dense L = D - A
    split at its first chi rows and columns, by a left-looking blocked
    Cholesky factorization of L_II (Golub and Van Loan, Matrix
    Computations, 4.2) made in place in lap; SolverError when L_II is not
    positive definite.  lap may be a block's (k, nv, nv) stack: each step
    is then one stacked call, and each complement bit for bit its matrix's.

    Each panel of SCHUR_PANEL interior columns takes the products of every
    earlier panel in one matrix product, is factored as a small diagonal
    block, and is scaled below that block: the boundary rows with the
    interior ones.  The boundary rows of the first chi columns then hold
    X = L_BI C^{-T}, C the Cholesky factor of L_II, and the complement is
    L_BB - X X^T, so the only large array is lap itself.
    """
    for k in range(0, chi, SCHUR_PANEL):
        e = min(k + SCHUR_PANEL, chi)
        if k:  # no earlier panel: the empty product costs 8% at 20 vertices
            lap[..., k:, k:e] -= lap[..., k:, :k] @ lap[..., k:e, :k].swapaxes(-1, -2)
        try:
            c = np.linalg.cholesky(lap[..., k:e, k:e])
        except np.linalg.LinAlgError as exc:
            raise SolverError("interior Dirichlet block not SPD") from exc
        lap[..., e:, k:e] = lap[..., e:, k:e] @ np.linalg.inv(c).swapaxes(-1, -2)
    x = lap[..., chi:, :chi]
    return lap[..., chi:, chi:] - x @ x.swapaxes(-1, -2)


def _lu_solve(lap_ii, rhs: np.ndarray) -> np.ndarray:
    """lap_ii^{-1} rhs for a sparse CSC lap_ii, by SuperLU under a
    minimum-degree ordering of lap_ii + lap_ii^T; SolverError when SuperLU
    fails.  lap_ii is positive definite, so the diagonal pivots are taken
    without row interchanges, as in a Cholesky factorization."""
    import scipy.sparse.linalg

    try:
        lu = scipy.sparse.linalg.splu(
            lap_ii, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise SolverError(f"interior Dirichlet block: {exc}") from exc
    return lu.solve(rhs)


def _sparse_schur(chi: int, nv: int, edges: np.ndarray) -> np.ndarray:
    """L_BB - L_IB^T L_II^{-1} L_IB of one graph: L_IB and L_BB sliced dense
    from `_sparse_laplacian`, L_II^{-1} L_IB by `_lu_solve`."""
    lap = _sparse_laplacian(nv, edges)
    lap_ib, schur = lap[:chi, chi:].toarray(), lap[chi:, chi:].toarray()
    if chi:
        schur = schur - lap_ib.T @ _lu_solve(lap[:chi, :chi], lap_ib)
    return schur


def steklov_spectrum(g: MultiGraph | GraphBlock):
    """The Steklov spectrum, ascending, via the Schur complement of L = D - A:
    a tuple of floats for a MultiGraph, a (k, n) array for a block of k
    graphs, whose k eigendecompositions are one stacked eigvalsh call.

    Requires connected graphs with at least one boundary vertex (a
    MultiGraph is checked, a block's caller vouches for its graphs).  The
    interior Dirichlet block is positive definite for such graphs.  Below
    LANCZOS_FROM vertices the complements are `_schur_dense`'s on the
    stacked dense L; from there on `_sparse_schur`'s, graph by graph.  A
    failed factorization, sigma_0 away from 0 or sigma_1 within tol of 0,
    in any graph, is reported as an internal inconsistency (SolverError).
    """
    if not isinstance(g, GraphBlock) and not is_connected(g):
        raise ExpanderForgeError("Steklov spectrum requires a connected graph")
    if not g.n:
        raise ExpanderForgeError("Steklov spectrum requires n >= 1")
    b = _as_block(g)
    if b.num_vertices < LANCZOS_FROM:
        schur = _schur_dense(combinatorial_laplacian(b), b.chi)
    else:
        schur = np.array([_sparse_schur(b.chi, b.num_vertices, e) for e in b.edges])
    eigs = np.linalg.eigvalsh((schur + schur.swapaxes(-1, -2)) / 2.0)
    off = np.abs(eigs[:, 0]) > DEFAULT_TOL * np.maximum(1.0, np.abs(eigs[:, -1]))
    if off.any():
        raise SolverError(f"sigma_0 = {eigs[off.argmax(), 0]} not 0 within tol")
    if b.n > 1 and (low := eigs[:, 1] <= DEFAULT_TOL).any():
        raise SolverError(
            f"sigma_1 = {eigs[low.argmax(), 1]} <= tol on a connected graph (solver failure)"
        )
    return eigs if g is b else tuple(eigs[0].tolist())


def harmonic_extension(g: MultiGraph, boundary_values: Sequence[float]) -> np.ndarray:
    """Extend boundary data to a function harmonic at interior vertices:
    f_I = -L_II^{-1} L_IB f_B, by `np.linalg.solve` of the dense L_II
    below LANCZOS_FROM vertices and `_lu_solve` of the sparse one from
    there on."""
    if len(boundary_values) != g.n:
        raise ExpanderForgeError("boundary data length mismatch")
    chi = g.chi
    # a component without boundary makes L_II singular; SuperLU can factor
    # it with a rounding-noise pivot instead of failing, so check the graph
    if any(max(c) < chi for c in g.components):
        raise SolverError("interior Dirichlet block singular: a component has no boundary")
    f = np.zeros(g.num_vertices)
    f[chi:] = boundary_values
    if chi and g.num_vertices < LANCZOS_FROM:
        lap = combinatorial_laplacian(g)
        f[:chi] = np.linalg.solve(lap[:chi, :chi], -lap[:chi, chi:] @ f[chi:])
    elif chi:
        lap = _sparse_laplacian(g.num_vertices, _edge_array(g))
        f[:chi] = _lu_solve(lap[:chi, :chi], -lap[:chi, chi:].toarray() @ f[chi:])
    return f


def rayleigh_quotient(g: MultiGraph, f: Sequence[float]) -> float:
    """Edge energy over the squared boundary norm; loops contribute 0."""
    fv = np.asarray(f, dtype=float)
    if len(fv) != g.num_vertices:
        raise ExpanderForgeError("function length mismatch")
    boundary = g.boundary_indices()
    denom = float(np.sum(fv[boundary] ** 2))
    if denom <= 0.0:
        raise ExpanderForgeError("zero boundary norm")
    num = 0.0
    for u, v in g.edges:
        d = fv[u] - fv[v]
        num += d * d
    return num / denom


def verify_domination(g: MultiGraph):
    """Check sigma_i >= lambda_i - DEFAULT_TOL for 0 <= i < |dG|.

    The Laplacian spectrum is `laplacian_spectrum`'s dense one at every
    size: Lanczos can miss copies of a repeated eigenvalue.

    Returns (ok, report) where report carries both spectra and the worst
    margin encountered.  `steklov_spectrum` rejects a disconnected graph
    and one without boundary.
    """
    sig = steklov_spectrum(g)
    lam = laplacian_spectrum(g)[: len(sig)]
    margins = [s - l for s, l in zip(sig, lam)]
    ok = all(m >= -DEFAULT_TOL for m in margins)
    return ok, {
        "lambda": lam,
        "sigma": sig,
        "min_margin": min(margins),
        "tol": DEFAULT_TOL,
    }


def report_json(g: MultiGraph, top: Topology | None = None) -> dict:
    """The JSON spectral report emitted by the CLI; `lambda` is empty above
    DENSE_LIMIT vertices, and `lambda1` then comes from `lambda1`.  `top`
    is topology(g), when the caller has it already."""
    connected = is_connected(g)
    top = topology(g) if top is None else top
    if g.num_vertices <= DENSE_LIMIT:
        lam = laplacian_spectrum(g)
        lam1 = lam[1] if len(lam) > 1 else None
    else:
        lam, lam1 = (), lambda1(g)
    sigma = steklov_spectrum(g) if connected and g.n >= 1 else ()
    return {
        "chi": g.chi,
        "n": g.n,
        "genus": top.genus,
        "connected": connected,
        "lambda": list(lam),
        "sigma": list(sigma),
        "lambda1": lam1,
        "sigma1": sigma[1] if len(sigma) > 1 else None,
        "tol": DEFAULT_TOL,
    }
