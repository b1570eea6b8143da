"""Normalized-Laplacian and Steklov spectra.

The Laplacian spectrum is that of I - D^{-1/2} A D^{-1/2}, with adjacency
counting edge multiplicity and a loop adding 2 to its diagonal entry and to
the degree.  The Steklov spectrum is computed through the
Dirichlet-to-Neumann reduction: the Schur complement
L_BB - L_BI L_II^{-1} L_IB of the combinatorial Laplacian L = D - A maps
boundary data to the outward derivative of its harmonic extension.

`lambda1` answers the spectral gap alone: dense below LANCZOS_FROM
vertices, a sparse Lanczos solve from there on (0 for a disconnected
graph, with no solve).  `laplacian_spectrum` keeps the whole dense spectrum
up to DENSE_LIMIT vertices and falls back to `lambda1` above it.

scipy is imported inside the two functions that call it, the sparse
Lanczos solve and the Cholesky solve, so commands that never call them do
not pay for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ExpanderForgeError, SolverError
from .graph_core import MultiGraph, is_connected, topology

DEFAULT_TOL = 1e-9
DENSE_LIMIT = 2000
# From this many vertices one Lanczos solve plus a cold import of
# scipy.sparse.linalg (0.26-0.33 s) beats one dense eigvalsh, so `lambda1`
# never makes a process slower.  1 BLAS thread, 2-core host: dense 261,
# 319 and 403 ms against Lanczos 16, 25 and 30 ms at 1230, 1332 and 1434
# vertices.
LANCZOS_FROM = 1400


@dataclass(frozen=True)
class SpectralReport:
    laplacian_eigs: tuple[float, ...] | None
    lambda1: float | None
    steklov_eigs: tuple[float, ...] | None
    sigma1: float | None


def _adjacency_entries(g: MultiGraph) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the adjacency's unit entries: edge (u, v)
    adds 1 at (u, v) and at (v, u), so a loop adds 2 on the diagonal."""
    e = np.array(g.edges, dtype=np.intp).reshape(-1, 2)
    return np.concatenate((e[:, 0], e[:, 1])), np.concatenate((e[:, 1], e[:, 0]))


def _adjacency(g: MultiGraph) -> np.ndarray:
    a = np.zeros((g.num_vertices, g.num_vertices))
    np.add.at(a, _adjacency_entries(g), 1.0)
    return a


def normalized_laplacian(g: MultiGraph) -> np.ndarray:
    a = _adjacency(g)
    deg = a.sum(axis=1)
    if np.any(deg == 0):
        raise ExpanderForgeError("isolated vertex (degree 0)")
    dinv = 1.0 / np.sqrt(deg)
    return np.eye(g.num_vertices) - dinv[:, None] * a * dinv[None, :]


def combinatorial_laplacian(g: MultiGraph) -> np.ndarray:
    a = _adjacency(g)
    return np.diag(a.sum(axis=1)) - a


def laplacian_spectrum(g: MultiGraph) -> SpectralReport:
    """Sorted normalized-Laplacian spectrum; lambda1 is entry index 1.

    Dense symmetric eigendecomposition up to DENSE_LIMIT vertices; larger
    graphs get only lambda1, from `lambda1`.
    """
    if g.num_vertices <= DENSE_LIMIT:
        lap = normalized_laplacian(g)
        eigs = np.linalg.eigvalsh(lap)  # ascending
        return SpectralReport(
            laplacian_eigs=tuple(float(x) for x in eigs),
            lambda1=float(eigs[1]) if len(eigs) > 1 else None,
            steklov_eigs=None,
            sigma1=None,
        )
    return SpectralReport(
        laplacian_eigs=None, lambda1=lambda1(g), steklov_eigs=None, sigma1=None
    )


def lambda1(g: MultiGraph) -> float:
    """The spectral gap lambda1 alone.

    Below LANCZOS_FROM vertices it is entry 1 of the dense spectrum.  From
    there on a disconnected graph gets 0 exactly: two component indicators
    are orthogonal null vectors, and Lanczos would find only one copy of 0.
    A connected graph has a simple eigenvalue 0, so the second of the two
    smallest Lanczos eigenvalues is lambda1 even when lambda1 repeats; a
    value within tol of 0 there is a solver failure (SolverError).
    """
    if g.num_vertices < LANCZOS_FROM:
        return float(np.linalg.eigvalsh(normalized_laplacian(g))[1])
    if not is_connected(g):
        return 0.0
    lam1 = float(_smallest_eigs_iterative(g, 2)[1])
    if lam1 <= DEFAULT_TOL:
        raise SolverError(
            f"lambda_1 = {lam1} <= tol on a connected graph (solver failure)"
        )
    return lam1


def _smallest_eigs_iterative(g: MultiGraph, k: int) -> np.ndarray:
    """The k smallest normalized-Laplacian eigenvalues, ascending: Lanczos
    for the k largest eigenvalues of the flipped operator 2I - L.

    The start vector is fixed, so repeated calls agree bit for bit.  It is
    drawn at random because a constant vector is orthogonal to every
    eigenvector that is antisymmetric under a graph automorphism.  An ARPACK
    failure, non-convergence included, is a SolverError.
    """
    import scipy.sparse
    import scipy.sparse.linalg

    nv = g.num_vertices
    a = scipy.sparse.csr_matrix(
        (np.ones(2 * g.num_edges), _adjacency_entries(g)), shape=(nv, nv)
    )
    deg = np.asarray(a.sum(axis=1)).ravel()
    if np.any(deg == 0):
        raise ExpanderForgeError("isolated vertex (degree 0)")
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


def _dirichlet_solve(lap_ii: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """lap_ii^{-1} rhs for the interior block lap_ii of a Laplacian;
    SolverError when it is not positive definite (a component without
    boundary)."""
    import scipy.linalg

    try:
        cho = scipy.linalg.cho_factor(lap_ii)
    except np.linalg.LinAlgError as exc:
        raise SolverError("interior Dirichlet block not SPD") from exc
    return scipy.linalg.cho_solve(cho, rhs)


def steklov_spectrum(g: MultiGraph) -> SpectralReport:
    """Steklov eigenvalues via the Schur complement of L = D - A.

    Requires a connected graph with at least one boundary vertex.  The
    interior Dirichlet block is positive definite for such graphs; a failed
    Cholesky factorization is reported as an internal inconsistency.
    """
    if not is_connected(g):
        raise ExpanderForgeError("Steklov spectrum requires a connected graph")
    if not g.n:
        raise ExpanderForgeError("Steklov spectrum requires n >= 1")
    chi = g.chi
    lap = combinatorial_laplacian(g)
    lap_ib = lap[:chi, chi:]
    schur = lap[chi:, chi:]
    if chi:
        schur = schur - lap_ib.T @ _dirichlet_solve(lap[:chi, :chi], lap_ib)
    eigs = np.linalg.eigvalsh((schur + schur.T) / 2.0)  # ascending
    if abs(eigs[0]) > DEFAULT_TOL * max(1.0, abs(eigs[-1])):
        raise SolverError(f"sigma_0 = {eigs[0]} not 0 within tol")
    sigma1 = float(eigs[1]) if len(eigs) > 1 else None
    if sigma1 is not None and sigma1 <= DEFAULT_TOL:
        raise SolverError(
            f"sigma_1 = {sigma1} <= tol on a connected graph (solver failure)"
        )
    return SpectralReport(
        laplacian_eigs=None,
        lambda1=None,
        steklov_eigs=tuple(float(x) for x in eigs),
        sigma1=sigma1,
    )


def harmonic_extension(g: MultiGraph, boundary_values: Sequence[float]) -> np.ndarray:
    """Extend boundary data to a function harmonic at interior vertices."""
    if len(boundary_values) != g.n:
        raise ExpanderForgeError("boundary data length mismatch")
    chi = g.chi
    f = np.zeros(g.num_vertices)
    f[chi:] = boundary_values
    if chi:
        lap = combinatorial_laplacian(g)
        f[:chi] = _dirichlet_solve(lap[:chi, :chi], -lap[:chi, chi:] @ f[chi:])
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

    The Laplacian spectrum is dense at every size: Lanczos can miss copies
    of a repeated eigenvalue, and the Steklov solve is dense anyway.

    Returns (ok, report) where report carries both spectra and the worst
    margin encountered.
    """
    if not is_connected(g):
        raise ExpanderForgeError("domination check requires a connected graph")
    if not g.n:
        raise ExpanderForgeError("domination check requires n >= 1")
    lam = np.linalg.eigvalsh(normalized_laplacian(g)).tolist()  # ascending
    sig = steklov_spectrum(g).steklov_eigs
    margins = [sig[i] - lam[i] for i in range(len(sig))]
    ok = all(m >= -DEFAULT_TOL for m in margins)
    return ok, {
        "lambda": tuple(lam[: len(sig)]),
        "sigma": sig,
        "min_margin": min(margins),
        "tol": DEFAULT_TOL,
    }


def report_json(g: MultiGraph) -> dict:
    """The JSON spectral report emitted by the CLI."""
    connected = is_connected(g)
    top = topology(g)
    lap = laplacian_spectrum(g)
    sigma: tuple[float, ...] | None = None
    sigma1 = None
    if connected and g.n >= 1:
        stek = steklov_spectrum(g)
        sigma, sigma1 = stek.steklov_eigs, stek.sigma1
    return {
        "chi": g.chi,
        "n": g.n,
        "genus": top.genus,
        "connected": connected,
        "lambda": list(lap.laplacian_eigs) if lap.laplacian_eigs else [],
        "sigma": list(sigma) if sigma else [],
        "lambda1": lap.lambda1,
        "sigma1": sigma1,
        "tol": DEFAULT_TOL,
    }
