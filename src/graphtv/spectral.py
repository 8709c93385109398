"""Laplacian eigenstructure and the constants that govern TV denoising.

Two scalar quantities control the theoretical regularization level and
the error rates of the graph TV denoiser:

* the *inverse scaling factor* ``rho``: the largest Euclidean column
  norm of the Moore-Penrose pseudoinverse of the incidence matrix, and
* the *compatibility factor* ``kappa_T``: the infimum over signals of
  ``sqrt(|T|) * ||theta||_2 / ||(D theta)_T||_1`` for an edge subset T.

``_route`` alone picks how ``rho`` is computed: a closed form, an eigensum
in the DCT-2 basis of the path graph, the dense eigendecomposition of the
Laplacian, or a spectral-gap bound.  ``kappa_T`` is exposed as an exact
brute-force oracle (sign enumeration) plus the closed-form degree bound.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sp

from . import graphs as G

DENSE_SIZE_CAP = 4096
GAP_SIZE_CAP = 2 * DENSE_SIZE_CAP
STRUCTURED_SIZE_CAP = 4_200_000
RANK_CUTOFF = 1e-10
KAPPA_BRUTEFORCE_CAP = 20


@dataclass
class SpectralReport:
    """Spectral constants of one incidence matrix."""

    graph_n: int
    graph_m: int
    rho: float
    rho_method: str  # the route taken, see _route
    kappa_lower_bound: float
    family: str = "custom"
    eigenvalues: np.ndarray | None = None
    spectral_gap: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "n": self.graph_n,
            "m": self.graph_m,
            "rho": self.rho,
            "rho_method": self.rho_method,
            "lambda2": self.spectral_gap,
            "kappa_lower_bound": self.kappa_lower_bound,
            "family": self.family,
        }


# ---------------------------------------------------------------------------
# closed-form eigenpairs


def path_eigenpairs(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors of the path-graph Laplacian.

    ``lam[k] = 2 - 2 cos(k pi / N)`` and the eigenvectors are the DCT-2
    vectors ``V[j, k] = sqrt(2/N) cos((j + 1/2) k pi / N)`` for k >= 1,
    with the constant vector ``V[:, 0] = 1/sqrt(N)``.  Returns
    ``(lam, V)`` with V's columns the eigenvectors.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    k = np.arange(N)
    lam = 2.0 - 2.0 * np.cos(k * np.pi / N)
    j = np.arange(N)[:, None]
    V = np.sqrt(2.0 / N) * np.cos((j + 0.5) * k[None, :] * np.pi / N)
    V[:, 0] = 1.0 / np.sqrt(N)
    return lam, V


def circulant_eigenvalues(n: int, k: int) -> np.ndarray:
    """Laplacian eigenvalues of the cycle power C_n^k.

    The Laplacian is circulant, so for m = 0..n-1:
    ``lam_m = 2 * sum_{l=1..k} (1 - cos(2 pi l m / n))``.
    """
    if n < 3 or k < 1 or 2 * k > n:
        raise ValueError("require n >= 3 and 1 <= k <= n/2")
    m = np.arange(n)[:, None]
    l = np.arange(1, k + 1)[None, :]
    return 2.0 * np.sum(1.0 - np.cos(2.0 * np.pi * l * m / n), axis=1)


# ---------------------------------------------------------------------------
# dense pseudoinverse route


def _as_sparse(D) -> sp.csr_matrix:
    if sp.issparse(D):
        return D.tocsr()
    return sp.csr_matrix(np.asarray(D, dtype=float))


def _dense_laplacian(D: sp.csr_matrix, size_cap: int) -> np.ndarray:
    """L = D^T D as a dense array; refuses n > size_cap before allocating."""
    if D.shape[1] > size_cap:
        raise ValueError(
            f"dense spectral route capped at n={size_cap}; use a structured method"
        )
    return (D.T @ D).toarray()


def _dense_spectrum(D):
    """The one dense route: ``(lam, V, inv, sq_norms)`` for L = D^T D.

    ``lam, V`` are the eigenpairs of L and ``inv`` holds ``1/lam_k``;
    eigenvalues below ``RANK_CUTOFF`` times the largest one are dropped
    from the inversion (which keeps the kernel dimension at exactly one
    for connected graphs), so ``L^+ = V diag(inv) V^T``.

    ``sq_norms[e]`` is the squared norm of column e of D^+ = L^+ D^T, i.e.
    ``diag(D (L^+)^2 D^T)[e]``, evaluated as the squared norm of row e of
    ``D V diag(inv)``.  D is taken n rows at a time, so no array beyond
    n x n is allocated; this works for any matrix with n columns,
    incidence or not.
    """
    D = _as_sparse(D)
    m, n = D.shape
    lam, V = np.linalg.eigh(_dense_laplacian(D, DENSE_SIZE_CAP))
    cutoff = RANK_CUTOFF * max(lam[-1], 0.0)
    inv = np.where(lam > cutoff, 1.0 / np.where(lam > cutoff, lam, 1.0), 0.0)
    sq_norms = np.empty(m)
    for start in range(0, m, n):
        W = D[start:start + n] @ V
        W *= inv
        sq_norms[start:start + n] = np.einsum("ij,ij->i", W, W)
    return lam, V, inv, sq_norms


def pseudoinverse_columns_dense(D) -> np.ndarray:
    """Moore-Penrose pseudoinverse S = (D^T D)^+ D^T, shape (n, m).

    Column j of the result is ``s_j``.  Raises for n beyond
    ``DENSE_SIZE_CAP``; use the structured eigensum for large grids instead.
    """
    _, V, inv, _ = _dense_spectrum(D)
    return (_as_sparse(D) @ ((V * inv) @ V.T)).T


def rho_dense(D) -> float:
    """max_j ||s_j||_2 via dense eigendecomposition, up to ``DENSE_SIZE_CAP`` vertices."""
    _, _, _, sq_norms = _dense_spectrum(D)
    return float(np.sqrt(sq_norms.max()))


def rho_dense_gram(graph) -> float:
    """Alias of :func:`rho_dense` on the graph's incidence matrix."""
    return rho_dense(G.incidence(graph))


def rho_estimate(graph: G.Graph) -> float:
    """rho (or a sharp upper bound) for the theorem-general lambda rule: the ``auto`` route."""
    return _route(graph, "auto")[0]


# ---------------------------------------------------------------------------
# structured eigensum for grids and hypercubes


def rho_structured_grid(d: int, N: int) -> float:
    """Exact rho for the d-dimensional grid with side N via the DCT eigensum.

    The grid Laplacian is the d-fold Kronecker sum of the path Laplacian,
    so every squared column norm of D^+ is

        sum_{k != 0} (lam_{k_1} + ... + lam_{k_d})^{-2}
                     <v_{k_1}, d_{i_1}>^2  prod_{j>=2} <v_{k_j}, e_{i_j}>^2

    for an edge along axis 1 (axes are exchangeable, so the maximum over
    axis-1 edges is the global maximum).  All column norms are obtained
    at once through a sequence of tensor contractions, O(d * N^(d+1)).
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if N < 2:
        raise ValueError("side length must be >= 2")
    if N**d > STRUCTURED_SIZE_CAP:
        raise ValueError(f"structured eigensum capped at N^d <= {STRUCTURED_SIZE_CAP}")
    lam, V = path_eigenpairs(N)
    if d == 1:
        # single axis: columns indexed by the edge only
        A = (V[:-1, :] - V[1:, :]) ** 2  # A[i, k] = <v_k, d_i>^2
        inv2 = np.zeros(N)
        inv2[1:] = lam[1:] ** -2.0
        return float(np.sqrt((A @ inv2).max()))
    lam_sum = reduce(np.add.outer, [lam] * d)
    W = np.zeros_like(lam_sum)
    nz = lam_sum > 1e-12
    W[nz] = lam_sum[nz] ** -2.0
    A = (V[:-1, :] - V[1:, :]) ** 2  # (N-1, N): axis-1 edge factors
    B = V**2  # (N, N): B[j, k] = <v_k, e_j>^2
    # Contract k_1 with A, then k_2..k_d with B; the running tensor keeps
    # the already-contracted vertex axes at the front.
    T = np.tensordot(W, A, axes=([0], [1]))  # (N,)*(d-1) + (N-1,)
    for _ in range(d - 1):
        T = np.tensordot(T, B, axes=([0], [1]))
    return float(np.sqrt(T.max()))


# ---------------------------------------------------------------------------
# compatibility factor


def kappa_lower_bound(max_degree: int, t_size: int) -> float:
    """Closed-form bound kappa_T >= 1 / (2 min(sqrt(d_max), sqrt(|T|))).

    Returns 1 for the empty set, by convention kappa_empty = 1.
    """
    if t_size < 0:
        raise ValueError("t_size must be nonnegative")
    if t_size == 0:
        return 1.0
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1 for a nonempty T")
    return 1.0 / (2.0 * min(np.sqrt(max_degree), np.sqrt(t_size)))


def kappa_exact_bruteforce(D, T) -> float:
    """Exact kappa_T by enumerating the 2^|T| dual sign patterns.

    Uses ``sup_{||theta||=1} ||(D theta)_T||_1 = max_s ||D_T^T s||_2``
    over sign vectors s, so ``kappa_T = sqrt(|T|) / max_s ||D_T^T s||_2``.
    Only half the patterns are enumerated (s and -s give the same norm);
    |T| is capped at ``KAPPA_BRUTEFORCE_CAP``.
    """
    T = np.unique(np.asarray(list(T), dtype=np.int64))
    t = len(T)
    if t == 0:
        return 1.0
    if t > KAPPA_BRUTEFORCE_CAP:
        raise ValueError(f"brute-force kappa capped at |T| <= {KAPPA_BRUTEFORCE_CAP}")
    DT = _as_sparse(D)[T].toarray()  # (t, n)
    best = 0.0
    total = 1 << (t - 1)  # fix the sign of the last edge
    chunk = 1 << 14
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        signs = np.ones((len(codes), t))
        for b in range(t - 1):
            signs[:, b] = np.where((codes >> np.uint64(b)) & np.uint64(1), -1.0, 1.0)
        combos = signs @ DT  # (chunk, n)
        best = max(best, float(np.sqrt((combos**2).sum(axis=1).max())))
    return float(np.sqrt(t) / best)


def spectral_gap(D) -> tuple[float, float]:
    """Second-smallest Laplacian eigenvalue and the induced bound on rho.

    Returns ``(lambda_2, sqrt(2)/lambda_2)``; the second value bounds rho
    for any connected graph because every column of D^T has norm sqrt(2)
    and is orthogonal to the constant vector.  Eigenvalues alone fit up to
    ``GAP_SIZE_CAP`` vertices, twice the dense cap.
    """
    lam = np.linalg.eigvalsh(_dense_laplacian(_as_sparse(D), GAP_SIZE_CAP))
    lam2 = float(lam[1])
    bound = float(np.sqrt(2.0) / lam2) if lam2 > 0 else np.inf
    return lam2, bound


# ---------------------------------------------------------------------------
# the route to rho and lambda_2, and the report


def _route(g, method: str):
    """The one choice of how rho and lambda_2 are computed.

    ``g`` is a Graph or a difference matrix; returns ``(rho, lambda_2,
    rho_method, eigenvalues)``, the last only on the dense route.  ``"auto"``
    takes the closed form for complete and star graphs, the structured
    eigensum for grids and hypercubes, the spectral-gap bound for
    Erdos-Renyi and random regular graphs past ``DENSE_SIZE_CAP`` vertices
    and the dense pseudoinverse otherwise (always for a matrix).
    """
    if method not in ("auto", "dense", "structured"):
        raise ValueError(f"unknown method {method!r}")
    graph = g if isinstance(g, G.Graph) else None
    structured = graph is not None and graph.family in ("grid", "hypercube")
    if graph is not None and method == "auto":
        n = graph.n
        if graph.family == "complete":
            return float(np.sqrt(2.0) / n), float(n), "closed_form", None
        if graph.family == "star":  # S_2 is a single edge, with lambda_2 = 2
            return float(np.sqrt((n * n - n)) / n), 1.0 if n >= 3 else 2.0, "closed_form", None
        if n > DENSE_SIZE_CAP and graph.family in ("erdos_renyi", "random_regular"):
            lam2, bound = spectral_gap(G.incidence(graph))
            return bound, lam2, "spectral_gap_bound", None
        method = "structured" if structured else "dense"
    if graph is not None and method == "structured":
        if not structured:
            raise ValueError("structured eigensum is only defined for grid/hypercube, "
                             f"not {graph.family!r}")
        N = graph.params.get("N", 2)  # a hypercube is the grid of side 2
        # smallest positive Kronecker-sum eigenvalue: one axis at lam_1, rest at 0
        lam2 = float(2.0 - 2.0 * np.cos(np.pi / N))
        return rho_structured_grid(graph.params["d"], N), lam2, "eigensum_structured", None
    lam, _, _, sq_norms = _dense_spectrum(g if graph is None else G.incidence(graph))
    lam2 = float(lam[1]) if len(lam) > 1 else None
    return float(np.sqrt(sq_norms.max())), lam2, "dense_pseudoinverse", lam


def spectral_report(g, method: str = "auto") -> SpectralReport:
    """rho, lambda_2 and the kappa bound at |T| = m of a Graph or a difference matrix.

    ``method`` is ``"auto"`` (the route of :func:`rho_estimate`),
    ``"dense"`` (capped at ``DENSE_SIZE_CAP`` vertices) or ``"structured"``
    (grids and hypercubes only); a matrix, such as the anchored path of
    :func:`graphs.build_augmented_path`, always takes the dense route.
    """
    if isinstance(g, G.Graph):
        if g.m == 0:
            raise ValueError("spectral report needs at least one edge")
        n, m, max_degree, family = g.n, g.m, G.max_degree(g), g.family
    else:
        D = _as_sparse(g)
        m, n = D.shape
        max_degree, family = int(np.diff(D.tocsc().indptr).max()), "custom"
    rho, lam2, rho_method, eigenvalues = _route(g, method)
    return SpectralReport(
        graph_n=n, graph_m=m, rho=rho, rho_method=rho_method,
        kappa_lower_bound=kappa_lower_bound(max_degree, m), family=family,
        eigenvalues=eigenvalues, spectral_gap=lam2,
    )
