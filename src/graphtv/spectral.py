"""Laplacian eigenstructure and the constants that govern TV denoising.

Two scalar quantities control the theoretical regularization level and
the error rates of the graph TV denoiser:

* the *inverse scaling factor* ``rho``: the largest Euclidean column
  norm of the Moore-Penrose pseudoinverse of the incidence matrix, and
* the *compatibility factor* ``kappa_T``: the infimum over signals of
  ``sqrt(|T|) * ||theta||_2 / ||(D theta)_T||_1`` for an edge subset T.

``_route`` alone picks how ``rho`` is computed: a closed form, an eigensum
in the DCT-2 basis of the path graph, the dense pseudoinverse of the
Laplacian, or a spectral-gap bound, from a Graph's family tag, which
:class:`graphs.Graph` checks against the edges.  The dense pseudoinverse
and the gap bound share one in-place Cholesky factorization of L + P, P
the projector onto the kernel of L (LAPACK ``dpotrf``); lambda_2 comes
from Lanczos (ARPACK) on L^+, not from an eigendecomposition.
``kappa_T`` is exposed as an exact brute-force oracle (sign enumeration)
plus the closed-form degree bound.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse.linalg import LinearOperator, eigsh

from . import graphs as G

DENSE_SIZE_CAP = 4096
GAP_SIZE_CAP = 2 * DENSE_SIZE_CAP
STRUCTURED_SIZE_CAP = 4_200_000
ROW_BLOCK = 256
LANCZOS_MIN_N = 16
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
    ``lam_m = 2 * sum_{l=1..k} w_l (1 - cos(2 pi l m / n))``, w_l = 1 but for
    w_k = 1/2 at n = 2k, where the opposite vertex is a single neighbour.
    """
    if n < 3 or k < 1 or 2 * k > n:
        raise ValueError("require n >= 3 and 1 <= k <= n/2")
    m = np.arange(n)[:, None]
    l = np.arange(1, k + 1)[None, :]
    w = np.where(2 * l == n, 0.5, 1.0)
    return 2.0 * np.sum(w * (1.0 - np.cos(2.0 * np.pi * l * m / n)), axis=1)


# ---------------------------------------------------------------------------
# dense pseudoinverse route


def _as_sparse(D) -> sp.csr_matrix:
    if sp.issparse(D):
        return D.tocsr()
    return sp.csr_matrix(np.asarray(D, dtype=float))


def _kernel_components(D: sp.csr_matrix, L: sp.spmatrix) -> list[np.ndarray]:
    """Vertex sets c of the components of L's pattern with D 1_c = 0.

    Their indicator vectors span the kernel of L = D^T D whenever the
    Cholesky factorization in :func:`_factor` succeeds: one set per
    component of a graph, none for the anchored path.
    """
    n = D.shape[1]
    L = L.tocoo()
    off = L.row != L.col
    labels = G._components(n, L.row[off], L.col[off])
    ind = sp.csr_matrix((np.ones(n), (np.arange(n), labels)), shape=(n, labels.max() + 1))
    resid = abs(D @ ind).max(axis=0).toarray().ravel()
    scale = (abs(D) @ ind).max(axis=0).toarray().ravel()  # D 1_c = 0 up to rounding
    return [np.flatnonzero(labels == c) for c in np.flatnonzero(resid <= 1e-12 * scale)]


def _add_projector(A: np.ndarray, groups, sign: float) -> None:
    """A += sign * P in place, P the projector onto the groups' indicators.

    Works a block of rows at a time, so no temporary beyond
    ``ROW_BLOCK`` x n is allocated.
    """
    for c in groups:
        if len(c) == A.shape[0]:  # a connected graph: P = J/n
            A += sign / len(c)
        else:
            for start in range(0, len(c), ROW_BLOCK):
                A[np.ix_(c[start:start + ROW_BLOCK], c)] += sign / len(c)


def _factor(D: sp.csr_matrix, size_cap: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Upper Cholesky factor of L + P, computed in place, and P's groups.

    L = D^T D is built dense, P is the projector onto its kernel (see
    :func:`_kernel_components`), and ``scipy.linalg.lapack.dpotrf``
    overwrites the dense L + P with its factor.  Refuses n > size_cap
    before allocating, and raises ``ValueError`` when L + P is not
    positive definite to working precision: L then has a kernel its
    components do not explain.
    """
    n = D.shape[1]
    if n > size_cap:
        raise ValueError(f"dense spectral route capped at n={size_cap} vertices, got {n}; "
                         f"set lambda directly with --lambda-value")
    L = D.T @ D
    groups = _kernel_components(D, L)
    A = L.toarray()
    A = A if A.flags.f_contiguous else A.T  # L is symmetric: factor it without a copy
    _add_projector(A, groups, 1.0)
    rounding = n * np.finfo(float).eps * A.diagonal().max()
    c, info = lapack.dpotrf(A, lower=0, clean=0, overwrite_a=1)
    # Every pivot squared is at least the smallest eigenvalue of L + P, so
    # a pivot at rounding level means L + P is singular to working precision.
    if info != 0 or c.diagonal().min() ** 2 <= rounding:
        raise ValueError("D^T D has a kernel beyond the indicators of its components")
    return c, groups


def _lambda2(op, groups) -> float:
    """Second-smallest eigenvalue of L from ``op``, which applies L^+.

    0 when the kernel has dimension two or more; otherwise one over the
    (2 - dim ker)-th largest eigenvalue of L^+, found by Lanczos (ARPACK)
    from a fixed start vector, or read off the dense L^+ below
    ``LANCZOS_MIN_N`` vertices.
    """
    k = 2 - len(groups)
    if k <= 0:
        return 0.0
    n = op.shape[0]
    if n < LANCZOS_MIN_N:
        dense = op if isinstance(op, np.ndarray) else op @ np.eye(n)
        top = np.sort(np.linalg.eigvals(dense).real)[-k:]
    else:
        v0 = np.random.default_rng(0).standard_normal(n)
        top = eigsh(op, k=k, which="LA", v0=v0, return_eigenvectors=False)
    return float(1.0 / np.sort(top)[0])


def _dense_spectrum(D):
    """The one dense route: ``(Lp, sq_norms, lam2)`` for L = D^T D.

    ``Lp`` is L^+ as a dense array.  L + P, P the projector onto the
    kernel of L, is factored once in place (:func:`_factor`) and inverted
    in place with ``dpotri``; the triangle it sets is mirrored a block of
    rows at a time and P is subtracted, since (L + P)^{-1} = L^+ + P.

    ``sq_norms[e]`` is the squared norm of column e of D^+ = L^+ D^T,
    i.e. of row e of ``D Lp``, taken ``ROW_BLOCK`` rows of D at a
    time; this works for any matrix with n columns, incidence or not.
    ``lam2`` is the second-smallest eigenvalue of L (:func:`_lambda2`).
    Past the one n x n array, nothing larger than a block of rows is
    allocated.
    """
    D = _as_sparse(D)
    m, n = D.shape
    c, groups = _factor(D, DENSE_SIZE_CAP)
    inv, _ = lapack.dpotri(c, lower=0, overwrite_c=1)  # cannot fail once dpotrf has not
    Lp = inv.T  # C-ordered, so sparse @ Lp needs no copy; its lower triangle is set
    for start in range(0, n, ROW_BLOCK):
        stop = min(start + ROW_BLOCK, n)
        Lp[start:stop, stop:] = Lp[stop:, start:stop].T
        block = Lp[start:stop, start:stop]
        block[...] = np.tril(block) + np.tril(block, -1).T
    _add_projector(Lp, groups, -1.0)
    sq_norms = np.empty(m)
    for start in range(0, m, ROW_BLOCK):
        W = D[start:start + ROW_BLOCK] @ Lp
        sq_norms[start:start + ROW_BLOCK] = np.einsum("ij,ij->i", W, W)
        del W  # freed before the next block is allocated
    return Lp, sq_norms, _lambda2(Lp, groups)


def pseudoinverse_columns_dense(D) -> np.ndarray:
    """Moore-Penrose pseudoinverse S = (D^T D)^+ D^T, shape (n, m).

    Column j of the result is ``s_j``.  Raises for n beyond
    ``DENSE_SIZE_CAP``; use the structured eigensum for large grids instead.
    """
    Lp, _, _ = _dense_spectrum(D)
    return (_as_sparse(D) @ Lp).T


def rho_dense(D) -> float:
    """max_j ||s_j||_2 via the dense pseudoinverse, up to ``DENSE_SIZE_CAP`` vertices."""
    _, sq_norms, _ = _dense_spectrum(D)
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
    if max(N**d, N * N) > STRUCTURED_SIZE_CAP:  # the N x N path eigenvectors count too
        raise ValueError(f"structured eigensum capped at max(N^d, N^2) <= {STRUCTURED_SIZE_CAP}")
    lam, V = path_eigenpairs(N)
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
    and is orthogonal to the constant vector.  lambda_2 comes from the
    Cholesky factor of :func:`_factor` alone, by Lanczos with ``dpotrs``
    solves: L^+ x = (L + P)^{-1} x - P x.  That fits up to ``GAP_SIZE_CAP``
    vertices, twice the dense cap.
    """
    c, groups = _factor(_as_sparse(D), GAP_SIZE_CAP)

    def apply(x):
        y, _ = lapack.dpotrs(c, x)
        for comp in groups:  # minus P x: the mean over each kernel component
            y[comp] -= x[comp].mean()
        return y

    n = c.shape[0]
    lam2 = _lambda2(LinearOperator((n, n), matvec=apply, dtype=float), groups)
    bound = float(np.sqrt(2.0) / lam2) if lam2 > 0 else np.inf
    return lam2, bound


# ---------------------------------------------------------------------------
# the route to rho and lambda_2, and the report


def _route(g, method: str):
    """The one choice of how rho and lambda_2 are computed.

    ``g`` is a Graph or a difference matrix; returns ``(rho, lambda_2,
    rho_method)``.  ``"auto"`` takes the closed form for a Graph tagged
    ``complete`` or ``star``, the structured eigensum for one tagged
    ``grid`` or ``hypercube``, the spectral-gap bound for Erdos-Renyi and
    random regular graphs past ``DENSE_SIZE_CAP`` vertices and the dense
    pseudoinverse otherwise (always for a matrix).  ``"dense"`` forces the
    dense one.
    """
    if method not in ("auto", "dense"):
        raise ValueError(f"unknown method {method!r}")
    graph = g if isinstance(g, G.Graph) else None
    if graph is not None and method == "auto":
        n, family = graph.n, graph.family
        if family == "complete":
            return float(np.sqrt(2.0) / n), float(n), "closed_form"
        if family == "star":
            # S_2 is a single edge, with lambda_2 = 2
            return float(np.sqrt((n * n - n)) / n), 1.0 if n >= 3 else 2.0, "closed_form"
        if n > DENSE_SIZE_CAP and family in ("erdos_renyi", "random_regular"):
            lam2, bound = spectral_gap(G.incidence(graph))
            return bound, lam2, "spectral_gap_bound"
        if family in ("grid", "hypercube"):
            d, N = graph.params["d"], graph.params["N"]
            # smallest positive Kronecker-sum eigenvalue: one axis at lam_1, rest at 0
            lam2 = float(2.0 - 2.0 * np.cos(np.pi / N))
            return rho_structured_grid(d, N), lam2, "eigensum_structured"
    _, sq_norms, lam2 = _dense_spectrum(g if graph is None else G.incidence(graph))
    return float(np.sqrt(sq_norms.max())), lam2, "dense_pseudoinverse"


def spectral_report(g, method: str = "auto") -> SpectralReport:
    """rho, lambda_2 and the kappa bound at |T| = m of a Graph or a difference matrix.

    ``method`` is ``"auto"`` (the route of :func:`rho_estimate`) or
    ``"dense"`` (capped at ``DENSE_SIZE_CAP`` vertices); a matrix, such as
    the anchored path of :func:`graphs.build_augmented_path`, always takes
    the dense route.  On K_n nothing reads the edge list: the route is
    the closed form and the degree is n - 1.
    """
    if isinstance(g, G.Graph):
        if g.m == 0:
            raise ValueError("spectral report needs at least one edge")
        n, m, family = g.n, g.m, g.family
        # K_n's degree is read off n, so its edge list is never built
        max_degree = n - 1 if family == "complete" else G.max_degree(g)
    else:
        D = _as_sparse(g)
        m, n = D.shape
        max_degree, family = int(np.diff(D.tocsc().indptr).max()), "custom"
    rho, lam2, rho_method = _route(g, method)
    return SpectralReport(
        graph_n=n, graph_m=m, rho=rho, rho_method=rho_method,
        kappa_lower_bound=kappa_lower_bound(max_degree, m), family=family,
        spectral_gap=lam2,
    )
