"""Graph total-variation denoising.

Solves, for a graph with incidence matrix D,

    minimize_theta   (1/n) ||theta - y||_2^2  +  lam * ||D theta||_1

and certifies optimality through the first-order condition

    (2/n) (theta - y) + lam * D^T z = 0,   ||z||_inf <= 1,
    z_e = sign((D theta)_e) on every edge with a jump.

The default algorithm is accelerated projected gradient on the
box-constrained dual: with mu = n*lam/2, the dual is

    minimize_u  (1/2) ||y - D^T u||_2^2   subject to  ||u||_inf <= mu,

and the primal iterate theta = y - D^T u preserves the per-component
mean of y exactly.  Any algorithm achieving the certificate above is a
valid replacement.  The step size is 1/L for a certified upper bound L
on the largest eigenvalue of D^T D (``operator_norm``), which is all
the accelerated gradient method needs.

The estimates are piecewise constant, and by complementary slackness
every edge whose dual entry is strictly inside the box (|u_e| < mu) is
flat at the optimum.  So each convergence check that theta fails also
tests the dual-fused candidate: theta averaged over the connected
components of those edges, with z = u/mu on its flat edges and
sign(D theta) on its jumps.  Its residual is computed directly and its
duality gap against u is the gap of theta plus the change in the primal
objective.  It passes as soon as the flat pieces are found, long before
every near-flat edge of theta falls below the jump tolerance.

The certificate of a given theta (``kkt_certificate``) fixes z on the
jumps and fits the free entries by the same projected-gradient loop.
When the free edges form a forest, their incidence matrix has full row
rank and the free entries are the unique solution of a square sparse
system, which starts the loop: for an exact theta (the taut string on a
path, any tree) it is the dual, and the loop ends within a few steps.

Two exact special-purpose solvers are provided as independent
cross-checks and fast paths: a taut-string solver for path graphs and a
sort-plus-isotonic reduction for complete graphs.  The isotonic fit is an
in-house pool-adjacent-violators pass in numpy (``_isotonic``), so that
importing the package does not load ``scipy.optimize``.

``solve`` is the one route from a graph to a certified ``DenoiseResult``:
``solver_for`` alone picks the taut string for a path, the sort-plus-
isotonic reduction for a complete graph and ``denoise`` for anything
else.  It alone warns about a disconnected graph, and only for a custom
graph or a bare matrix: the named families are connected by
construction.  The path estimate is certified by ``kkt_certificate``;
the K_n estimate by ``_complete_certificate``, which reads no incidence
matrix.  Every certificate counts an edge as a jump above
``JUMP_RTOL * (1 + ||y||_inf)`` (``_scale``).

On K_n, once theta is sorted into blocks of equal value, every edge
between blocks carries the sign of its jump, and the in-block entries of
z must carry the rest of the stationarity condition.  By Gale's
feasibility theorem for flows ("A theorem on flows in networks", 1957)
they can, with ``|z| <= t``, exactly when the demand sums to zero on each
block and the k largest demands of a block of b vertices sum to at most
``t k (b - k)`` for every k.
"""
from __future__ import annotations

import numbers
import warnings
from dataclasses import MISSING, dataclass, field, fields

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import spsolve

from . import graphs as G
from . import spectral as spec

LAMBDA_RULES = ("theorem_general", "corollary", "manual")

# Iterations between the convergence checks of the iterative solvers.
CHECK_EVERY = 25
# An edge with |(D theta)_e| above JUMP_RTOL * _scale(y) is a jump, else flat.
JUMP_RTOL = 1e-8


# ---------------------------------------------------------------------------
# problem / result containers


@dataclass
class DenoiseProblem:
    """One denoising instance: observations y, incidence D, weight lam.

    ``lam`` multiplies ``||D theta||_1`` against ``(1/n)||theta - y||_2^2``.
    ``D`` is a difference matrix, or a Graph whose incidence matrix and step
    bound ``op_norm = operator_norm(D)`` are built once and kept on it; for
    a matrix ``op_norm`` is None and :func:`denoise` computes the bound.
    """

    y: np.ndarray
    D: sp.spmatrix
    lam: float
    op_norm: float | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.y = _check_exact_input(self.y, self.lam)
        if isinstance(self.D, G.Graph):
            derived = self.D._derived
            if "D" not in derived:
                derived["D"] = D = G.incidence(self.D)
                for a in (D.data, D.indices, D.indptr):  # shared by every problem on the Graph
                    a.setflags(write=False)
                derived["op_norm"] = operator_norm(D)
            self.D, self.op_norm = derived["D"], derived["op_norm"]
        elif not sp.issparse(self.D):
            self.D = sp.csr_matrix(np.asarray(self.D, dtype=float))
        else:
            self.D = self.D.tocsr()
        if self.y.ndim != 1 or self.y.shape[0] != self.D.shape[1]:
            raise ValueError("y must be a vector of length D.shape[1]")
        if not np.all(np.isfinite(self.D.data)):
            raise ValueError("D contains NaN or Inf")


@dataclass
class SolverOptions:
    tol: float = 1e-6
    max_iter: int = 50000
    z0: np.ndarray | None = None  # warm start for the scaled dual, in [-1, 1]^m

    def __post_init__(self):
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be finite and positive")
        if not self.max_iter >= 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class DenoiseResult:
    theta_hat: np.ndarray
    dual_z: np.ndarray | None  # None on the complete-graph route, which builds no D
    iterations: int
    stationarity_residual: float
    dual_feasibility: float
    objective: float
    converged: bool
    # P(theta_hat) minus the dual value of the iterate it was checked with;
    # None for the exact solvers, which have no dual iterate
    duality_gap: float | None
    fused: bool  # theta_hat is the dual-fused candidate (see ``denoise``)
    solver: str = "dual_fista"  # the route taken, see ``solver_for``


def _scale(y: np.ndarray) -> float:
    """``1 + ||y||_inf`` (1 for an empty y), the scale of every tolerance on a solution."""
    return 1.0 + (float(np.max(np.abs(y))) if y.size else 0.0)


def objective_value(y: np.ndarray, D, lam: float, theta: np.ndarray) -> float:
    """(1/n) ||theta - y||^2 + lam ||D theta||_1."""
    fit = float(np.mean((theta - y) ** 2))
    if lam == 0 or D.shape[0] == 0:
        return fit
    return fit + lam * float(np.abs(D @ theta).sum())


def operator_norm(D) -> float:
    """Certified upper bound on the largest eigenvalue of D^T D.

    ``||D x|| <= || |D| |x| ||``, so the spectral radius of Q = |D|^T |D|
    bounds it, and so does every quotient ``max_i (Q x)_i / x_i`` with
    x > 0 (Collatz-Wielandt).  From x = Q 1 (twice the degrees of a
    graph) the first quotient is at most the Anderson-Morley bound
    max over edges of d_i + d_j; each of eight power steps on Q + I
    (positive even at isolated vertices) can only lower it.  Exact on stars.
    """
    n = D.shape[1]
    if D.shape[0] == 0 or n == 0:
        return 0.0
    A = sp.csr_matrix(abs(D))
    At = A.T.tocsr()
    x = At @ (A @ np.ones(n))
    x[x == 0.0] = 1.0
    bound = np.inf
    for _ in range(8):
        Qx = At @ (A @ x)
        bound = np.minimum(bound, np.max(Qx / x))  # NaN in D propagates
        x = Qx + x
        x /= np.max(x)
    return float(bound)


def _fusion_graph(D) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of D that read ``a (theta_i - theta_j)``, with their endpoints.

    Returns ``(rows, i, j)``: every row with exactly two nonzero entries
    of opposite sign and equal size.  Other rows, such as the anchor row
    of the augmented path, never link vertices.
    """
    nnz = np.diff(D.indptr)
    rows = np.flatnonzero(nnz == 2)
    first = D.indptr[rows]
    a, b = D.data[first], D.data[first + 1]
    keep = (a == -b) & (a != 0.0)
    return rows[keep], D.indices[first[keep]], D.indices[first[keep] + 1]


def _components(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Component label of each of n vertices joined by the edges (i, j).

    The link matrix is built in csr form directly: row i holds the j of
    its edges.  ``_fusion_graph`` returns edges in row order, so i is
    usually nondecreasing already and the sort is skipped.
    """
    if np.any(i[1:] < i[:-1]):
        order = np.argsort(i, kind="stable")
        i, j = i[order], j[order]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(i, minlength=n))))
    links = sp.csr_matrix((np.ones(len(j)), np.ascontiguousarray(j), indptr), shape=(n, n))
    return connected_components(links, directed=False)[1]


def _forest_dual(DF, DFt, b: np.ndarray) -> np.ndarray | None:
    """Solve ``DF^T w = b`` off one vertex per tree if the rows of DF form a forest, else None.

    Every row must read ``a (theta_i - theta_j)`` and the m rows must
    join the n vertices into exactly ``n - m`` components.  Then DF has
    full row rank, and dropping one vertex per tree leaves a square,
    nonsingular system for one sparse solve.  When b sums to zero on
    every tree, as it does at an exact solution, w solves all of
    ``DF^T w = b`` and is its only solution.  Isolated vertices are trees
    of one vertex and drop out entirely.
    """
    m, n = DF.shape
    _, i, j = _fusion_graph(DF)
    if len(i) < m:
        return None
    tree = _components(n, i, j)
    roots = np.unique(tree, return_index=True)[1]
    if m != n - len(roots):
        return None
    keep = np.ones(n, dtype=bool)
    keep[roots] = False
    return spsolve(DFt[keep].tocsc(), b[keep])


# ---------------------------------------------------------------------------
# general solver: FISTA on the box-constrained dual


def _apg_box(grad, u0: np.ndarray, step: float, bound: float, max_iter: int):
    """Accelerated projected gradient on the box ``||u||_inf <= bound``.

    Yields ``(it, u_prev, u)`` after each of at most ``max_iter``
    iterations; the consumer tests convergence and stops iterating.
    Momentum restarts whenever the step opposes the last move (gradient
    restart).  The iterates live in three rotating buffers plus one
    scratch buffer, so the yielded arrays are valid until the next step
    only; ``u0`` itself is never modified.
    """
    u = np.array(u0, dtype=float)
    u_prev = np.empty_like(u)
    v = u.copy()
    s = np.empty_like(u)
    t = 1.0
    for it in range(1, max_iter + 1):
        u_new = u_prev  # the oldest buffer is free
        np.multiply(grad(v), step, out=s)
        np.subtract(v, s, out=s)
        np.maximum(s, -bound, out=u_new)  # clip to the box
        np.minimum(u_new, bound, out=u_new)
        np.subtract(v, u_new, out=s)
        np.subtract(u_new, u, out=v)  # v now holds the move u_new - u
        if np.dot(s, v) > 0.0:  # gradient-based restart
            t_new = 1.0
            np.copyto(v, u_new)
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            np.multiply(v, (t - 1.0) / t_new, out=v)
            np.add(u_new, v, out=v)
        u_prev, u = u, u_new
        t = t_new
        yield it, u_prev, u


def denoise(problem: DenoiseProblem, opts: SolverOptions | None = None) -> DenoiseResult:
    """Solve the TV denoising problem and return a certified result.

    Every ``CHECK_EVERY`` iterations the primal iterate theta = y - D^T u
    is tested: the stationarity certificate must pass at
    ``opts.tol * (1 + ||y||_inf)`` and its duality gap against u at
    ``opts.tol * (1 + fit)``.  When it fails, the dual-fused candidate
    is tested the same way: theta averaged over the connected components
    of the edges whose dual entry is strictly inside the box, which are
    flat at the optimum by complementary slackness.  Its gap is
    ``gap + P(fused) - P(theta)``.  The solve stops at the first
    candidate that passes, or at ``opts.max_iter`` with
    ``converged=False`` and the best candidate found.  On a disconnected
    graph the solution is exact per component and keeps the mean of y on
    each; fusion never crosses components.  :func:`solve` warns about a
    disconnected custom graph.
    """
    opts = opts or SolverOptions()
    y, D, lam = problem.y, problem.D, problem.lam
    m, n = D.shape
    scale = _scale(y)
    fuse_rows, fuse_i, fuse_j = _fusion_graph(D)
    jump_tol = JUMP_RTOL * scale
    if m == 0 or lam == 0.0:
        theta = y.copy()
        Dtheta = D @ theta  # z = sign(D theta) on jumps, as for any result
        z = np.where(np.abs(Dtheta) > jump_tol, np.sign(Dtheta), 0.0)
        return DenoiseResult(theta, z, 0, 0.0, float(np.max(np.abs(z), initial=0.0)),
                             objective_value(y, D, lam, theta), True, 0.0, False)

    mu = 0.5 * n * lam
    op = problem.op_norm if problem.op_norm is not None else operator_norm(D)
    if op <= 0.0:
        raise ValueError("operator norm of D must be positive")
    step = 1.0 / op
    Dt = D.T.tocsr()

    if opts.z0 is not None:
        u0 = mu * np.clip(np.asarray(opts.z0, dtype=float), -1.0, 1.0)
    else:
        u0 = np.zeros(m)
    best = None  # (score, residual, gap, theta, z, fused) of the best candidate so far
    converged = False
    for it, _, u in _apg_box(lambda v: D @ (Dt @ v - y), u0, step, mu, opts.max_iter):
        if it % CHECK_EVERY != 0 and it != opts.max_iter:
            continue
        theta = y - Dt @ u
        Dtheta = D @ theta
        z = u / mu
        fit = float(np.mean((theta - y) ** 2))
        tv = float(np.abs(Dtheta).sum())
        # exact duality gap of the dual iterate: bounds the objective
        # suboptimality, catching near-zero edge differences that the
        # jump-tolerance classification treats as flat
        gap = np.maximum(0.0, lam * tv - (2.0 / n) * float(Dtheta @ u))
        for fused in (False, True):
            if fused:
                flat = np.abs(u[fuse_rows]) < mu
                piece = _components(n, fuse_i[flat], fuse_j[flat])
                theta_f = (np.bincount(piece, weights=theta) / np.bincount(piece))[piece]
                Dtheta = D @ theta_f
                fit_f = float(np.mean((theta_f - y) ** 2))
                tv_f = float(np.abs(Dtheta).sum())
                # P(theta_f) minus the dual value of u, without a ||y||^2 cancellation
                gap = np.maximum(0.0, gap + (fit_f - fit) + lam * (tv_f - tv))
                theta, fit = theta_f, fit_f
            jumps = np.abs(Dtheta) > jump_tol
            zq = z.copy()
            zq[jumps] = np.sign(Dtheta[jumps])
            resid = float(np.max(np.abs((2.0 / n) * (theta - y) + lam * (Dt @ zq))))
            # np.max and np.maximum propagate NaN, which never passes the test
            score = float(np.max([resid / scale, gap / (1.0 + fit)]))
            if best is None or score < best[0]:
                best = (score, resid, float(gap), theta, zq, fused)
            if score <= opts.tol and np.all(np.isfinite(theta)):
                converged = True
                break
        if converged:
            break

    _, resid, gap, theta, zq, fused = best
    return DenoiseResult(
        theta_hat=theta,
        dual_z=zq,
        iterations=it,
        stationarity_residual=resid,
        dual_feasibility=float(np.max(np.abs(zq))),
        objective=objective_value(y, D, lam, theta),
        converged=converged,
        duality_gap=gap,
        fused=fused,
    )


# ---------------------------------------------------------------------------
# certificate construction (solver-agnostic)


def kkt_certificate(problem: DenoiseProblem, theta: np.ndarray,
                    max_iter: int = 20000) -> tuple[np.ndarray, float]:
    """Best subgradient certificate for a candidate theta.

    Sets ``z_e = sign((D theta)_e)`` on jump edges and solves a
    box-constrained least-squares problem for the remaining entries to
    minimize the stationarity residual
    ``||(2/n)(theta - y) + lam D^T z||``; returns ``(z, residual_inf)``.
    The residual of the returned z is an upper bound on the best
    achievable one, so a small value certifies near-optimality of theta.

    The free entries come from accelerated projected gradient on the box
    ``||z||_inf <= 1``, which keeps the best residual it checks.  When
    the free rows of D form a forest (``_forest_dual``), D_F has full row
    rank, so ``D_F^T z_F = -r0/lam`` (r0 the residual of the jump
    entries alone) has at most one solution, and for an exact theta that
    solution is the dual: one sparse solve finds it, and the loop, which
    starts from its clip to [-1, 1], stops after a few iterations.  For
    an inexact theta the clipped solution can be far worse than what the
    loop reaches, so the loop runs on from it as from any start.  Free
    rows with a cycle start from zero.
    """
    y, D, lam = problem.y, problem.D, problem.lam
    m, n = D.shape
    theta = np.asarray(theta, dtype=float)
    r_base = (2.0 / n) * (theta - y)
    if m == 0:
        return np.zeros(0), float(np.max(np.abs(r_base)))
    Dtheta = D @ theta
    jumps = np.abs(Dtheta) > JUMP_RTOL * _scale(y)
    z = np.zeros(m)
    z[jumps] = np.sign(Dtheta[jumps])
    if lam == 0.0:
        return z, float(np.max(np.abs(r_base)))
    r0 = r_base + lam * (D[jumps].T @ z[jumps]) if jumps.any() else r_base
    free = ~jumps
    if not free.any():
        return z, float(np.max(np.abs(r0)))

    DF = D[free].tocsr()
    op = operator_norm(DF)
    if op <= 0.0:
        return z, float(np.max(np.abs(r0)))
    step = 1.0 / (lam * lam * op)
    DFt = DF.T.tocsr()
    w_forest = _forest_dual(DF, DFt, -r0 / lam)
    best_w = np.zeros(DF.shape[0]) if w_forest is None else np.clip(w_forest, -1.0, 1.0)
    best_resid = float(np.max(np.abs(r0 + lam * (DFt @ best_w))))
    for it, w_prev, w in _apg_box(lambda v: lam * (DF @ (r0 + lam * (DFt @ v))),
                                  best_w, step, 1.0, max_iter):
        delta = float(np.max(np.abs(w - w_prev)))
        if it % CHECK_EVERY == 0 or delta <= 1e-14:
            resid = float(np.max(np.abs(r0 + lam * (DFt @ w))))
            if resid < best_resid:
                best_resid = resid
                best_w = w.copy()
            if delta <= 1e-14:
                break
    z[free] = best_w
    return z, best_resid


# ---------------------------------------------------------------------------
# exact path solver (taut string), used as an independent oracle


def tv1d_prox(y: np.ndarray, mu: float) -> np.ndarray:
    """Exact minimizer of (1/2)||x - y||^2 + mu * sum |x_{i+1} - x_i|.

    Direct taut-string walk: the solution is the derivative of the
    shortest path through a tube of half-width mu around the running
    sums of y.  One forward pass maintains candidate levels for the
    lower/upper string (``vmin``/``vmax``) with accumulated slacks
    (``umin``/``umax``); a slack leaving [-mu, mu] forces a jump at the
    recorded break position and the walk restarts there.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    x = np.empty(n)
    if n == 0:
        return x
    if mu <= 0.0 or n == 1:
        return y.copy()

    k = k0 = km = kp = 0
    vmin = y[0] - mu
    vmax = y[0] + mu
    umin = mu
    umax = -mu
    while True:
        while k < n - 1:
            if y[k + 1] + umin < vmin - mu:
                # lower string must jump down at the last touch point km
                x[k0 : km + 1] = vmin
                k = k0 = km = kp = km + 1
                vmin = y[k]
                vmax = y[k] + 2.0 * mu
                umin = mu
                umax = -mu
            elif y[k + 1] + umax > vmax + mu:
                # upper string must jump up at kp
                x[k0 : kp + 1] = vmax
                k = k0 = km = kp = kp + 1
                vmin = y[k] - 2.0 * mu
                vmax = y[k]
                umin = mu
                umax = -mu
            else:
                # absorb the next point, re-leveling the strings as needed
                k += 1
                umin += y[k] - vmin
                umax += y[k] - vmax
                if umin >= mu:
                    vmin += (umin - mu) / (k - k0 + 1)
                    umin = mu
                    km = k
                if umax <= -mu:
                    vmax += (umax + mu) / (k - k0 + 1)
                    umax = -mu
                    kp = k

        # right boundary: the tube collapses to the final cumulative sum
        if umin < 0.0:
            x[k0 : km + 1] = vmin
            k = k0 = km = km + 1
            vmin = y[k]
            umin = mu
            umax = y[k] + mu - vmax
            if k == n - 1:
                x[k] = vmin + umin
                return x
        elif umax > 0.0:
            x[k0 : kp + 1] = vmax
            k = k0 = kp = kp + 1
            vmax = y[k]
            umax = -mu
            umin = y[k] - mu - vmin
            if k == n - 1:
                x[k] = vmin + umin
                return x
        else:
            x[k0:] = vmin + umin / (k - k0 + 1)
            return x


def _check_exact_input(y, lam: float) -> np.ndarray:
    """y as a float vector; rejects a non-finite y, a non-finite lam or lam < 0."""
    y = np.asarray(y, dtype=float)
    if not np.isfinite(lam):
        raise ValueError("lam must be finite")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if not np.all(np.isfinite(y)):
        raise ValueError("y contains NaN or Inf")
    return y


def denoise_path_exact(y: np.ndarray, lam: float) -> np.ndarray:
    """Exact minimizer of (1/n)||theta - y||^2 + lam ||D_1 theta||_1.

    The taut string solves the (1/2, mu) normalization, so the weight is
    rescaled as mu = lam * n / 2.
    """
    y = _check_exact_input(y, lam)
    return tv1d_prox(y, 0.5 * lam * len(y))


# ---------------------------------------------------------------------------
# exact complete-graph solver


def _isotonic(x: np.ndarray) -> np.ndarray:
    """Nondecreasing least-squares fit of a nonempty vector x (PAVA).

    Adjacent violators always share a block of the solution, so blocks
    may be pooled in any order: first every maximal strictly decreasing
    run at once, then the remaining violators by a stack over those runs.
    """
    starts = np.flatnonzero(np.r_[True, x[1:] >= x[:-1]])
    sums, counts = [], []
    for s, c in zip(np.add.reduceat(x, starts).tolist(),
                    np.diff(starts, append=len(x)).tolist()):
        while sums and sums[-1] / counts[-1] > s / c:
            s += sums.pop()
            c += counts.pop()
        sums.append(s)
        counts.append(c)
    return np.repeat(np.divide(sums, counts), counts)


def denoise_complete_exact(y: np.ndarray, lam: float) -> np.ndarray:
    """Exact TV denoiser on the complete graph K_n via isotonic regression.

    The penalty ``sum_{i<j} |theta_i - theta_j|`` is symmetric, so the
    minimizer is comonotone with y; on sorted data the penalty is the
    linear form ``mu * sum_r (2r - 1 - n) theta_(r)``, which turns the
    problem into the isotonic regression of
    ``y_(r) - mu (2r - 1 - n)`` (mu = lam * n / 2).
    """
    y = _check_exact_input(y, lam)
    n = len(y)
    if lam == 0.0 or n <= 1:
        return y.copy()
    mu = 0.5 * lam * n
    order = np.argsort(y, kind="stable")
    ranks = np.arange(1, n + 1, dtype=float)
    adjusted = y[order] - mu * (2.0 * ranks - 1.0 - n)
    fitted = _isotonic(adjusted)
    theta = np.empty(n)
    theta[order] = fitted
    return theta


def _complete_certificate(y: np.ndarray, lam: float,
                          theta: np.ndarray) -> tuple[float, float, float]:
    """``(residual, dual_feasibility, tv)`` of theta on K_n, without D.

    Sorted theta splits into blocks where consecutive values differ by at
    most the jump tolerance of ``denoise``.  Vertex i of a block B of b
    vertices gets ``c_i = #below - #above`` from the edges that leave B,
    and needs in-block entries summing to
    ``w_i = -(2/(n lam))(theta_i - y_i) - c_i``.  The best residual is
    ``lam max_B |mean_B w|``; the smallest ``||z||_inf`` on the in-block
    edges that carries ``w - mean_B w`` is the largest ratio of the sum
    of its k largest entries over ``k (b - k)``, k < b (Gale).  The
    feasibility is that ratio, or 1 if any pair jumps.  ``tv`` is
    ``sum_{i<j} |theta_i - theta_j| = sum_r (2r - 1 - n) theta_(r)``.
    At lam = 0 the residual is that of z = 0 in the blocks.
    """
    n = len(y)
    order = np.argsort(theta, kind="stable")
    t = theta[order]
    tv = float(np.dot(2.0 * np.arange(1, n + 1) - 1.0 - n, t))
    grad = (2.0 / n) * (t - y[order])
    starts = np.flatnonzero(np.r_[True, np.diff(t) > JUMP_RTOL * _scale(y)])
    jumps = float(len(starts) > 1)
    if lam == 0.0:
        return float(np.max(np.abs(grad))), jumps, tv
    sizes = np.diff(starts, append=n)
    block = np.repeat(np.arange(len(starts)), sizes)
    first, b = starts[block], sizes[block]
    w = -grad / lam - (2 * first + b - n)  # #below - #above = first - (n - first - b)
    mean = np.add.reduceat(w, starts) / sizes
    dev = w - mean[block]
    dev = dev[np.lexsort((-dev, block))]  # decreasing within each block
    top = np.cumsum(dev)
    top -= (top[starts] - dev[starts])[block]  # sum of the k largest, k = 1..b
    k = np.arange(1, n + 1) - first
    inner = k < b
    ratio = np.max(top[inner] / (k[inner] * (b[inner] - k[inner])), initial=0.0)
    return lam * float(np.max(np.abs(mean))), max(jumps, float(ratio)), tv


# ---------------------------------------------------------------------------
# the solver route


def solver_for(g) -> str:
    """The solver :func:`solve` takes for ``g``, a Graph or a difference matrix.

    ``"sort_isotonic"`` for a complete graph, ``"taut_string"`` for a
    path and ``"dual_fista"`` (:func:`denoise`) for anything else, the
    anchored path and custom graphs included.
    """
    if isinstance(g, G.Graph):
        if g.family == "complete" and g.m == g.n * (g.n - 1) // 2:
            return "sort_isotonic"
        if g.family == "path":
            return "taut_string"
    return "dual_fista"


def solve(g, y, lam: float, opts: SolverOptions | None = None) -> DenoiseResult:
    """Denoise y on ``g`` (a Graph or a difference matrix) by the route of :func:`solver_for`.

    A Graph keeps the incidence matrix and step bound of its first
    :class:`DenoiseProblem`; the complete-graph route builds neither.
    The exact routes report ``converged`` when their certificate passes
    the bounds of :func:`denoise`: residual within ``opts.tol * (1 +
    ||y||_inf)`` and dual feasibility within ``1 + opts.tol``.  They take
    no iterations and have no duality gap.  The named families are
    connected by construction; for a custom Graph or a bare matrix a
    warning is attached when the rows ``a (theta_i - theta_j)`` of D
    leave the vertices disconnected, since the oracle-inequality theory
    assumes a connected graph.
    """
    opts = opts or SolverOptions()
    solver = solver_for(g)
    if solver == "sort_isotonic":
        y = _check_exact_input(y, lam)
        if y.shape != (g.n,):
            raise ValueError("y must be a vector of length n")
        theta = denoise_complete_exact(y, lam)
        z = None
        resid, feasibility, tv = _complete_certificate(y, lam, theta)
        objective = float(np.mean((theta - y) ** 2)) + lam * tv
    else:
        problem = DenoiseProblem(y, g, lam)
        if solver == "dual_fista":
            if not isinstance(g, G.Graph) or g.family == "custom":
                _, i, j = _fusion_graph(problem.D)
                if problem.D.shape[0] and _components(len(problem.y), i, j).max() > 0:
                    warnings.warn("graph is disconnected: theoretical lambda rules assume a "
                                  "connected graph; the solution preserves the mean per "
                                  "component", UserWarning, stacklevel=2)
            return denoise(problem, opts)
        y = problem.y
        theta = denoise_path_exact(y, lam)
        z, resid = kkt_certificate(problem, theta)
        feasibility = float(np.max(np.abs(z), initial=0.0))
        objective = objective_value(y, problem.D, lam, theta)
    converged = resid <= opts.tol * _scale(y) and feasibility <= 1.0 + opts.tol
    return DenoiseResult(theta, z, 0, resid, feasibility, objective, bool(converged),
                         None, False, solver)


# ---------------------------------------------------------------------------
# theoretical regularization levels


@dataclass
class LambdaRule:
    """Recipe for the regularization weight.

    ``theorem_general`` is the sharp generic choice
    ``sigma * rho * sqrt(2 log(e m / delta)) / n``; ``corollary`` plugs in
    the known growth of rho for the graph's family (see
    :func:`lambda_value`).  Both carry a tunable leading constant
    ``constant_c``.  ``manual`` passes ``value`` through unchanged.  An
    experiment config sets ``sigma`` from its noise level, and ``denoise
    --sigma`` sets it on the command line.
    """

    rule: str
    sigma: float = 1.0
    delta: float = 0.1
    constant_c: float = 1.0
    value: float | None = None  # for rule == "manual"

    def __post_init__(self):
        if self.rule not in LAMBDA_RULES:
            raise ValueError(f"unknown lambda rule {self.rule!r}; have {', '.join(LAMBDA_RULES)}")
        for name in ("sigma", "delta", "constant_c", "value"):
            x = getattr(self, name)
            if x is not None and not np.isfinite(x):
                raise ValueError(f"{name} must be finite")
        if self.rule != "manual":
            # sigma = 0 is allowed and yields lambda = 0 (noiseless passthrough)
            if self.sigma < 0:
                raise ValueError("sigma must be nonnegative")
            if not 0 < self.delta < 1:
                raise ValueError("delta must lie in (0, 1)")
            if self.constant_c <= 0:
                raise ValueError("constant_c must be positive")
            if self.value is not None:
                raise ValueError(f"value is read only by the manual rule, not {self.rule!r}")


# The JSON values accepted for each field annotation of a config dataclass.
JSON_TYPES = {"str": str, "int": numbers.Integral, "float": numbers.Real, "dict": dict,
              "list": list, "tuple": (list, tuple), "list | None": (list, type(None)),
              "float | None": (numbers.Real, type(None))}


def check_json_fields(cls, d, what: str) -> None:
    """Reject a JSON object with unknown, missing or mistyped fields of dataclass ``cls``."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object")
    for key in d:
        if key not in cls.__dataclass_fields__:
            raise ValueError(f"unknown {what} key {key!r}")
    for f in fields(cls):
        if f.name not in d and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"missing {what} key {f.name!r}")
        if f.name in d and (isinstance(d[f.name], bool)
                            or not isinstance(d[f.name], JSON_TYPES[f.type])):
            raise ValueError(f"{what} key {f.name!r} must be {f.type}, got {d[f.name]!r}")


def lambda_value(rule: LambdaRule, graph=None) -> float:
    """Evaluate a LambdaRule for a graph.

    ``theorem_general`` reads rho from ``spectral.rho_estimate``.
    ``corollary`` takes the formula of the graph's family: the 2-D grid;
    grids with d >= 3, hypercubes and stars; complete graphs; Erdos-Renyi
    and random regular graphs, through the expected degree; cycle powers.
    A path, a 1-D grid or a custom graph has none and raises ``ValueError``.
    """
    if rule.rule == "manual":
        if rule.value is None:
            raise ValueError("manual rule needs a value")
        return float(rule.value)
    if graph is None:
        raise ValueError("lambda_value needs a graph for non-manual rules")
    n, m = graph.n, graph.m
    c, s, dl = rule.constant_c, rule.sigma, rule.delta
    if rule.rule == "theorem_general":
        return c * s * spec.rho_estimate(graph) * np.sqrt(2.0 * np.log(np.e * m / dl)) / n
    family, d = graph.family, graph.params.get("d")
    if family == "grid" and d == 2:
        return c * s * np.sqrt(np.log(n) * np.log(np.e * n / dl)) / n
    if family in ("hypercube", "star") or (family == "grid" and d >= 3):
        return c * s * np.sqrt(np.log(np.e * n / dl)) / n
    if family == "complete":
        return c * s * np.sqrt(np.log(np.e * n / dl)) / (n * n)
    if family in ("erdos_renyi", "random_regular"):
        # the expected degree
        dn = float(graph.params["p"] * n if family == "erdos_renyi" else d)
        return c * s * np.sqrt(np.log(np.e * dn * n / dl)) / (dn * n)
    if family == "cycle_power":
        k = graph.params["k"]
        return c * s * np.sqrt(np.log(np.e * n / dl)) / min(np.sqrt(n) * k**3, n)
    what = "1-D grid" if family == "grid" else f"{family} graph"
    raise ValueError(f"the corollary rule has no lambda for a {what}; use the "
                     f"theorem_general rule or set lambda directly (--lambda-value)")
