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
the accelerated gradient method needs.  ``DenoiseProblem`` derives D,
D^T and that bound once, and a Graph keeps them, so repeated solves on
one graph pay for them once.  On a grid with d >= 2 and side N >= 3 the
loop runs on the same D in the grid's own shape (``_GridDifferences``): slice
differences on a zero-padded edge layout, whose products equal the csr
products value for value.  The checks sum over the rows of D in its
order, so only the restart test's dot product rounds differently from a
solve on the csr matrix.  Convergence is checked every ``CHECK_EVERY``
iterations, at the last iteration, and once early (``WARM_CHECK``) when
the solve starts from a warm dual.

Every route reports the duality gap P(theta) - D(z) >= P(theta) - P* >=
(1/n) ||theta - theta*||^2 of its certificate by one identity (``_gap``), and
one ``_verdict`` decides ``converged`` from the residual, the gap and ||z||_inf.

The estimates are piecewise constant, and by complementary slackness
every edge whose dual entry is strictly inside the box (|u_e| < mu) is
flat at the optimum.  So each convergence check tests one candidate:
theta averaged over the connected components of those edges (theta
itself when there are none), with z = u/mu on its flat edges and
sign(D theta) on its jumps.  Its gap is taken against u, at z = u/mu,
where r = (2/n)(candidate - iterate) needs no product with D^T.  It
passes as soon as the flat pieces are found, long before every near-flat
edge of theta falls below the jump tolerance.

The certificate of a given theta on any D (``kkt_certificate``) fixes z
on the jumps and fits the free entries by the same projected-gradient
loop from zero.  No route of ``solve`` calls it: it is the independent
oracle that the exact routes' closed-form certificates are tested against.

Two exact special-purpose solvers are provided as independent
cross-checks and fast paths: a taut-string solver for path graphs and a
sort-plus-isotonic reduction for complete graphs.  The isotonic fit is an
in-house pool-adjacent-violators pass in numpy (``_isotonic``), so that
importing the package does not load ``scipy.optimize``.

``solve`` is the one route from a graph to a certified ``DenoiseResult``:
``solver_for`` alone picks the taut string for a graph whose edges form
the path 0 - 1 - ... - (n-1), the sort-plus-isotonic reduction for a
complete graph and ``denoise`` for anything else.  It alone warns about a
disconnected graph, and only for a custom graph or a bare matrix: a named
family's tag, checked when its Graph is made, promises a connected graph.
Both exact estimates are certified in closed form from y and theta alone
(``_path_certificate``, ``_complete_certificate``).  Every certificate
counts an edge as a jump above ``JUMP_RTOL * (1 + ||y||_inf)`` (``_scale``).

On K_n, once theta is sorted into blocks of equal value, every edge
between blocks carries the sign of its jump, and the in-block entries of
z must carry the rest of the stationarity condition.  By Gale's
feasibility theorem for flows ("A theorem on flows in networks", 1957)
they can, with ``|z| <= t``, exactly when the demand sums to zero on each
block and the k largest demands of a block of b vertices sum to at most
``t k (b - k)`` for every k.
"""
from __future__ import annotations

import warnings
from dataclasses import MISSING, dataclass, field, fields

import numpy as np
import scipy.sparse as sp

from . import graphs as G
from . import spectral as spec

LAMBDA_RULES = ("theorem_general", "corollary", "manual")

# Iterations between the convergence checks of the iterative solvers.
CHECK_EVERY = 25
# The extra, early check of a warm-started ``denoise``.
WARM_CHECK = 10
# An edge with |(D theta)_e| above JUMP_RTOL * _scale(y) is a jump, else flat.
JUMP_RTOL = 1e-8


# ---------------------------------------------------------------------------
# problem / result containers


class _GridDifferences:
    """The incidence matrix of ``build_grid(d, N)`` on a zero-padded edge layout.

    Block a of the ``d n`` rows holds the forward differences along axis a
    (Chambolle, JMIV 2004): row ``a n + v`` reads ``theta_v - theta_{v +
    N^a}``, and is 0 where the axis-a coordinate of v is N - 1.  Edge e of
    the canonical list sits at row ``rows[e]``.  ``dot`` is d contiguous
    slice subtractions with the border rows zeroed; ``tdot`` adds each
    vertex's edges in the order of its row of the csr D^T, where a border
    row adds an exact zero.  So both products equal the csr products of
    :func:`graphs.incidence` value for value, at about a third of their
    cost (Beck & Teboulle's operators for TV, IEEE TIP 2009).
    """

    def __init__(self, g: G.Graph, d: int, N: int):
        self.n, self.N, self.size = g.n, N, d * g.n
        self.steps = [N**a for a in range(d)]
        i, j = g.edges.T
        self.rows = np.searchsorted(self.steps, j - i) * g.n + i
        self.rows.setflags(write=False)

    def dot(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """D x in the padded layout, written into ``out`` when given."""
        n, N = self.n, self.N
        out = np.empty(self.size) if out is None else out
        for a, s in enumerate(self.steps):
            block = out[a * n:(a + 1) * n]
            np.subtract(x[:n - s], x[s:], out=block[:n - s])
            block.reshape(-1, N, s)[:, N - 1, :] = 0.0
        return out

    def tdot(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """D^T u for a padded u, 0 on its border rows, written into ``out`` when given."""
        n, last = self.n, len(self.steps) - 1
        out = np.empty(n) if out is None else out
        s = self.steps[last]  # the csr row of v starts at its edge (v - N^(d-1), v)
        np.subtract(0.0, u[last * n:last * n + n - s], out=out[s:])
        out[:s] = 0.0
        for a in range(last - 1, -1, -1):
            s = self.steps[a]
            np.subtract(out[s:], u[a * n:a * n + n - s], out=out[s:])
        for a in range(last + 1):
            np.add(out, u[a * n:(a + 1) * n], out=out)
        return out


@dataclass
class DenoiseProblem:
    """One denoising instance: observations y, incidence D, weight lam.

    ``lam`` multiplies ``||D theta||_1`` against ``(1/n)||theta - y||_2^2``.
    ``D`` is a difference matrix or a Graph, whose incidence matrix is taken;
    the same lines then derive the csr ``D``, ``Dt``, the step bound
    ``op_norm = operator_norm(D, Dt)``, the ``fusion`` rows of
    :func:`_fusion_graph` and ``grid``, which :func:`denoise` and
    :func:`solve` only read.  A Graph keeps them, read-only, for every
    problem on it; a matrix stays writable.  A Graph tagged ``grid`` with
    d >= 2 and N >= 3 gets ``grid``, the same D on the padded layout of
    :class:`_GridDifferences`, which :func:`denoise` iterates on.
    """

    y: np.ndarray
    D: sp.spmatrix
    lam: float
    Dt: sp.csr_matrix = field(init=False, repr=False)
    op_norm: float = field(init=False, repr=False)
    fusion: tuple = field(init=False, repr=False)
    grid: _GridDifferences | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.y = _check_exact_input(self.y, self.lam)
        g = self.D if isinstance(self.D, G.Graph) else None
        derived = None if g is None else g._derived.get("operator")
        if derived is None:
            D = spec._as_sparse(self.D) if g is None else G.incidence(g)
            if not np.all(np.isfinite(D.data)):
                raise ValueError("D contains NaN or Inf")
            Dt = D.T.tocsr()
            p = g.params if g is not None and g.family == "grid" else {"d": 0, "N": 0}
            grid = _GridDifferences(g, p["d"], p["N"]) if p["d"] >= 2 and p["N"] >= 3 else None
            derived = D, Dt, operator_norm(D, Dt), _fusion_graph(D), grid
            if g is not None:  # shared by every problem on the Graph
                for a in (D.data, D.indices, D.indptr, Dt.data, Dt.indices, Dt.indptr):
                    a.setflags(write=False)
                g._derived["operator"] = derived
        self.D, self.Dt, self.op_norm, self.fusion, self.grid = derived
        if self.y.ndim != 1 or self.y.shape[0] != self.D.shape[1]:
            raise ValueError("y must be a vector of length D.shape[1]")


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
        if self.z0 is not None and not np.all(np.isfinite(self.z0)):
            raise ValueError("z0 must be finite")


@dataclass
class DenoiseResult:
    """An estimate, its certificate (residual, ||z||_inf, gap) and the route taken;
    on ``dual_fista`` the dual-fused candidate of the best check of :func:`denoise`."""

    theta_hat: np.ndarray
    dual_z: np.ndarray | None  # None on the complete-graph route, which fits no z
    iterations: int
    stationarity_residual: float
    dual_feasibility: float
    objective: float
    converged: bool
    duality_gap: float  # P(theta_hat) - D(z) >= 0, z that of the check (``_gap``)
    solver: str = "dual_fista"  # the route taken, see ``solver_for``


def _scale(y: np.ndarray) -> float:
    """``1 + ||y||_inf`` (1 for an empty y), the scale of every tolerance on a solution."""
    return 1.0 + (float(np.max(np.abs(y))) if y.size else 0.0)


def objective_value(y: np.ndarray, D, lam: float, theta: np.ndarray) -> float:
    """(1/n) ||theta - y||^2 + lam ||D theta||_1."""
    return float(np.mean((theta - y) ** 2)) + lam * float(np.abs(D @ theta).sum())


def _gap(r: np.ndarray, lam: float, d, z) -> float:
    """P(theta) - D(z) = (n/4) ||r||^2 + lam sum_e (|d_e| - z_e d_e) for n = len(r),
    r = (2/n)(theta - y) + lam D^T z, d = D theta and the dual value D(z) = lam z^T D y
    - (n lam^2/4) ||D^T z||^2."""
    slack = np.abs(d)
    slack -= z * d  # every entry >= 0 in floating point when |z| <= 1
    return 0.25 * len(r) * float(r @ r) + lam * float(slack.sum())


def _verdict(theta, resid, gap, feasibility, fit, scale, tol) -> tuple[float, bool]:
    """``(score, converged)``: score is the largest of ``resid / scale``, ``gap / (1 + fit)``
    and ``feasibility - 1``, NaN if any is; converged is ``score <= tol`` with theta finite."""
    score = float(np.maximum(np.maximum(resid / scale, gap / (1.0 + fit)), feasibility - 1.0))
    return score, bool(score <= tol and np.all(np.isfinite(theta)))


def operator_norm(D, Dt=None) -> float:
    """Certified upper bound on the largest eigenvalue of D^T D.

    ``||D x|| <= || |D| |x| ||``, so the spectral radius of Q = |D|^T |D|
    bounds it, and so does every quotient ``max_i (Q x)_i / x_i`` with
    x > 0 (Collatz-Wielandt).  From x = Q 1 (twice the degrees of a
    graph) the first quotient is at most the Anderson-Morley bound
    max over edges of d_i + d_j; each of eight power steps on Q + I
    (positive even at isolated vertices) can only lower it.  Exact on stars.
    ``Dt``, the csr transpose of D, saves building |D|^T when the caller
    has it.
    """
    n = D.shape[1]
    if D.shape[0] == 0 or n == 0:
        return 0.0
    A = sp.csr_matrix(abs(D))
    At = abs(D.T.tocsr() if Dt is None else Dt)
    x = At @ (A @ np.ones(n))
    x[x == 0.0] = 1.0
    bound = np.inf
    for _ in range(8):
        Qx = At @ (A @ x)
        bound = np.minimum(bound, np.max(Qx / x))  # NaN in D propagates
        x = Qx + x
        x /= np.max(x)
    return float(bound)


def _fusion_graph(D) -> tuple[np.ndarray | slice, np.ndarray, np.ndarray]:
    """Rows of D that read ``a (theta_i - theta_j)``, with their endpoints.

    Returns ``(rows, i, j)``: every row with exactly two nonzero entries of
    opposite sign and equal size, ``rows`` being ``slice(None)`` if that is
    every row.  Other rows, such as the augmented path's anchor, link no vertices.
    """
    nnz = np.diff(D.indptr)
    rows = np.flatnonzero(nnz == 2)
    first = D.indptr[rows]
    a, b = D.data[first], D.data[first + 1]
    keep = (a == -b) & (a != 0.0)
    first = first[keep]
    rows = slice(None) if len(first) == D.shape[0] else rows[keep]
    return rows, D.indices[first], D.indices[first + 1]


# ---------------------------------------------------------------------------
# general solver: FISTA on the box-constrained dual


def _apg_box(grad, u0: np.ndarray, step: float, bound: float, max_iter: int):
    """Accelerated projected gradient on the box ``||u||_inf <= bound``.

    Yields ``(it, move, u)`` after each of at most ``max_iter`` iterations,
    ``move`` being ``u - u_prev``; the consumer tests convergence and stops
    iterating.  Momentum restarts whenever the step opposes the last move
    (gradient restart).  ``grad(v, out)`` returns the gradient at v, and
    may write it into ``out``, a free buffer of v's shape.  The loop lives
    in three buffers: the new iterate is clipped in place, the old one
    becomes the move, and v - u_new is written over v for the restart
    test.  So the yielded arrays are valid until the next step only;
    ``u0`` itself is never modified.
    """
    u = np.array(u0, dtype=float)
    v = u.copy()
    w = np.empty_like(u)
    t = 1.0
    for it in range(1, max_iter + 1):
        np.multiply(grad(v, w), step, out=w)
        np.subtract(v, w, out=w)
        np.maximum(w, -bound, out=w)  # clip to the box: w is the new iterate
        np.minimum(w, bound, out=w)
        np.subtract(w, u, out=u)  # u now holds the move
        np.subtract(v, w, out=v)
        if np.dot(v, u) > 0.0:  # gradient-based restart
            t_new = 1.0
            np.copyto(v, w)
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            np.multiply(u, (t - 1.0) / t_new, out=v)
            np.add(v, w, out=v)
        u, w = w, u
        t = t_new
        yield it, w, u


def denoise(problem: DenoiseProblem, opts: SolverOptions | None = None) -> DenoiseResult:
    """Solve the TV denoising problem and return a certified result.

    The checks fall on the multiples of ``CHECK_EVERY``, at
    ``opts.max_iter``, and for a warm start (``opts.z0`` given) also at
    ``WARM_CHECK``: the schedule depends on nothing but the iteration
    number and whether a warm start was given.  A check tests one
    candidate: the iterate theta = y - D^T u averaged over the connected
    components of the edges whose dual entry is strictly inside the box,
    which are flat at the optimum by complementary slackness.  Its
    residual must pass at ``opts.tol * (1 + ||y||_inf)`` and its duality
    gap against u (z = u/mu) at ``opts.tol * (1 + fit)`` (:func:`_verdict`).
    The solve stops at the first check that passes, or at ``opts.max_iter``
    with ``converged=False`` and the best candidate and the objective its
    check computed.  ``opts.z0`` needs one entry per row of D.  D, D^T, the
    step bound and the fusion rows are read from the :class:`DenoiseProblem`.
    On a grid the iterate lives on the padded rows of ``problem.grid``;
    ``opts.z0`` and the returned ``dual_z`` are mapped to and from the rows
    of D once per solve.  On a
    disconnected graph the solution is exact per component and keeps the
    mean of y on each; fusion never crosses components.  :func:`solve`
    warns about a disconnected custom graph.
    """
    opts = opts or SolverOptions()
    y, D, lam = problem.y, problem.D, problem.lam
    m, n = D.shape
    if opts.z0 is not None and np.shape(opts.z0) != (m,):
        raise ValueError(f"z0 must have shape ({m},), one entry per row of D")
    scale = _scale(y)
    jump_tol = JUMP_RTOL * scale
    if m == 0 or lam == 0.0:
        theta = y.copy()
        Dtheta = D @ theta  # z = sign(D theta) on jumps, as for any result
        z = np.where(np.abs(Dtheta) > jump_tol, np.sign(Dtheta), 0.0)
        return DenoiseResult(theta, z, 0, 0.0, float(np.max(np.abs(z), initial=0.0)),
                             objective_value(y, D, lam, theta), True, 0.0)

    mu = 0.5 * n * lam
    Dt, (fuse_rows, fuse_i, fuse_j) = problem.Dt, problem.fusion
    if problem.op_norm <= 0.0:
        raise ValueError("operator norm of D must be positive")
    step = 1.0 / problem.op_norm

    grid = problem.grid
    if grid is None:  # u has the rows of D
        rows, Dx, Dtx = slice(None), D.__matmul__, Dt.__matmul__
        u0 = np.zeros(m)
        grad = lambda v, _: D @ (Dt @ v - y)
    else:  # u has the padded rows of the grid; row e of D is its row rows[e]
        rows, Dx, Dtx = grid.rows, grid.dot, grid.tdot
        u0 = np.zeros(grid.size)
        r = np.empty(n)  # D^T v - y of the current step
        grad = lambda v, out: grid.dot(np.subtract(grid.tdot(v, r), y, out=r), out)
    warm = opts.z0 is not None
    if warm:
        u0[rows] = mu * np.clip(np.asarray(opts.z0, dtype=float), -1.0, 1.0)
    best = None  # (score, result) of the best candidate, its z still on the rows of u
    for it, _, u in _apg_box(grad, u0, step, mu, opts.max_iter):
        if it % CHECK_EVERY != 0 and it != opts.max_iter and not (warm and it == WARM_CHECK):
            continue
        # the one candidate: the iterate averaged over the pieces of the flat edges.
        # The sums run over the rows of D, in its order, so they round as on D.
        ue = u[rows]
        theta = y - Dtx(u)
        flat = np.abs(ue[fuse_rows]) < mu
        piece = G._components(n, fuse_i[flat], fuse_j[flat])
        theta_f = (np.bincount(piece, weights=theta) / np.bincount(piece))[piece]
        Dtheta = Dx(theta_f)
        d = Dtheta[rows]
        fit = float(np.mean((theta_f - y) ** 2))
        tv = float(np.abs(d).sum())
        # against u, at z = u/mu before the jumps take their signs: r = (2/n)(theta_f - theta)
        zq = u / mu
        gap = _gap((2.0 / n) * (theta_f - theta), lam, d, zq[rows])
        jumps = np.abs(Dtheta) > jump_tol
        zq[jumps] = np.sign(Dtheta[jumps])
        resid = float(np.max(np.abs((2.0 / n) * (theta_f - y) + lam * Dtx(zq))))
        feasibility = float(np.max(np.abs(zq)))
        score, converged = _verdict(theta_f, resid, gap, feasibility, fit, scale, opts.tol)
        if best is None or score < best[0]:
            best = score, DenoiseResult(theta_f, zq, it, resid, feasibility, fit + lam * tv,
                                        converged, gap)
        if converged:
            break
    result = best[1]
    result.dual_z, result.iterations, result.converged = result.dual_z[rows], it, converged
    return result


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
    ``||z||_inf <= 1``, started at zero, which keeps the best residual it
    checks.  It works on any difference matrix, so it is the independent
    oracle for the closed-form certificates of the exact routes.
    """
    y, D, lam = problem.y, problem.D, problem.lam
    m, n = D.shape
    theta = np.asarray(theta, dtype=float)
    r_base = (2.0 / n) * (theta - y)
    Dtheta = D @ theta
    jumps = np.abs(Dtheta) > JUMP_RTOL * _scale(y)
    z = np.zeros(m)
    z[jumps] = np.sign(Dtheta[jumps])
    if lam == 0.0:
        return z, float(np.max(np.abs(r_base)))
    r0 = r_base + lam * (D[jumps].T @ z[jumps]) if jumps.any() else r_base
    free = ~jumps
    DF = D[free].tocsr()
    DFt = DF.T.tocsr()
    op = operator_norm(DF, DFt)
    if op <= 0.0:  # also when nothing is left to fit: no rows, or every edge a jump
        return z, float(np.max(np.abs(r0)))
    step = 1.0 / (lam * lam * op)
    best_w = np.zeros(DF.shape[0])
    best_resid = float(np.max(np.abs(r0)))
    for it, move, w in _apg_box(lambda v, _: lam * (DF @ (r0 + lam * (DFt @ v))),
                                best_w, step, 1.0, max_iter):
        delta = float(np.max(np.abs(move)))
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


def _path_certificate(y: np.ndarray, lam: float,
                      theta: np.ndarray) -> tuple[np.ndarray, float, float, float, float]:
    """``(z, residual, dual_feasibility, tv, gap)`` of theta on the path, without D.

    ``D^T z`` is ``np.diff`` of z padded with a zero at each end.  The
    jumps take ``sign(D theta)`` and split the vertices into pieces, whose
    free edges take the running sum of ``w - mean w``, w the part of
    ``-(2/(n lam))(theta - y)`` the jumps leave: the best residual, ``lam
    |mean w|`` on each piece.  For an exact theta the means vanish and z is
    the one dual of the path, the running sum of ``(2/(n lam))(y - theta)``
    (Condat, IEEE SPL 2013).  At lam = 0, z is 0 on the flat edges.  The
    gap is that of ``z / max(1, ||z||_inf)``, which lies in the box.
    """
    n = len(y)
    r = (2.0 / n) * (theta - y)
    Dtheta = -np.diff(theta)
    jumps = np.abs(Dtheta) > JUMP_RTOL * _scale(y)
    z = np.where(jumps, np.sign(Dtheta), 0.0)
    if lam > 0.0:
        w = -r / lam - np.diff(z, prepend=0.0, append=0.0)
        starts = np.r_[0, np.flatnonzero(jumps) + 1]
        sizes = np.diff(starts, append=n)
        piece = np.repeat(np.arange(len(starts)), sizes)
        dev = w - (np.add.reduceat(w, starts) / sizes)[piece]
        run = np.cumsum(dev)
        run -= (run[starts] - dev[starts])[piece]  # restart at each piece
        z[~jumps] = run[:-1][~jumps]
    resid = float(np.max(np.abs(r + lam * np.diff(z, prepend=0.0, append=0.0))))
    feasibility = float(np.max(np.abs(z), initial=0.0))
    z_box = z / max(1.0, feasibility)
    gap = _gap(r + lam * np.diff(z_box, prepend=0.0, append=0.0), lam, Dtheta, z_box)
    return z, resid, feasibility, float(np.abs(Dtheta).sum()), gap


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
                          theta: np.ndarray) -> tuple[None, float, float, float, float]:
    """``(None, residual, dual_feasibility, tv, gap)`` of theta on K_n, without D.

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
    At lam = 0 the residual is that of z = 0 in the blocks.  The gap is that
    of z / s, s = max(1, ratio): r is ``(1 - 1/s)(2/n)(theta - y) - (lam/s) mean_B w``
    on block B, and the slack at most ``lam ((1 - 1/s) TV_between + 2 TV_in)``.
    """
    n = len(y)
    order = np.argsort(theta, kind="stable")
    t = theta[order]
    tv = float(np.dot(2.0 * np.arange(1, n + 1) - 1.0 - n, t))
    grad = (2.0 / n) * (t - y[order])
    starts = np.flatnonzero(np.r_[True, np.diff(t) > JUMP_RTOL * _scale(y)])
    jumps = float(len(starts) > 1)
    if lam == 0.0:
        return None, float(np.max(np.abs(grad))), jumps, tv, _gap(grad, lam, 0.0, 0.0)
    sizes = np.diff(starts, append=n)
    block = np.repeat(np.arange(len(starts)), sizes)
    first, b = starts[block], sizes[block]
    c = 2 * first + b - n  # #below - #above = first - (n - first - b)
    w = -grad / lam - c
    mean = np.add.reduceat(w, starts) / sizes
    dev = w - mean[block]
    dev = dev[np.lexsort((-dev, block))]  # decreasing within each block
    top = np.cumsum(dev)
    top -= (top[starts] - dev[starts])[block]  # sum of the k largest, k = 1..b
    k = np.arange(1, n + 1) - first
    inner = k < b
    ratio = np.max(top[inner] / (k[inner] * (b[inner] - k[inner])), initial=0.0)
    s = max(1.0, float(ratio))
    tv_split = np.maximum(0.0, [np.dot(c, t), np.dot(2 * k - 1 - b, t)])  # between, in blocks
    r = (1.0 - 1.0 / s) * grad - (lam / s) * mean[block]
    gap = _gap(r, lam, tv_split, np.array([1.0 / s, -1.0]))
    return None, lam * float(np.max(np.abs(mean))), max(jumps, float(ratio)), tv, gap


# ---------------------------------------------------------------------------
# the solver route


def solver_for(g) -> str:
    """The solver :func:`solve` takes for ``g``, a Graph or a difference matrix.

    ``"sort_isotonic"`` for a Graph tagged ``complete``, ``"taut_string"``
    for a Graph whose edges form the path 0 - 1 - ... - (n-1), whatever its
    tag, and ``"dual_fista"`` (:func:`denoise`) for anything else.
    """
    if isinstance(g, G.Graph):
        if g.family == "complete":
            return "sort_isotonic"
        if G.is_path(g):
            return "taut_string"
    return "dual_fista"


def solve(g, y, lam: float, opts: SolverOptions | None = None) -> DenoiseResult:
    """Denoise y on ``g`` (a Graph or a difference matrix) by the route of :func:`solver_for`.

    ``dual_fista`` keeps the operator of its first :class:`DenoiseProblem`
    on a Graph.  The exact routes derive nothing: the estimate and its
    closed-form certificate read only y and theta, not even a K_n's edge
    list.  They take no iterations, report the gap of their certificate
    and decide ``converged`` by the :func:`_verdict` of :func:`denoise`.
    For a custom Graph or a bare matrix a warning is attached when the
    rows ``a (theta_i - theta_j)`` of D leave the vertices disconnected,
    since the oracle-inequality theory assumes a connected graph (which a
    named family's tag promises).
    """
    opts = opts or SolverOptions()
    solver = solver_for(g)
    if solver == "dual_fista":
        problem = DenoiseProblem(y, g, lam)
        if not isinstance(g, G.Graph) or g.family == "custom":
            _, i, j = problem.fusion
            if problem.D.shape[0] and G._components(len(problem.y), i, j).max() > 0:
                warnings.warn("graph is disconnected: theoretical lambda rules assume a "
                              "connected graph; the solution preserves the mean per "
                              "component", UserWarning, stacklevel=2)
        return denoise(problem, opts)
    y = _check_exact_input(y, lam)
    if y.shape != (g.n,):
        raise ValueError("y must be a vector of length n")
    exact, certificate = ((denoise_path_exact, _path_certificate) if solver == "taut_string"
                          else (denoise_complete_exact, _complete_certificate))
    theta = exact(y, lam)
    z, resid, feasibility, tv, gap = certificate(y, lam, theta)
    fit = float(np.mean((theta - y) ** 2))
    _, converged = _verdict(theta, resid, gap, feasibility, fit, _scale(y), opts.tol)
    return DenoiseResult(theta, z, 0, resid, feasibility, fit + lam * tv, converged, gap, solver)


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
        if f.name in d and not G._has_type(d[f.name], f.type):
            raise ValueError(f"{what} key {f.name!r} must be {f.type}, got {d[f.name]!r}")


def lambda_value(rule: LambdaRule, graph=None) -> float:
    """Evaluate a LambdaRule for a graph.

    ``theorem_general`` reads rho from ``spectral.rho_estimate``.
    ``corollary`` takes the formula of the graph's family: the 2-D grid;
    grids with d >= 3, hypercubes and stars; complete graphs; Erdos-Renyi
    and random regular graphs, through the expected degree; cycle powers.
    The family is the Graph's tag, checked against the edges where the Graph
    is made.  A path, a 1-D grid or a custom graph has no formula: ``ValueError``.
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
