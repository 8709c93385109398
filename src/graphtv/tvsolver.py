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
valid replacement.  Step sizes come from the operator norm of D
(deterministic power iteration).

Two exact special-purpose solvers are provided as independent
cross-checks and fast paths: a taut-string solver for path graphs and a
sort-plus-isotonic reduction for complete graphs.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import isotonic_regression
from scipy.sparse.csgraph import connected_components

LAMBDA_RULES = (
    "theorem_general",
    "grid2d",
    "grid_high_dim",
    "hypercube",
    "complete",
    "star",
    "random_gap",
    "cycle_power",
    "manual",
)

# Iterations between the convergence checks of the iterative solvers.
CHECK_EVERY = 25


# ---------------------------------------------------------------------------
# problem / result containers


@dataclass
class DenoiseProblem:
    """One denoising instance: observations y, incidence D, weight lam.

    ``lam`` multiplies ``||D theta||_1`` against ``(1/n)||theta - y||_2^2``.
    """

    y: np.ndarray
    D: sp.spmatrix
    lam: float

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        if not sp.issparse(self.D):
            self.D = sp.csr_matrix(np.asarray(self.D, dtype=float))
        else:
            self.D = self.D.tocsr()
        if self.y.ndim != 1 or self.y.shape[0] != self.D.shape[1]:
            raise ValueError("y must be a vector of length D.shape[1]")
        if not np.isfinite(self.lam):
            raise ValueError("lam must be finite")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if not np.all(np.isfinite(self.y)):
            raise ValueError("y contains NaN or Inf")


@dataclass
class SolverOptions:
    tol: float = 1e-6
    max_iter: int = 50000
    op_norm: float | None = None  # largest eigenvalue of D^T D, if precomputed
    z0: np.ndarray | None = None  # warm start for the scaled dual, in [-1, 1]^m
    check_connected: bool = True


@dataclass
class DenoiseResult:
    theta_hat: np.ndarray
    dual_z: np.ndarray
    iterations: int
    stationarity_residual: float
    dual_feasibility: float
    objective: float
    converged: bool


def objective_value(y: np.ndarray, D, lam: float, theta: np.ndarray) -> float:
    """(1/n) ||theta - y||^2 + lam ||D theta||_1."""
    fit = float(np.mean((theta - y) ** 2))
    if lam == 0 or D.shape[0] == 0:
        return fit
    return fit + lam * float(np.abs(D @ theta).sum())


def operator_norm(D, tol: float = 1e-6, max_iter: int = 500) -> float:
    """Largest eigenvalue of D^T D by deterministic power iteration."""
    n = D.shape[1]
    if D.shape[0] == 0 or n == 0:
        return 0.0
    v = np.cos(1.7 * np.arange(n)) + 0.5
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = D.T @ (D @ v)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        v = w / nw
        if abs(nw - lam) <= tol * nw:
            lam = nw
            break
        lam = nw
    return lam


def _count_components(D) -> int:
    m, n = D.shape
    if m == 0:
        return n
    A = (abs(D.T) @ abs(D)).tocsr()
    ncomp, _ = connected_components(A, directed=False)
    return ncomp


# ---------------------------------------------------------------------------
# general solver: FISTA on the box-constrained dual


def _apg_box(grad, u0: np.ndarray, step: float, bound: float, max_iter: int):
    """Accelerated projected gradient on the box ``||u||_inf <= bound``.

    Yields ``(it, u_prev, u)`` after each of at most ``max_iter``
    iterations; the consumer tests convergence and stops iterating.
    Momentum restarts whenever the step opposes the last move (gradient
    restart).  The yielded arrays are fresh each iteration and never
    modified afterwards.
    """
    u = u0
    v = u.copy()
    t = 1.0
    for it in range(1, max_iter + 1):
        u_new = np.clip(v - step * grad(v), -bound, bound)
        if np.dot(v - u_new, u_new - u) > 0.0:  # gradient-based restart
            t_new = 1.0
            v = u_new.copy()
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            v = u_new + ((t - 1.0) / t_new) * (u_new - u)
        u_prev, u = u, u_new
        t = t_new
        yield it, u_prev, u


def denoise(problem: DenoiseProblem, opts: SolverOptions | None = None) -> DenoiseResult:
    """Solve the TV denoising problem and return a certified result.

    Terminates once the stationarity certificate passes at
    ``opts.tol * (1 + ||y||_inf)`` and the dual iterate's duality gap
    passes at ``opts.tol * (1 + fit)``, or when ``opts.max_iter`` is
    reached; in the latter case the result carries ``converged=False``
    and the best certificate found.  A warning is attached when the
    graph is disconnected (the oracle-inequality theory assumes
    connectivity; the solver itself is still exact per component).
    """
    opts = opts or SolverOptions()
    if opts.max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    y, D, lam = problem.y, problem.D, problem.lam
    m, n = D.shape
    scale = 1.0 + (float(np.max(np.abs(y))) if y.size else 0.0)
    if opts.check_connected and m > 0 and _count_components(D) > 1:
        warnings.warn(
            "graph is disconnected: theoretical lambda rules assume a connected "
            "graph; the solution preserves the mean per component",
            UserWarning,
            stacklevel=2,
        )
    if m == 0 or lam == 0.0:
        theta = y.copy()
        return DenoiseResult(theta, np.zeros(m), 0, 0.0, 0.0,
                             objective_value(y, D, lam, theta), True)

    mu = 0.5 * n * lam
    op = opts.op_norm if opts.op_norm is not None else operator_norm(D)
    if op <= 0.0:
        raise ValueError("operator norm of D must be positive")
    step = 1.0 / (1.05 * op)
    jump_tol = 1e-8 * scale

    if opts.z0 is not None:
        u0 = mu * np.clip(np.asarray(opts.z0, dtype=float), -1.0, 1.0)
    else:
        u0 = np.zeros(m)
    best_score = np.inf
    best_resid = np.inf
    best_theta = None
    best_z = None
    iterations = 0
    converged = False

    for it, _, u in _apg_box(lambda v: -(D @ (y - D.T @ v)), u0, step, mu, opts.max_iter):
        iterations = it
        if it % CHECK_EVERY == 0 or it == opts.max_iter:
            theta = y - D.T @ u
            Dtheta = D @ theta
            z = u / mu
            jumps = np.abs(Dtheta) > jump_tol
            zq = z.copy()
            zq[jumps] = np.sign(Dtheta[jumps])
            # theta = y - mu D^T z makes (2/n)(theta - y) = -lam D^T z exactly,
            # so the certificate residual reduces to lam ||D^T (zq - z)||_inf.
            resid = lam * float(np.max(np.abs(D.T @ (zq - z)))) if jumps.any() else 0.0
            # exact duality gap of the dual iterate: bounds the objective
            # suboptimality, catching near-zero edge differences that the
            # jump-tolerance classification treats as flat
            gap = max(0.0, lam * float(np.abs(Dtheta).sum())
                      - (2.0 / n) * float(Dtheta @ u))
            fit_term = float(np.mean((theta - y) ** 2))
            score = max(resid / scale, gap / (1.0 + fit_term))
            if score < best_score:
                best_score = score
                best_resid = resid
                best_theta = theta
                best_z = zq
            if score <= opts.tol:
                converged = True
                break

    theta = best_theta
    zq = best_z
    return DenoiseResult(
        theta_hat=theta,
        dual_z=zq,
        iterations=iterations,
        stationarity_residual=best_resid,
        dual_feasibility=float(np.max(np.abs(zq))) if m else 0.0,
        objective=objective_value(y, D, lam, theta),
        converged=converged,
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
    """
    y, D, lam = problem.y, problem.D, problem.lam
    m, n = D.shape
    theta = np.asarray(theta, dtype=float)
    r_base = (2.0 / n) * (theta - y)
    if m == 0:
        return np.zeros(0), float(np.max(np.abs(r_base)))
    Dtheta = D @ theta
    jump_tol = 1e-8 * (1.0 + float(np.max(np.abs(y))))
    jumps = np.abs(Dtheta) > jump_tol
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
    step = 1.0 / (1.05 * lam * lam * op)
    best_w = np.zeros(DF.shape[0])
    best_resid = float(np.max(np.abs(r0 + lam * (DF.T @ best_w))))
    for it, w_prev, w in _apg_box(lambda v: lam * (DF @ (r0 + lam * (DF.T @ v))),
                                  best_w, step, 1.0, max_iter):
        delta = float(np.max(np.abs(w - w_prev)))
        if it % CHECK_EVERY == 0 or delta <= 1e-14:
            resid = float(np.max(np.abs(r0 + lam * (DF.T @ w))))
            if resid < best_resid:
                best_resid = resid
                best_w = w
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


def denoise_path_exact(y: np.ndarray, lam: float) -> np.ndarray:
    """Exact minimizer of (1/n)||theta - y||^2 + lam ||D_1 theta||_1.

    The taut string solves the (1/2, mu) normalization, so the weight is
    rescaled as mu = lam * n / 2.
    """
    y = np.asarray(y, dtype=float)
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    return tv1d_prox(y, 0.5 * lam * len(y))


# ---------------------------------------------------------------------------
# exact complete-graph solver


def denoise_complete_exact(y: np.ndarray, lam: float) -> np.ndarray:
    """Exact TV denoiser on the complete graph K_n via isotonic regression.

    The penalty ``sum_{i<j} |theta_i - theta_j|`` is symmetric, so the
    minimizer is comonotone with y; on sorted data the penalty is the
    linear form ``mu * sum_r (2r - 1 - n) theta_(r)``, which turns the
    problem into the isotonic regression of
    ``y_(r) - mu (2r - 1 - n)`` (mu = lam * n / 2).
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if lam == 0.0 or n <= 1:
        return y.copy()
    mu = 0.5 * lam * n
    order = np.argsort(y, kind="stable")
    ranks = np.arange(1, n + 1, dtype=float)
    adjusted = y[order] - mu * (2.0 * ranks - 1.0 - n)
    fitted = isotonic_regression(adjusted, increasing=True).x
    theta = np.empty(n)
    theta[order] = fitted
    return theta


# ---------------------------------------------------------------------------
# theoretical regularization levels


@dataclass
class LambdaRule:
    """Recipe for the regularization weight.

    ``theorem_general`` is the sharp generic choice
    ``sigma * rho * sqrt(2 log(e m / delta)) / n``; the family rules plug
    in each family's known growth of rho and carry a tunable leading
    constant ``constant_c``.  ``manual`` passes ``value`` through
    unchanged.
    """

    rule: str
    sigma: float = 1.0
    delta: float = 0.1
    constant_c: float = 1.0
    value: float | None = None  # for rule == "manual"
    degree: float | None = None  # expected degree override for "random_gap"

    def __post_init__(self):
        if self.rule not in LAMBDA_RULES:
            raise ValueError(f"unknown lambda rule {self.rule!r}")
        for name in ("sigma", "delta", "constant_c", "value", "degree"):
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

    def to_json_dict(self) -> dict:
        return {
            "rule": self.rule,
            "sigma": self.sigma,
            "delta": self.delta,
            "constant_c": self.constant_c,
            "value": self.value,
            "degree": self.degree,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "LambdaRule":
        return cls(**{k: d[k] for k in
                      ("rule", "sigma", "delta", "constant_c", "value", "degree")
                      if k in d})


def _expected_degree(graph) -> float:
    if graph.family == "erdos_renyi":
        return float(graph.params["p"] * graph.n)
    if graph.family == "random_regular":
        return float(graph.params["d"])
    raise ValueError(
        "random_gap rule needs an erdos_renyi/random_regular graph or an "
        "explicit degree on the rule"
    )


def lambda_value(rule: LambdaRule, graph=None, rho: float | None = None) -> float:
    """Evaluate a LambdaRule for a graph (and rho, for the generic rule)."""
    if rule.rule == "manual":
        if rule.value is None:
            raise ValueError("manual rule needs a value")
        return float(rule.value)
    if graph is None:
        raise ValueError("lambda_value needs a graph for non-manual rules")
    n, m = graph.n, graph.m
    c, s, dl = rule.constant_c, rule.sigma, rule.delta
    if rule.rule == "theorem_general":
        if rho is None:
            raise ValueError("theorem_general rule needs rho")
        return c * s * rho * np.sqrt(2.0 * np.log(np.e * m / dl)) / n
    if rule.rule == "grid2d":
        return c * s * np.sqrt(np.log(n) * np.log(np.e * n / dl)) / n
    if rule.rule in ("grid_high_dim", "hypercube", "star"):
        return c * s * np.sqrt(np.log(np.e * n / dl)) / n
    if rule.rule == "complete":
        return c * s * np.sqrt(np.log(np.e * n / dl)) / (n * n)
    if rule.rule == "random_gap":
        dn = rule.degree if rule.degree is not None else _expected_degree(graph)
        return c * s * np.sqrt(np.log(np.e * dn * n / dl)) / (dn * n)
    if rule.rule == "cycle_power":
        k = graph.params["k"]
        return c * s * np.sqrt(np.log(np.e * n / dl)) / min(np.sqrt(n) * k**3, n)
    raise ValueError(f"unknown lambda rule {rule.rule!r}")
