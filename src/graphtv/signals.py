"""Ground-truth signals and reproducible Gaussian noise.

Signal kinds
------------
* ``island``: k constant blocks of size l at values 50 + 10j over a
  constant background of 50 (placed in the leading coordinates; for the
  exchangeable graphs these experiments use, placement is immaterial).
* registered grid functions (``holder_cone``, ``pc_halfplane``,
  ``cartoon_disk``) sampled on the regular grid x_i = i/N, i in [N]^d,
  flattened column-major to match the grid graph's vertex order.
* ``bi_isotonic``: random matrices nondecreasing along both axes with a
  prescribed corner-to-corner variation.

Noise is drawn from numpy's default bit generator seeded by a
(seed, stream_id) pair, so each trial reads an independent substream and
every draw is reproducible bit-for-bit.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SIGNAL_KINDS = ("island", "grid_function", "bi_isotonic", "custom")


@dataclass
class SignalSpec:
    """Parametric description of a ground truth theta*."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in SIGNAL_KINDS:
            raise ValueError(f"unknown signal kind {self.kind!r}")


@dataclass
class NoiseModel:
    """Seeded Gaussian noise: N(0, sigma^2 I), substreamed by stream_id."""

    sigma: float
    seed: int = 0
    stream_id: int = 0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")


def gaussian_noise(n: int, model: NoiseModel) -> np.ndarray:
    """Draw n iid N(0, sigma^2) values, bit-stable in (seed, stream_id)."""
    rng = np.random.default_rng(
        np.random.SeedSequence(model.seed, spawn_key=(model.stream_id,))
    )
    return model.sigma * rng.standard_normal(n)


# ---------------------------------------------------------------------------
# island model


def island_signal(n: int, k: int, l: int) -> np.ndarray:
    """k islands of size l at values 50 + 10j over a background of 50."""
    if k < 0 or l < 0 or (k > 0 and l == 0):
        raise ValueError("need k >= 0 and l >= 1 for nonempty islands")
    if k * l > n:
        raise ValueError(f"islands need k*l <= n, got {k}*{l} > {n}")
    theta = np.full(n, 50.0)
    for j in range(1, k + 1):
        theta[(j - 1) * l : j * l] = 50.0 + 10.0 * j
    return theta


# ---------------------------------------------------------------------------
# sampled grid functions


def grid_points(d: int, N: int) -> np.ndarray:
    """Points x_i = i/N for i in [N]^d, column-major order, shape (N^d, d)."""
    axes = np.meshgrid(*([np.arange(1, N + 1) / N] * d), indexing="ij")
    # column-major linearization: coordinate 0 varies fastest
    return np.stack([a.reshape(-1, order="F") for a in axes], axis=1)


def _holder_cone(x: np.ndarray, alpha: float, L: float) -> np.ndarray:
    return L * np.max(np.abs(x - 0.5), axis=1) ** alpha


def _pc_halfplane(x: np.ndarray, height: float) -> np.ndarray:
    return height * (x[:, 0] <= 0.5)


def _cartoon_disk(x: np.ndarray, height: float, radius: float,
                  alpha: float, L: float) -> np.ndarray:
    r = np.linalg.norm(x - 0.5, axis=1)
    return height * (r <= radius) + L * np.max(np.abs(x - 0.5), axis=1) ** alpha


GRID_FUNCTIONS = {
    "holder_cone": (_holder_cone, {"alpha": 1.0, "L": 1.0}),
    "pc_halfplane": (_pc_halfplane, {"height": 1.0}),
    "cartoon_disk": (_cartoon_disk, {"height": 1.0, "radius": 0.3, "alpha": 1.0, "L": 0.5}),
    "constant": (lambda x, value: np.full(len(x), float(value)), {"value": 0.0}),
}


def sample_grid_function(name: str, d: int, N: int, **params) -> np.ndarray:
    """Evaluate a registered closed-form function on the grid [N]^d / N."""
    if name not in GRID_FUNCTIONS:
        raise ValueError(f"unknown grid function {name!r}; have {sorted(GRID_FUNCTIONS)}")
    fn, defaults = GRID_FUNCTIONS[name]
    kwargs = {**defaults, **params}
    return fn(grid_points(d, N), **kwargs)


# ---------------------------------------------------------------------------
# bi-isotonic matrices


def bi_isotonic_signal(N: int, variation_sqrt: float, seed: int = 0) -> np.ndarray:
    """Random N x N matrix nondecreasing along rows and columns.

    Built from cumulative sums of nonnegative increments along both axes
    and rescaled so that ``theta[N-1, N-1] - theta[0, 0] = variation_sqrt``
    (the square variation is then ``variation_sqrt**2``).
    """
    if N < 1:
        raise ValueError("need N >= 1")
    if variation_sqrt < 0:
        raise ValueError("variation_sqrt must be nonnegative")
    if N == 1 or variation_sqrt == 0.0:
        return np.zeros((N, N))
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7,)))
    row = np.concatenate([[0.0], np.cumsum(rng.random(N - 1))])
    col = np.concatenate([[0.0], np.cumsum(rng.random(N - 1))])
    theta = row[:, None] + col[None, :]
    total = theta[-1, -1] - theta[0, 0]
    return theta * (variation_sqrt / total)


# ---------------------------------------------------------------------------
# dispatch


def realize_signal(spec: SignalSpec, n: int | None = None, seed: int = 0) -> np.ndarray:
    """Materialize theta* for a SignalSpec.

    ``n`` is required for the island model (total vertex count); grid
    kinds carry their own geometry in ``params``.  Returns a flat vector
    (column-major for grid kinds).
    """
    if spec.kind == "island":
        if n is None:
            raise ValueError("island signal needs n")
        return island_signal(n, spec.params["k"], spec.params["l"])
    if spec.kind == "grid_function":
        p = dict(spec.params)
        name = p.pop("name")
        d = p.pop("d")
        N = p.pop("N")
        return sample_grid_function(name, d, N, **p)
    if spec.kind == "bi_isotonic":
        p = spec.params
        return bi_isotonic_signal(p["N"], p["variation_sqrt"], seed=seed).reshape(-1, order="F")
    if spec.kind == "custom":
        return np.asarray(spec.params["vector"], dtype=float)
    raise ValueError(f"unknown signal kind {spec.kind!r}")
