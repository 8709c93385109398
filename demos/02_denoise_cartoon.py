"""TV denoising of a cartoon image on the 2D grid, against Haar thresholding.

A disk of height 10 over a gently sloped background is observed in
Gaussian noise.  The TV denoiser, with lambda from the 2-D grid's
corollary rule, preserves the sharp boundary; bivariate Haar soft
thresholding is the classical comparison method.
"""
import numpy as np

import graphtv as gtv
from graphtv import signals, tvsolver

N = 64
sigma = 0.5
theta = signals.sample_grid_function("cartoon_disk", 2, N,
                                     height=10.0, radius=0.3, alpha=1.0, L=5.0)
noise = signals.gaussian_noise(N * N, signals.NoiseModel(sigma, seed=2, stream_id=0))
y = theta + noise

g = gtv.build_grid(2, N)
D = gtv.incidence(g)
rule = tvsolver.LambdaRule("corollary", sigma=sigma, delta=0.1)
lam = tvsolver.lambda_value(rule, g)
print(f"grid {N}x{N}, sigma={sigma}, lambda(corollary rule) = {lam:.5f}")

res = tvsolver.denoise(tvsolver.DenoiseProblem(y, D, lam))
print(f"solver: {res.iterations} iterations, converged={res.converged}, "
      f"certificate residual {res.stationarity_residual:.2e}, "
      f"duality gap {res.duality_gap:.2e}, ||z||_inf = {res.dual_feasibility:.6f}")

theta_haar = gtv.haar_denoise_2d(y.reshape(N, N, order="F"), sigma).reshape(-1, order="F")

mse = lambda est: float(np.mean((est - theta) ** 2))
print(f"MSE identity (no denoising): {mse(y):.4f}")
print(f"MSE TV denoiser:             {mse(res.theta_hat):.4f}")
print(f"MSE Haar thresholding:       {mse(theta_haar):.4f}")

# the certificate can be recomputed for any candidate, solver-agnostically
z, resid = tvsolver.kkt_certificate(tvsolver.DenoiseProblem(y, D, lam), res.theta_hat)
print(f"independent certificate residual: {resid:.2e} (tolerance "
      f"{1e-6 * (1 + np.max(np.abs(y))):.2e})")

# cross-section through the disk center for a quick look without plotting
mid = N // 2
row = lambda v: np.round(v.reshape(N, N, order='F')[mid, ::8], 2)
print("\ncross-section (every 8th pixel of the middle row):")
print("  truth:", row(theta))
print("  noisy:", row(y))
print("  tv   :", row(res.theta_hat))
print("  haar :", row(theta_haar))
