"""Spectral constants across graph families.

The regularization level that makes graph TV denoising work is driven by
the inverse scaling factor rho (the largest column norm of the
pseudoinverse of the incidence matrix) and floored by the compatibility
factor kappa.  This script computes both for every family and checks the
closed forms against the dense linear-algebra route.
"""
import numpy as np

import graphtv as gtv

print("=== rho across families ===")
rows = []
for label, g in [
    ("path n=64", gtv.build_path(64)),
    ("2D grid 16x16", gtv.build_grid(2, 16)),
    ("3D grid 6^3", gtv.build_grid(3, 6)),
    ("hypercube d=8", gtv.build_hypercube(8)),
    ("complete K_40", gtv.build_complete(40)),
    ("star S_40", gtv.build_star(40)),
    ("cycle power C_64^4", gtv.build_cycle_power(64, 4)),
    ("Erdos-Renyi(64, 0.25)", gtv.build_erdos_renyi(64, 0.25, seed=1)),
]:
    rep = gtv.spectral_report(g, method="auto")
    rows.append((label, g.n, g.m, rep.rho, rep.spectral_gap, rep.kappa_lower_bound))
    print(f"{label:24s} n={g.n:5d} m={g.m:5d} rho={rep.rho:8.4f} "
          f"lambda2={rep.spectral_gap:8.4f} kappa_lb={rep.kappa_lower_bound:.4f}")

print()
print("=== closed forms vs dense pseudoinverse ===")
n = 25
rho_star = gtv.rho_dense(gtv.incidence(gtv.build_star(n)))
print(f"star:      rho = {rho_star:.12f}   sqrt((n^2-n)/n^2) = {np.sqrt((n*n-n)/n**2):.12f}")
rho_kn = gtv.rho_dense(gtv.incidence(gtv.build_complete(n)))
print(f"complete:  rho * n = {rho_kn * n:.12f}   sqrt(2) = {np.sqrt(2):.12f}")
rho_aug = gtv.rho_dense(gtv.build_augmented_path(n))
print(f"augmented path: rho = {rho_aug:.12f}   sqrt(n) = {np.sqrt(n):.12f}")

print()
print("=== 2D grid: rho grows like sqrt(log n) ===")
for N in (8, 16, 32, 64, 128):
    rho = gtv.rho_structured_grid(2, N)
    print(f"N={N:4d}  rho={rho:.4f}  rho^2/log(N^2)={rho**2 / np.log(N * N):.4f}")

print()
print("=== spectral gap bound: rho <= sqrt(2)/lambda_2 ===")
for label, g in [("complete K_30", gtv.build_complete(30)),
                 ("random 3-regular n=30", gtv.build_random_regular(30, 3, seed=4))]:
    D = gtv.incidence(g)
    lam2, bound = gtv.spectral_gap(D)
    print(f"{label:24s} rho={gtv.rho_dense(D):.4f} <= sqrt(2)/lambda_2 = {bound:.4f}")

print()
print("=== compatibility factor: brute-force oracle vs degree bound ===")
g = gtv.build_grid(2, 4)
D = gtv.incidence(g)
rng = np.random.default_rng(0)
for size in (1, 3, 6, 10):
    T = rng.choice(g.m, size=size, replace=False)
    exact = gtv.kappa_exact_bruteforce(D, T)
    bound = gtv.kappa_lower_bound(4, size)
    print(f"|T|={size:3d}  kappa_exact={exact:.4f}  >=  bound={bound:.4f}")
