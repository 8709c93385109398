"""Island-model Monte Carlo: MSE scales like C log(n)/n.

Three islands of size three ride on a constant background of 50 and the
denoiser sees the signal through the complete graph or a sparse
Erdos-Renyi surrogate (expected degree 16).  Both the theoretical lambda
and the oracle geometric-grid search reproduce the C log(n)/n decay, and
the sparse graph matches the clique at a fraction of the edges.

Reduced to 15 trials per point to stay quick; the `island-fig2` CLI
preset runs the full 50.
"""

from graphtv import experiments as E

sizes = [100, 200, 400, 800]
island = {"kind": "island", "params": {"k": 3, "l": 3}}

curves = {}
for family, rule, fp in [
    ("complete", {"rule": "theorem_general", "delta": 0.1}, {}),
    ("erdos_renyi", {"rule": "corollary", "delta": 0.1, "constant_c": 2.0},
     {"p": [16 / n for n in sizes]}),  # expected degree 16 at every n
]:
    for policy in ("theoretical", "oracle"):
        cfg = E.ExperimentConfig(
            name=f"demo-{family}-{policy}", family=family, family_params=fp,
            sizes=sizes, signal=island, sigma=0.5, trials=15,
            lambda_policy=policy, lambda_rule=rule, master_seed=20170301)
        records = E.run_experiment(cfg)
        curves[(family, policy)] = E.mean_mse_by(records)
        fit_c = E.fit_rate(records, "c_logn_over_n")
        fit_p = E.fit_rate(records, "power_law")
        print(f"{family:12s} {policy:12s} "
              f"MSE: {['%.4f' % curves[(family, policy)][n] for n in sizes]}  "
              f"C*log(n)/n fit: C={fit_c.params['C']:.2f} (r^2={fit_c.r_squared:.3f})  "
              f"power-law exponent {fit_p.params['exponent']:.2f}")

print()
print("sparse vs clique (MSE ratio per n, oracle lambda):")
for n in sizes:
    r = curves[("erdos_renyi", "oracle")][n] / curves[("complete", "oracle")][n]
    print(f"  n={n:4d}: {r:.2f}")

print()
print("linear dependence on the island mass k*l (n=100, Erdos-Renyi d=16):")
kls = [[k, l] for k in (2, 4) for l in (3, 6, 9)]
cfg = E.ExperimentConfig(
    name="demo-kl", family="erdos_renyi", family_params={"p": 16 / 100},
    sizes=[100], signal=island, kl_values=kls, sigma=0.5, trials=15,
    lambda_policy="theoretical",
    lambda_rule={"rule": "corollary", "delta": 0.1, "constant_c": 2.0},
    master_seed=7)
records = E.run_experiment(cfg)
means = E.mean_mse_by(records, key=lambda r: (r.k, r.l))
for (k, l), m in means.items():
    print(f"  k={k} l={l} (k*l={k*l:2d}): mean MSE {m:.4f}")
print(f"Pearson correlation with k*l: "
      f"{E.kl_linearity_check(records).correlation:.3f}")
