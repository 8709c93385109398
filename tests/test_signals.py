import numpy as np
import pytest

from graphtv import experiments as E
from graphtv import graphs as G
from graphtv import signals as sig


class TestIsland:
    def test_appendix_layout(self):
        theta = sig.island_signal(12, 3, 3)
        assert theta.tolist() == [60, 60, 60, 70, 70, 70, 80, 80, 80, 50, 50, 50]

    def test_no_islands_is_constant_background(self):
        assert np.array_equal(sig.island_signal(7, 0, 0), np.full(7, 50.0))

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            sig.island_signal(8, 3, 3)

    def test_jump_support_on_complete_graph(self):
        # enumeration oracle: pairs with distinct values on K_12
        n, k, l = 12, 3, 3
        theta = sig.island_signal(n, k, l)
        g = G.build_complete(n)
        D = G.incidence(g)
        nnz = int(np.count_nonzero(np.abs(D @ theta) > 0))
        expected = sum(1 for a in range(n) for b in range(a + 1, n)
                       if theta[a] != theta[b])
        assert nnz == expected == 54


class TestGridFunctions:
    def test_constant(self):
        v = sig.sample_grid_function("constant", 2, 5, value=1.5)
        assert np.array_equal(v, np.full(25, 1.5))

    def test_column_major_flattening(self):
        # f(x) = x_1 must vary fastest along the flat index
        v = sig.sample_grid_function("holder_cone", 2, 4, alpha=1.0, L=1.0)
        pts = sig.grid_points(2, 4)
        assert np.allclose(pts[:4, 1], pts[0, 1])  # first coordinate block shares x_2
        assert np.allclose(v, np.max(np.abs(pts - 0.5), axis=1))

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_holder_condition_exhaustive_small(self, alpha):
        # |theta_i - theta_j| <= L N^-alpha ||i - j||_inf^alpha over all pairs
        L, N, d = 2.0, 8, 2
        v = sig.sample_grid_function("holder_cone", d, N, alpha=alpha, L=L)
        idx = np.stack(np.meshgrid(np.arange(N), np.arange(N), indexing="ij"),
                       axis=-1).reshape(-1, 2, order="F")
        idx = idx[np.lexsort((idx[:, 1], idx[:, 0]))]
        pts = sig.grid_points(d, N)
        lin = np.argsort((pts[:, 0] * N + pts[:, 1] * N * N).round(9), kind="stable")
        # exhaustive pairwise check using the sampled vector directly
        coords = np.stack([np.tile(np.arange(N), N), np.repeat(np.arange(N), N)], axis=1)
        for a in range(N * N):
            diff = np.abs(v - v[a])
            dist = np.max(np.abs(coords - coords[a]), axis=1)
            mask = dist > 0
            assert np.all(diff[mask] <= L * (dist[mask] / N) ** alpha + 1e-12)

    def test_holder_neighbors_large(self):
        L, N = 3.0, 64
        v = sig.sample_grid_function("holder_cone", 2, N, alpha=1.0, L=L).reshape(N, N, order="F")
        assert np.max(np.abs(np.diff(v, axis=0))) <= L / N + 1e-12
        assert np.max(np.abs(np.diff(v, axis=1))) <= L / N + 1e-12

    def test_halfplane_jump_count(self):
        N = 8
        v = sig.sample_grid_function("pc_halfplane", 2, N, height=2.0)
        D = G.incidence(G.build_grid(2, N))
        assert int(np.count_nonzero(D @ v)) == N  # one jump column

    def test_cartoon_boundary_edge_count_scales_linearly(self):
        counts = {}
        for N in (16, 32, 64):
            v = sig.sample_grid_function("cartoon_disk", 2, N,
                                         height=10.0, radius=0.3, alpha=1.0, L=0.0)
            D = G.incidence(G.build_grid(2, N))
            counts[N] = int(np.count_nonzero(np.abs(D @ v) > 1e-9))
        fitted_c = max(counts[N] / N for N in counts)
        assert fitted_c <= 20.0

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown grid function"):
            sig.sample_grid_function("nope", 2, 4)


class TestBiIsotonic:
    def test_zero_variation_is_constant(self):
        m = sig.bi_isotonic_signal(6, 0.0, seed=1)
        assert np.array_equal(m, np.zeros((6, 6)))

    def test_monotone_both_axes(self):
        m = sig.bi_isotonic_signal(20, 5.0, seed=2)
        assert np.all(np.diff(m, axis=0) >= 0)
        assert np.all(np.diff(m, axis=1) >= 0)

    def test_corner_variation(self):
        m = sig.bi_isotonic_signal(16, 7.5, seed=3)
        assert m[-1, -1] - m[0, 0] == pytest.approx(7.5, abs=1e-12)

    def test_tv_norm_bound(self):
        # ||D theta||_1 <= 2 N (theta_NN - theta_11) for bi-isotonic matrices
        for seed in range(5):
            N = 12
            m = sig.bi_isotonic_signal(N, 4.0, seed=seed)
            D = G.incidence(G.build_grid(2, N))
            tv_norm = np.abs(D @ m.reshape(-1, order="F")).sum()
            assert tv_norm <= 2 * N * (m[-1, -1] - m[0, 0]) + 1e-9

    def test_deterministic(self):
        a = sig.bi_isotonic_signal(10, 3.0, seed=9)
        b = sig.bi_isotonic_signal(10, 3.0, seed=9)
        assert np.array_equal(a, b)


class TestNoise:
    def test_sigma_zero(self):
        assert np.array_equal(sig.gaussian_noise(10, sig.NoiseModel(0.0, 1, 2)),
                              np.zeros(10))

    def test_bitwise_reproducible(self):
        a = sig.gaussian_noise(100, sig.NoiseModel(1.3, seed=5, stream_id=7))
        b = sig.gaussian_noise(100, sig.NoiseModel(1.3, seed=5, stream_id=7))
        assert np.array_equal(a, b)

    def test_streams_are_distinct(self):
        a = sig.gaussian_noise(100, sig.NoiseModel(1.0, seed=5, stream_id=0))
        b = sig.gaussian_noise(100, sig.NoiseModel(1.0, seed=5, stream_id=1))
        assert not np.array_equal(a, b)

    def test_clt_mean(self):
        x = sig.gaussian_noise(10**6, sig.NoiseModel(1.0, seed=123, stream_id=0))
        assert abs(x.mean()) <= 4e-3  # 4 sigma / 10^3

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            sig.NoiseModel(-0.1, 0, 0)


class TestSignalSpec:
    """The ``signal`` spec of an experiment config, realized by ``experiments._signal_for``."""

    @staticmethod
    def _config(kind, params, family="grid", size=4):
        return E.ExperimentConfig(name="s", family=family, sizes=[size],
                                  family_params={"d": 2} if family == "grid" else {},
                                  signal={"kind": kind, "params": params})

    def test_realize_island(self):
        cfg = self._config("island", {"k": 2, "l": 2}, family="complete", size=10)
        v = E._signal_for(cfg, G.build_complete(10), 10, cfg._shapes[0], signal_seed=0)
        assert v.tolist() == [60, 60, 70, 70, 50, 50, 50, 50, 50, 50]

    def test_realize_grid_function(self):
        cfg = self._config("grid_function", {"name": "pc_halfplane", "height": 1.0})
        v = E._signal_for(cfg, G.build_grid(2, 4), 16, cfg._shapes[0], signal_seed=0)
        assert v.shape == (16,)  # d and the side N from the grid graph
        assert np.array_equal(v, sig.sample_grid_function("pc_halfplane", 2, 4, height=1.0))

    def test_realize_bi_isotonic_flattens_column_major(self):
        cfg = self._config("bi_isotonic", {"variation_sqrt": 2.0}, size=5)
        v = E._signal_for(cfg, G.build_grid(2, 5), 25, cfg._shapes[0], signal_seed=4)
        m = sig.bi_isotonic_signal(5, 2.0, seed=4)
        assert np.array_equal(v, m.reshape(-1, order="F"))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="signal needs a kind"):
            self._config("mystery", {})
