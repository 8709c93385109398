import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtv import graphs as G
from graphtv import spectral as S


def dense_laplacian(g):
    D = G.incidence(g)
    return (D.T @ D).toarray()


class TestPathEigenpairs:
    def test_two_point_spectrum(self):
        lam, _ = S.path_eigenpairs(2)
        assert np.allclose(sorted(lam), [0.0, 2.0])

    def test_zero_mode(self):
        for N in (2, 5, 9):
            lam, V = S.path_eigenpairs(N)
            assert lam[0] == 0.0
            assert np.allclose(V[:, 0], 1.0 / np.sqrt(N))

    def test_diagonalizes_tridiagonal(self):
        N = 16
        lam, V = S.path_eigenpairs(N)
        L = dense_laplacian(G.build_path(N))
        assert np.max(np.abs(L @ V - V * lam[None, :])) <= 1e-9
        assert np.max(np.abs(V.T @ V - np.eye(N))) <= 1e-12


class TestCirculantEigenvalues:
    def test_cycle_four(self):
        vals = S.circulant_eigenvalues(4, 1)
        # dense oracle: eigensolve of the C4 Laplacian
        oracle = np.linalg.eigvalsh(dense_laplacian(G.build_cycle_power(4, 1)))
        assert np.allclose(sorted(vals), oracle, atol=1e-12)
        assert np.allclose(sorted(vals), [0, 2, 2, 4])

    def test_zero_mode(self):
        for n, k in [(5, 1), (8, 3), (12, 5)]:
            assert S.circulant_eigenvalues(n, k)[0] == 0.0

    def test_matches_dense_eigensolve(self):
        # n = 2k joins each vertex to its opposite once: (4, 2) is K_4, (6, 3) is K_6
        for n, k in [(6, 2), (9, 2), (10, 4), (4, 2), (6, 3), (8, 4), (10, 5)]:
            vals = np.sort(S.circulant_eigenvalues(n, k))
            oracle = np.linalg.eigvalsh(dense_laplacian(G.build_cycle_power(n, k)))
            assert np.max(np.abs(vals - oracle)) <= 1e-9


class TestPseudoinverse:
    def test_star_explicit_entries(self):
        # proof-level closed form: s[i, j] = -(n-1)/n on the leaf of edge j,
        # 1/n elsewhere
        for n in (3, 6, 11):
            Sm = S.pseudoinverse_columns_dense(G.incidence(G.build_star(n)))
            expected = np.full((n, n - 1), 1.0 / n)
            for j in range(n - 1):
                expected[j + 1, j] = -(n - 1) / n
            assert np.max(np.abs(Sm - expected)) <= 1e-10

    def test_augmented_path_is_cumsum(self):
        Dt = G.build_augmented_path(6)
        Sm = S.pseudoinverse_columns_dense(Dt)
        assert np.max(np.abs(Sm - np.tril(np.ones((6, 6))))) <= 1e-10

    def test_k3_column_norms(self):
        Sm = S.pseudoinverse_columns_dense(G.incidence(G.build_complete(3)))
        norms = np.linalg.norm(Sm, axis=0)
        assert np.allclose(norms, np.sqrt(2.0) / 3.0, atol=1e-12)

    def test_moore_penrose_identity(self):
        for g in (G.build_path(7), G.build_star(6), G.build_grid(2, 3)):
            D = G.incidence(g).toarray()
            Sm = S.pseudoinverse_columns_dense(D)
            assert np.max(np.abs(D @ Sm @ D - D)) <= 1e-8

    def test_columns_orthogonal_to_ones(self):
        for g in (G.build_complete(6), G.build_cycle_power(8, 2)):
            Sm = S.pseudoinverse_columns_dense(G.incidence(g))
            assert np.max(np.abs(Sm.T @ np.ones(g.n))) <= 1e-9

    def test_size_cap(self, monkeypatch):
        monkeypatch.setattr(S, "DENSE_SIZE_CAP", 5)
        with pytest.raises(ValueError, match="capped at n=5 vertices, got 10; .* --lambda-value"):
            S.pseudoinverse_columns_dense(G.incidence(G.build_path(10)))


def _rho_independent(g):
    """Independent route: minimum-norm normal-equations solve of every column.

    One lstsq call takes all m columns of D^T as right-hand sides; a loop
    of per-column calls is too slow for the m = 2350 case below.
    """
    D = G.incidence(g).toarray()
    L = D.T @ D
    s, *_ = np.linalg.lstsq(L, D.T, rcond=None)
    return float(np.linalg.norm(s, axis=0).max())


class TestRho:
    def test_star_closed_form(self):
        for n in (3, 10, 25):
            rho = S.rho_dense(G.incidence(G.build_star(n)))
            assert abs(rho - np.sqrt((n * n - n) / n**2)) <= 1e-10

    def test_augmented_path_sqrt_n(self):
        for N in (2, 5, 20):
            rho = S.rho_dense(G.build_augmented_path(N))
            assert abs(rho - np.sqrt(N)) <= 1e-10

    def test_complete_sqrt2_over_n(self):
        for n in (3, 8, 20):
            rho = S.rho_dense(G.incidence(G.build_complete(n)))
            assert abs(rho * n - np.sqrt(2.0)) <= 1e-9

    @pytest.mark.parametrize("g", [
        G.build_path(9), G.build_grid(2, 4), G.build_star(12),
        G.build_cycle_power(10, 3), G.build_erdos_renyi(16, 0.3, seed=1),
        # m >> n: the dense route takes D in several row blocks
        pytest.param(G.build_erdos_renyi(300, 0.05, seed=3), id="erdos_renyi_300"),
    ], ids=lambda g: g.family)
    def test_dense_matches_independent_route(self, g):
        assert abs(S.rho_dense(G.incidence(g)) - _rho_independent(g)) <= 1e-7

    def test_gram_route_matches(self):
        for g in (G.build_grid(2, 5), G.build_erdos_renyi(25, 0.25, seed=2)):
            a = S.rho_dense(G.incidence(g))
            b = S.rho_dense_gram(g)
            assert abs(a - b) <= 1e-10

    @pytest.mark.parametrize("N", [2, 3, 4, 6, 8])
    def test_structured_matches_dense_2d(self, N):
        dense = S.rho_dense(G.incidence(G.build_grid(2, N)))
        structured = S.rho_structured_grid(2, N)
        assert abs(dense - structured) <= 1e-8

    def test_structured_matches_dense_3d(self):
        dense = S.rho_dense(G.incidence(G.build_grid(3, 3)))
        assert abs(dense - S.rho_structured_grid(3, 3)) <= 1e-8

    def test_structured_one_dimensional(self):
        dense = S.rho_dense(G.incidence(G.build_path(12)))
        assert abs(dense - S.rho_structured_grid(1, 12)) <= 1e-10

    def test_one_dimensional_cap_counts_the_eigenvectors(self, monkeypatch):
        # N^d = 2050 is small, but the path eigenvectors are 2050 x 2050
        def no_eigenpairs(N):
            raise AssertionError("path eigenpairs allocated")
        monkeypatch.setattr(S, "path_eigenpairs", no_eigenpairs)
        with pytest.raises(ValueError, match="capped"):
            S.rho_structured_grid(1, 2050)

    def test_hypercube_bounded_by_one(self):
        for d in range(1, 11):
            assert S.rho_structured_grid(d, 2) <= 1.0 + 1e-12

    def test_spectral_gap_bound_holds(self):
        for g in (G.build_path(8), G.build_grid(2, 4), G.build_complete(9),
                  G.build_star(9), G.build_cycle_power(9, 2),
                  G.build_random_regular(12, 3, seed=5)):
            D = G.incidence(g)
            rho = S.rho_dense(D)
            lam2, bound = S.spectral_gap(D)
            assert rho <= bound + 1e-9


class TestKappa:
    def test_empty_set_convention(self):
        assert S.kappa_lower_bound(5, 0) == 1.0
        assert S.kappa_exact_bruteforce(G.incidence(G.build_path(4)), []) == 1.0

    def test_lower_bound_values(self):
        assert S.kappa_lower_bound(4, 100) == pytest.approx(0.25)
        assert S.kappa_lower_bound(9, 4) == pytest.approx(0.25)

    def test_single_edge(self):
        D = G.incidence(G.build_grid(2, 3))
        for e in (0, 3, 7):
            assert S.kappa_exact_bruteforce(D, [e]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_path3_both_edges(self):
        D = G.incidence(G.build_path(3))
        # 4 sign patterns; the worst is (+1, -1) giving ||(1,-2,1)|| = sqrt(6)
        assert S.kappa_exact_bruteforce(D, [0, 1]) == pytest.approx(1 / np.sqrt(3), abs=1e-12)

    def test_exact_dominates_lower_bound_random_pairs(self):
        rng = np.random.default_rng(2024)
        graphs = [G.build_path(10), G.build_grid(2, 4), G.build_star(12),
                  G.build_complete(7), G.build_cycle_power(10, 2),
                  G.build_erdos_renyi(14, 0.35, seed=8)]
        checked = 0
        while checked < 100:
            g = graphs[int(rng.integers(len(graphs)))]
            D = G.incidence(g)
            t = int(rng.integers(1, 13))
            T = rng.choice(g.m, size=min(t, g.m), replace=False)
            exact = S.kappa_exact_bruteforce(D, T)
            bound = S.kappa_lower_bound(G.max_degree(g), len(T))
            assert exact >= bound - 1e-12
            checked += 1

    def test_duplicate_edges_collapse(self):
        D = G.incidence(G.build_path(3))
        assert S.kappa_exact_bruteforce(D, [0, 1, 1, 0]) == \
            S.kappa_exact_bruteforce(D, [0, 1])

    def test_size_cap(self):
        D = G.incidence(G.build_complete(10))
        with pytest.raises(ValueError):
            S.kappa_exact_bruteforce(D, list(range(21)))


class TestSpectralGap:
    def test_complete(self):
        lam2, _ = S.spectral_gap(G.incidence(G.build_complete(7)))
        assert lam2 == pytest.approx(7.0, abs=1e-9)

    def test_two_point_path(self):
        lam2, _ = S.spectral_gap(G.incidence(G.build_path(2)))
        assert lam2 == pytest.approx(2.0, abs=1e-12)

    def test_cycle_six(self):
        lam2, _ = S.spectral_gap(G.incidence(G.build_cycle_power(6, 1)))
        # circulant formula at m=1, k=1
        assert lam2 == pytest.approx(2 - 2 * np.cos(2 * np.pi / 6), abs=1e-9)


class TestReports:
    def test_dense_report_fields(self):
        rep = S.spectral_report(G.build_star(10), method="dense")
        assert rep.graph_n == 10 and rep.graph_m == 9
        assert rep.rho == pytest.approx(np.sqrt(0.9), abs=1e-10)
        assert rep.rho_method == "dense_pseudoinverse"
        assert rep.spectral_gap == pytest.approx(1.0, abs=1e-12)  # the star's lambda_2
        d = rep.to_json_dict()
        assert set(d) == {"n", "m", "rho", "rho_method", "lambda2",
                          "kappa_lower_bound", "family"}

    def test_structured_report(self):
        rep = S.spectral_report(G.build_grid(2, 8), method="auto")
        assert rep.rho_method == "eigensum_structured"
        dense = S.spectral_report(G.build_grid(2, 8), method="dense")
        assert rep.rho == pytest.approx(dense.rho, abs=1e-8)
        assert rep.spectral_gap == pytest.approx(dense.spectral_gap, abs=1e-9)

    def test_structured_rejects_other_families(self):
        # "auto" takes the eigensum exactly where it applies, so there is no
        # separate "structured" method to point at a star
        with pytest.raises(ValueError, match="^unknown method 'structured'$"):
            S.spectral_report(G.build_grid(2, 4), method="structured")
        assert S.spectral_report(G.build_star(5)).rho_method == "closed_form"


class TestAutoMethod:
    @pytest.mark.parametrize("family", list(G.FAMILIES))
    def test_structured_exactly_for_grids_and_hypercubes(self, family):
        g = G.build_family(family, n=12, d=3, N=4, k=2, p=0.5, seed=3)
        rep = S.spectral_report(g, "auto")
        assert S.rho_estimate(g) == rep.rho  # the one route, read twice
        if family in ("complete", "star"):
            assert rep.rho_method == "closed_form"
            return
        structured = family in ("grid", "hypercube")
        assert rep.rho_method == ("eigensum_structured" if structured else "dense_pseudoinverse")
        if structured:
            assert rep.rho == S.rho_structured_grid(g.params["d"], g.params.get("N", 2))
            assert rep.rho == pytest.approx(S.spectral_report(g, "dense").rho, abs=1e-9)
        else:
            assert rep.rho == S.spectral_report(g, "dense").rho


class TestOneRoute:
    @pytest.mark.parametrize("family", ["complete", "star"])
    def test_closed_forms_match_dense(self, family):
        for n in range(2, 41):  # S_2 is one edge, with lambda_2 = 2
            g = G.build_family(family, n=n)
            auto, dense = S.spectral_report(g), S.spectral_report(g, "dense")
            assert auto.rho_method == "closed_form"
            assert abs(auto.rho - dense.rho) <= 1e-10, n
            assert abs(auto.spectral_gap - dense.spectral_gap) <= 1e-10, n

    @pytest.mark.parametrize("g, method", [
        (G.Graph(12, G.build_complete(12).edges[1:], family="complete"), "dense_pseudoinverse"),
        (G.Graph(5, G.build_path(5).edges, family="star"), "dense_pseudoinverse"),
        (G.Graph(6, G.build_star(6).edges[1:], family="star"), "dense_pseudoinverse"),
        # S_5 centered at vertex 3 is still a star
        (G.Graph(5, [(0, 3), (1, 3), (2, 3), (3, 4)], family="star"), "closed_form"),
        (G.Graph(16, G.build_path(16).edges, family="grid", params={"d": 2, "N": 4}),
         "dense_pseudoinverse"),
        # the 4x4 grid with (0, 1) swapped for (3, 4), a step of 1 off the grid's last column
        (G.Graph(16, G._canonical_edges([e for e in G.build_grid(2, 4).edges.tolist()
                                         if e != [0, 1]] + [[3, 4]]),
                 family="grid", params={"d": 2, "N": 4}), "dense_pseudoinverse"),
        (G.Graph(8, G.build_hypercube(3).edges, family="grid", params={"d": 3, "N": 2}),
         "eigensum_structured"),
    ], ids=["complete-minus-an-edge", "path-tagged-star", "star-minus-an-edge", "star-off-0",
            "path-tagged-grid", "grid-with-a-swapped-edge", "hypercube-tagged-grid"])
    def test_closed_form_reads_the_edges_not_the_tag(self, g, method):
        auto, dense = S.spectral_report(g), S.spectral_report(g, "dense")
        assert auto.rho_method == method
        assert abs(auto.rho - dense.rho) <= 1e-10 and S.rho_estimate(g) == auto.rho
        assert abs(auto.spectral_gap - dense.spectral_gap) <= 1e-10

    @pytest.mark.parametrize("family", ["erdos_renyi", "random_regular"])
    def test_gap_bound_past_the_dense_cap(self, monkeypatch, family):
        g = G.build_family(family, n=12, d=3, p=0.5, seed=3)
        dense = S.spectral_report(g, "dense")
        monkeypatch.setattr(S, "DENSE_SIZE_CAP", 8)
        rep = S.spectral_report(g)
        assert rep.rho_method == "spectral_gap_bound"
        assert rep.spectral_gap == pytest.approx(dense.spectral_gap, abs=1e-9)
        assert dense.rho <= rep.rho == pytest.approx(np.sqrt(2.0) / dense.spectral_gap)

    def test_matrix_takes_the_dense_route(self):
        rep = S.spectral_report(G.build_augmented_path(6), method="auto")
        assert rep.rho_method == "dense_pseudoinverse" and rep.family == "custom"
        assert rep.rho == pytest.approx(np.sqrt(6), abs=1e-10)


def _laplacian(D):
    D = sp.csr_matrix(D)
    return (D.T @ D).toarray()


@st.composite
def small_graphs(draw):
    """A simple graph on 2..40 vertices with at least one edge, disconnected ones
    and isolated vertices included; past ``LANCZOS_MIN_N`` vertices lambda_2
    comes from Lanczos."""
    n = draw(st.integers(2, 40))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    p = draw(st.sampled_from([0.05, 0.15, 0.4, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    keep = np.random.default_rng(seed).random(len(pairs)) < p
    keep[draw(st.integers(0, len(pairs) - 1))] = True
    return G.Graph(n, [pq for pq, k in zip(pairs, keep) if k])


class TestCholeskyRoute:
    """The in-place Cholesky route against independent dense references."""

    @settings(max_examples=150, deadline=None)
    @given(small_graphs())
    def test_matches_independent_references(self, g):
        D = G.incidence(g)
        L = _laplacian(D)
        Lp, sq_norms, lam2 = S._dense_spectrum(D)
        assert abs(np.sqrt(sq_norms.max()) - _rho_independent(g)) <= 1e-9
        assert np.max(np.abs(Lp - np.linalg.pinv(L))) <= 1e-9
        ref = np.linalg.eigvalsh(L)[1]
        if G.is_connected(g):
            assert lam2 == pytest.approx(ref, rel=1e-9)
        else:  # the kernel has dimension >= 2
            assert lam2 == 0.0 and abs(ref) <= 1e-9
        assert S.spectral_gap(D)[0] == pytest.approx(lam2, rel=1e-9, abs=0.0)

    def test_path_closed_forms(self):
        N = 1024
        rep = S.spectral_report(G.build_path(N), method="dense")
        assert rep.spectral_gap == pytest.approx(2 - 2 * np.cos(np.pi / N), rel=1e-9)
        assert rep.rho == pytest.approx(S.rho_structured_grid(1, N), rel=1e-9)

    @pytest.mark.parametrize("N", [2, 5, 40])
    def test_anchored_path_has_no_kernel(self, N):
        Dt = G.build_augmented_path(N)
        L = _laplacian(Dt)
        assert S._kernel_components(Dt.tocsr(), Dt.T @ Dt) == []
        Lp, sq_norms, lam2 = S._dense_spectrum(Dt)
        assert np.max(np.abs(Lp - np.linalg.inv(L))) <= 1e-9 * N**2
        assert np.sqrt(sq_norms.max()) == pytest.approx(np.sqrt(N), rel=1e-10)
        # full rank: the second-smallest eigenvalue, not the smallest
        rep = S.spectral_report(Dt, method="dense")
        assert rep.spectral_gap == pytest.approx(np.linalg.eigvalsh(L)[1], rel=1e-9)

    @pytest.mark.parametrize("D", [np.array([[1.0, 1.0]]),
                                   np.array([[1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, 1.0]])],
                             ids=["sum-row", "kernel-not-constant"])
    def test_unexplained_kernel_fails_closed(self, D):
        with pytest.raises(ValueError, match="kernel"):
            S.rho_dense(D)
        with pytest.raises(ValueError, match="kernel"):
            S.spectral_gap(D)

    def test_memory_is_one_dense_matrix(self):
        n = 1000
        D = G.incidence(G.build_erdos_renyi(n, 0.01, seed=1))
        tracemalloc.start()
        try:
            S._dense_spectrum(D)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * n * n

    def test_spectral_gap_matches_eigvalsh(self):
        D = G.incidence(G.build_erdos_renyi(300, 0.03, seed=4))
        lam2, bound = S.spectral_gap(D)
        assert lam2 == pytest.approx(np.linalg.eigvalsh(_laplacian(D))[1], rel=1e-10)
        assert bound == pytest.approx(np.sqrt(2.0) / lam2, rel=1e-15)
