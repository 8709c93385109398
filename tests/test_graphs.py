import hashlib
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from graphtv import graphs as G


def laplacian_dense(g):
    D = G.incidence(g)
    return (D.T @ D).toarray()


class TestPath:
    def test_smallest_path(self):
        g = G.build_path(2)
        assert g.edges.tolist() == [[0, 1]]

    def test_enumeration(self):
        g = G.build_path(4)
        assert g.edges.tolist() == [[0, 1], [1, 2], [2, 3]]

    def test_degree_sequence_via_laplacian(self):
        L = laplacian_dense(G.build_path(3))
        assert np.array_equal(np.diag(L), [1, 2, 1])

    def test_too_small(self):
        with pytest.raises(ValueError):
            G.build_path(1)


class TestAugmentedPath:
    def test_two_rows(self):
        Dt = G.build_augmented_path(2).toarray()
        assert np.array_equal(Dt, [[1, 0], [-1, 1]])

    def test_inverse_is_cumsum(self):
        for N in (1, 2, 5, 20):
            Dt = G.build_augmented_path(N).toarray()
            inv = np.linalg.inv(Dt)
            assert np.allclose(inv, np.tril(np.ones((N, N))), atol=1e-12)

    def test_matches_loop_construction(self):
        for N in (1, 2, 3, 7, 64, 257):
            rows, cols, data = [0], [0], [1.0]
            for i in range(1, N):
                rows += [i, i]
                cols += [i - 1, i]
                data += [-1.0, 1.0]
            ref = sp.csr_matrix((data, (rows, cols)), shape=(N, N))
            Dt = G.build_augmented_path(N)
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(Dt, attr), getattr(ref, attr)), (N, attr)

    def test_cumsum_action(self):
        Dt = G.build_augmented_path(3).toarray()
        assert np.allclose(np.linalg.solve(Dt, [1.0, 0.0, 0.0]), [1.0, 1.0, 1.0])


class TestGrid:
    def test_unit_square(self):
        g = G.build_grid(2, 2)
        assert g.n == 4 and g.m == 4

    def test_edge_count_formula(self):
        for d, N in [(2, 3), (2, 5), (3, 3), (4, 2)]:
            g = G.build_grid(d, N)
            assert g.n == N**d
            assert g.m == d * N ** (d - 1) * (N - 1)

    def test_cube(self):
        g = G.build_grid(3, 2)
        assert g.n == 8 and g.m == 12

    def test_kronecker_stack_equality(self):
        # the 2D incidence matrix equals [D1 (x) I; I (x) D1] as a set of
        # signed rows, re-sorted into the canonical (min, max) edge order
        for N in (2, 3, 5, 8):
            path = G.incidence(G.build_path(N)).toarray()
            eye = np.eye(N)
            stack = np.vstack([np.kron(path, eye), np.kron(eye, path)])
            rows = []
            for r in stack:
                plus = int(np.flatnonzero(r == 1.0)[0])
                minus = int(np.flatnonzero(r == -1.0)[0])
                assert r[plus] == 1.0 and r[minus] == -1.0
                rows.append((min(plus, minus), max(plus, minus)))
            assert sorted(rows) == [tuple(e) for e in G.build_grid(2, N).edges]

    def test_oversize_rejected(self):
        with pytest.raises(ValueError):
            G.build_grid(8, 12)


class TestHypercube:
    def test_single_edge(self):
        assert G.build_hypercube(1).edges.tolist() == [[0, 1]]

    def test_counts(self):
        g = G.build_hypercube(3)
        assert g.n == 8 and g.m == 12

    @pytest.mark.parametrize("d", range(1, 7))
    def test_matches_grid_side_two(self, d):
        hc = G.build_hypercube(d)
        gr = G.build_grid(d, 2)
        assert np.array_equal(hc.edges, gr.edges)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_edges_flip_one_bit(self, d):
        # d 2^(d-1) distinct pairs that differ in one bit are all such pairs
        g = G.build_hypercube(d)
        flip = np.bitwise_xor(*g.edges.T)
        assert np.all(flip & (flip - 1) == 0) and g.m == d * 2 ** (d - 1)
        assert (g.family, g.params) == ("hypercube", {"d": d, "N": 2})

    def test_errors_name_the_hypercube(self, monkeypatch):
        with pytest.raises(ValueError, match="hypercube dimension must be >= 1"):
            G.build_hypercube(0)
        monkeypatch.setattr(G, "SIZE_CAP", 8)
        with pytest.raises(ValueError, match="hypercube Q_4 has 32 edges and 16 vertices"):
            G.build_hypercube(4)


class TestCompleteStar:
    def test_complete_counts(self):
        assert G.build_complete(3).m == 3
        assert G.build_complete(7).m == 21

    def test_complete_edge_cap(self, monkeypatch):
        # a small cap stands in for n(n-1)/2 past SIZE_CAP; K_5 has 10 edges
        monkeypatch.setattr(G, "SIZE_CAP", 10)
        assert G.build_complete(5).m == 10
        with pytest.raises(ValueError, match="K_6 has 15 edges"):
            G.build_complete(6)

    def test_complete_edges_built_on_first_read(self, tmp_path):
        for n in range(2, 41):
            g = G.build_complete(n)
            assert g.m == n * (n - 1) // 2 and "edges" not in g._derived
            edges = g.edges
            expected = G._canonical_edges(np.column_stack(np.triu_indices(n, 1)))
            assert np.array_equal(edges, expected) and edges.dtype == expected.dtype == np.int64
            assert not edges.flags.writeable and g.edges is edges  # kept after the first read
            eager = G.Graph(n, expected.copy(), family="complete")
            a, b = G.incidence(g), G.incidence(eager)
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(a, part), getattr(b, part))
                assert getattr(a, part).dtype == getattr(b, part).dtype
            assert G.is_connected(g) and G.is_connected(eager)
            G.write_edge_list(tmp_path / "lazy.txt", g)
            G.write_edge_list(tmp_path / "eager.txt", eager)
            assert (tmp_path / "lazy.txt").read_text() == (tmp_path / "eager.txt").read_text()

    def test_only_a_complete_graph_defers_its_edges(self):
        with pytest.raises(ValueError, match="only a complete graph"):
            G.Graph(5, None)
        with pytest.raises(ValueError, match="at least one vertex"):
            G.Graph(0, None, family="complete")

    def test_star_edges(self):
        g = G.build_star(4)
        assert g.edges.tolist() == [[0, 1], [0, 2], [0, 3]]

    def test_star_incidence_entries(self):
        D = G.incidence(G.build_star(5)).toarray()
        for e in range(4):
            assert D[e, 0] == 1.0  # +1 at the center
            assert D[e, e + 1] == -1.0
            assert np.count_nonzero(D[e]) == 2


class TestGraphIdentity:
    """Graphs compare and hash by identity: a value comparison would build K_n's edges."""

    def test_equal_only_to_itself(self):
        g, h = G.build_path(5), G.build_path(5)
        assert g == g and g != h and not (g == h)
        assert len({g, h, g}) == 2

    def test_comparing_complete_graphs_builds_no_edges(self):
        g, h = G.build_complete(50), G.build_complete(50)
        assert g != h and {g: 1}[g] == 1
        assert "edges" not in g._derived and "edges" not in h._derived


class TestCyclePower:
    def test_plain_cycle(self):
        g = G.build_cycle_power(5, 1)
        assert g.m == 5

    def test_degree_and_count(self):
        g = G.build_cycle_power(6, 2)
        assert g.m == 12
        assert np.all(G.degrees(g) == 4)

    def test_k_half_n_equals_complete(self):
        g = G.build_cycle_power(4, 2)
        assert g.m == 6
        assert np.array_equal(g.edges, G.build_complete(4).edges)

    def test_matches_loop_construction(self):
        for n, k in [(3, 1), (4, 2), (7, 3), (10, 5), (11, 4), (40, 20), (41, 7)]:
            pairs = {(min(i, (i + s) % n), max(i, (i + s) % n))
                     for i in range(n) for s in range(1, k + 1)}
            assert np.array_equal(G.build_cycle_power(n, k).edges, sorted(pairs)), (n, k)

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            G.build_cycle_power(6, 4)


class TestRandomFamilies:
    def test_er_full_probability_is_complete(self):
        g = G.build_erdos_renyi(8, 1.0, seed=0)
        assert np.array_equal(g.edges, G.build_complete(8).edges)

    def test_er_deterministic(self):
        a = G.build_erdos_renyi(30, 0.2, seed=42)
        b = G.build_erdos_renyi(30, 0.2, seed=42)
        assert np.array_equal(a.edges, b.edges)
        c = G.build_erdos_renyi(30, 0.2, seed=43)
        assert not np.array_equal(a.edges, c.edges)

    def test_er_connected(self):
        for seed in range(5):
            assert G.is_connected(G.build_erdos_renyi(40, 0.15, seed=seed))

    def test_er_retry_exhaustion(self, monkeypatch):
        monkeypatch.setattr(G, "ER_MAX_RETRIES", 3)
        with pytest.raises(G.GraphGenerationError, match="p=0.001 in 3 attempts"):
            G.build_erdos_renyi(50, 0.001, seed=0)

    @staticmethod
    def _er_single_draw(n, p, seed):
        """The ER stream as one uniform per pair of triu_indices, drawn at once."""
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        iu, ju = np.triu_indices(n, k=1)
        attempts = 0
        while True:
            attempts += 1
            mask = rng.random(len(iu)) < p
            g = G.Graph(n, np.column_stack([iu[mask], ju[mask]]))
            if G.is_connected(g):
                return g.edges, attempts

    # n = 1500 spans three blocks of uniforms
    @pytest.mark.parametrize("n,p,seed,redraws", [
        (2, 1.0, 0, False), (3, 0.9, 1, False), (30, 0.12, 0, True), (30, 0.12, 1, False),
        (200, 0.05, 7, False), (1500, 0.005, 5, True)])
    def test_er_blocks_reproduce_single_draw(self, n, p, seed, redraws):
        edges, attempts = self._er_single_draw(n, p, seed)
        assert (attempts > 1) == redraws
        assert np.array_equal(G.build_erdos_renyi(n, p, seed).edges, edges)

    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_er_small_blocks_reproduce_single_draw(self, monkeypatch, block):
        monkeypatch.setattr(G, "ER_BLOCK_PAIRS", block)
        for n, p, seed in [(2, 1.0, 0), (30, 0.12, 0), (60, 0.1, 3)]:
            edges, _ = self._er_single_draw(n, p, seed)
            assert np.array_equal(G.build_erdos_renyi(n, p, seed).edges, edges)

    def test_er_memory_is_linear_in_edges(self):
        # one uniform per vertex pair at once peaks at about 107 MB here
        tracemalloc.start()
        try:
            G.build_erdos_renyi(3000, 16 / 3000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    # sha256 of the little-endian int64 edge array, recorded when the ER
    # builder still sorted its pairs with _canonical_edges
    @pytest.mark.parametrize("n,p,seed,m,digest", [
        (100, 0.16, 1, 814, "23b2066498c18d0a"), (200, 0.08, 7, 1562, "ad26fb36640d3f96"),
        (400, 0.04, 13, 3236, "53122c4fffeafa45"), (1500, 0.004, 2, 4606, "4f68299831334b83")])
    def test_er_edges_pinned(self, n, p, seed, m, digest):
        edges = G.build_erdos_renyi(n, p, seed).edges
        assert len(edges) == m
        assert hashlib.sha256(edges.astype("<i8").tobytes()).hexdigest()[:16] == digest

    def test_regular_unique_cubic_on_four(self):
        g = G.build_random_regular(4, 3, seed=1)
        assert np.array_equal(g.edges, G.build_complete(4).edges)

    def test_regular_deterministic_and_regular(self):
        a = G.build_random_regular(20, 3, seed=7)
        b = G.build_random_regular(20, 3, seed=7)
        assert np.array_equal(a.edges, b.edges)
        assert np.all(G.degrees(a) == 3)
        assert G.is_connected(a)

    @pytest.mark.parametrize("n, d", [(2000, 8), (40, 36), (100, 90), (7, 4)])
    def test_regular_repairs_instead_of_restarting(self, n, d):
        # a whole simple pairing has probability about exp(-(d^2 - 1)/4), so
        # (2000, 8) once failed 1,000 restarts; d > (n - 1)/2 is a complement
        g = G.build_random_regular(n, d, seed=1)
        assert g.m == n * d // 2  # Graph itself rejects loops and repeated edges
        assert np.all(G.degrees(g) == d)
        assert G.is_connected(g)
        assert np.array_equal(g.edges, G.build_random_regular(n, d, seed=1).edges)

    def test_regular_parity(self):
        with pytest.raises(ValueError):
            G.build_random_regular(5, 3, seed=0)

    def test_regular_edge_cap(self, monkeypatch):
        # a small cap stands in for n*d/2 past SIZE_CAP; (20, 18) would be a complement
        monkeypatch.setattr(G, "SIZE_CAP", 179)
        with pytest.raises(ValueError, match="past the supported"):
            G.build_random_regular(20, 18, seed=0)


class TestIncidenceInvariants:
    @pytest.mark.parametrize("g", [
        G.build_path(6), G.build_grid(2, 3), G.build_hypercube(3),
        G.build_complete(5), G.build_star(6), G.build_cycle_power(7, 2),
        G.build_erdos_renyi(12, 0.4, seed=3), G.build_random_regular(10, 3, seed=3),
    ], ids=lambda g: g.family)
    def test_rows_and_laplacian(self, g):
        D = G.incidence(g)
        arr = D.toarray()
        assert arr.shape == (g.m, g.n)
        assert np.all(arr.sum(axis=1) == 0)  # D 1 = 0
        assert np.all((arr == 1).sum(axis=1) == 1)
        assert np.all((arr == -1).sum(axis=1) == 1)
        A = np.zeros((g.n, g.n))
        A[g.edges[:, 0], g.edges[:, 1]] = A[g.edges[:, 1], g.edges[:, 0]] = 1
        L = np.diag(A.sum(axis=1)) - A
        assert np.array_equal(arr.T @ arr, L)

    @staticmethod
    def _incidence_coo(g):
        """The COO build ``incidence`` replaced: two entries per row, summed into csr."""
        if g.m == 0:
            return sp.csr_matrix((0, g.n))
        rows = np.repeat(np.arange(g.m, dtype=np.int64), 2)
        data = np.tile(np.array([1.0, -1.0]), g.m)
        return sp.csr_matrix((data, (rows, g.edges.reshape(-1))), shape=(g.m, g.n))

    def test_direct_csr_matches_coo_build(self):
        # random edge subsets of K_n, the edgeless graph included, and the families
        rng = np.random.default_rng(11)
        graphs = [G.Graph(1, np.zeros((0, 2))), G.Graph(5, np.zeros((0, 2))),
                  G.build_grid(2, 9), G.build_cycle_power(12, 6),
                  G.build_erdos_renyi(300, 0.05, seed=2)]
        for _ in range(60):
            n = int(rng.integers(1, 30))
            edges = G.build_complete(n).edges if n > 1 else np.zeros((0, 2))
            graphs.append(G.Graph(n, edges[rng.random(len(edges)) < rng.random()]))
        assert any(g.m == 0 for g in graphs[2:])
        for g in graphs:
            D, ref = G.incidence(g), self._incidence_coo(g)
            assert D.shape == ref.shape
            for name in ("indptr", "indices", "data"):
                a, b = getattr(D, name), getattr(ref, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), (name, g.n, g.m)

    def test_grid_2x2_degrees(self):
        L = laplacian_dense(G.build_grid(2, 2))
        assert np.array_equal(np.diag(L), [2, 2, 2, 2])

    def test_canonical_ordering_is_validated(self):
        with pytest.raises(ValueError):
            G.Graph(3, np.array([[1, 2], [0, 1]]))  # not sorted
        with pytest.raises(ValueError):
            G.Graph(3, np.array([[1, 1]]))  # self loop
        with pytest.raises(ValueError):
            G.Graph(3, np.array([[0, 1], [0, 1]]))  # duplicate

    @pytest.mark.parametrize("edges, message", [
        ([[1, 2], [0, 1]], "sorted"),
        ([[0, 2], [0, 1]], "sorted"),
        ([[0, 1], [1, 2], [0, 2]], "sorted"),
        ([[0, 2], [0, 1], [0, 1]], "sorted"),  # unsorted wins over duplicate
        ([[0, 1], [0, 1]], "duplicate"),
        ([[0, 1], [1, 2], [1, 2], [2, 3]], "duplicate"),
    ])
    def test_validation_messages(self, edges, message):
        with pytest.raises(ValueError, match=message):
            G.Graph(4, np.array(edges))

    def test_validation_matches_sort_based_check(self):
        # reference: the lexsort + unique test the O(m) pass replaced
        def reference(edges):
            order = np.lexsort((edges[:, 1], edges[:, 0]))
            if not np.array_equal(order, np.arange(len(edges))):
                return "sorted"
            if len(np.unique(edges, axis=0)) != len(edges):
                return "duplicate"
            return None

        rng = np.random.default_rng(0)
        for _ in range(500):
            m = int(rng.integers(1, 8))
            i = rng.integers(0, 4, size=m)
            edges = np.column_stack([i, i + rng.integers(1, 3, size=m)])
            if rng.random() < 0.5:
                edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
            expected = reference(edges)
            try:
                G.Graph(6, edges)
                got = None
            except ValueError as exc:
                got = "sorted" if "sorted" in str(exc) else "duplicate"
            assert got == expected, edges


class TestConnectivity:
    def test_path_connected(self):
        assert G.is_connected(G.build_path(5))

    def test_two_isolated_edges(self):
        g = G.Graph(4, np.array([[0, 1], [2, 3]]))
        assert not G.is_connected(g)

    def test_complete_connected(self):
        assert G.is_connected(G.build_complete(9))

    @pytest.mark.parametrize("n, edges, connected", [
        (1, [], True), (3, [], False), (3, [[0, 2]], False), (3, [[0, 2], [1, 2]], True),
    ])
    def test_edgeless_and_isolated_vertices(self, n, edges, connected):
        assert G.is_connected(G.Graph(n, np.array(edges).reshape(-1, 2))) is connected


class TestShapeChecks:
    """``is_path`` and ``is_grid`` read the edges, not the family tag."""

    @pytest.mark.parametrize("family", list(G.FAMILIES))
    def test_builders(self, family):
        g = G.build_family(family, n=16, d=2, N=4, k=2, p=0.5, seed=3)
        assert G.is_path(g) == (family == "path")
        assert G.is_grid(g, g.params.get("d"), g.params.get("N")) == (
            family in ("grid", "hypercube"))

    def test_one_dimensional_grid_is_a_path(self):
        assert G.is_path(G.build_grid(1, 7)) and G.is_grid(G.build_path(7), 1, 7)
        assert G.is_grid(G.build_hypercube(4), 4, 2) and not G.is_grid(G.build_grid(2, 4), 4, 2)

    @pytest.mark.parametrize("edges", [
        [(0, 1), (1, 2), (2, 4), (3, 4)],  # n - 1 edges, one of them not (i, i+1)
        [(0, 1), (1, 2), (2, 3)],  # vertex 4 left out
        [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)],  # the cycle
    ])
    def test_path_tag_is_not_a_path(self, edges):
        assert not G.is_path(G.Graph(5, edges))
        with pytest.raises(ValueError, match="edges do not fit family tag 'path' with params {}"):
            G.Graph(5, edges, family="path")


def _swapped_grid_edges():
    """The 4x4 grid with (0, 1) swapped for (3, 4), a step of 1 off the grid's last column."""
    return G._canonical_edges([e for e in G.build_grid(2, 4).edges.tolist()
                               if e != [0, 1]] + [[3, 4]])


# Graphs whose tag their edges belie: (n, edges, family, params)
BELIED = {
    "path-tagged-grid": (16, G.build_path(16).edges, "grid", {"d": 2, "N": 4}),
    "path-tagged-hypercube": (16, G.build_path(16).edges, "hypercube", {"d": 4, "N": 2}),
    "path-tagged-star": (16, G.build_path(16).edges, "star", {}),
    "path-tagged-cycle-power": (12, G.build_path(12).edges, "cycle_power", {"n": 12, "k": 1}),
    "k4-minus-an-edge": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)], "complete", {}),
    "complete-minus-an-edge": (12, G.build_complete(12).edges[1:], "complete", {}),
    "star-minus-an-edge": (6, G.build_star(6).edges[1:], "star", {}),
    "star-tagged-path": (12, G.build_star(12).edges, "path", {"N": 12}),
    "grid-with-a-swapped-edge": (16, _swapped_grid_edges(), "grid", {"d": 2, "N": 4}),
    "grid-tagged-hypercube": (16, G.build_grid(2, 4).edges, "hypercube", {"d": 4, "N": 2}),
    "hypercube-without-its-side": (8, G.build_hypercube(3).edges, "hypercube", {"d": 3}),
    "cycle-tagged-square": (12, G.build_cycle_power(12, 1).edges, "cycle_power",
                            {"n": 12, "k": 2}),
    "cycle-power-missing-k": (12, G.build_cycle_power(12, 2).edges, "cycle_power", {"n": 12}),
    "3-regular-tagged-5": (12, G.build_random_regular(12, 3, 0).edges, "random_regular",
                           {"d": 5, "seed": 0}),
    "edgeless-tagged-k-0": (5, [], "cycle_power", {"n": 5, "k": 0}),
    "edgeless-tagged-d-0": (5, [], "random_regular", {"d": 0, "seed": 0}),
}


class TestTagChecks:
    """A Graph checks its family tag against its edges when it is made."""

    @pytest.mark.parametrize("family", list(G.FAMILIES))
    def test_builders_pass_their_check(self, family):
        flags = {"path": [{"n": n} for n in range(2, 12)],
                 "grid": [{"d": d, "N": N} for d in range(1, 5) for N in range(2, 7 - d)],
                 "hypercube": [{"d": d} for d in range(1, 9)],
                 "complete": [{"n": n} for n in range(2, 12)],
                 "star": [{"n": n} for n in range(2, 12)],
                 "cycle_power": [{"n": n, "k": k} for n in range(3, 25)
                                 for k in range(1, n // 2 + 1)],
                 "erdos_renyi": [{"n": n, "p": 0.5, "seed": n} for n in range(2, 12)],
                 "random_regular": [{"n": n, "d": d, "seed": 0} for n in range(3, 17)
                                    for d in range(2, n) if n * d % 2 == 0]}[family]
        for f in flags:
            g = G.build_family(family, **f)
            assert g.family == family
            assert G.Graph(g.n, g.edges, family, g.params).m == g.m

    @pytest.mark.parametrize("case", BELIED)
    def test_belied_tag_raises(self, case):
        n, edges, family, params = BELIED[case]
        G.Graph(n, edges)  # the edges alone make a custom graph
        with pytest.raises(ValueError, match=f"edges do not fit family tag '{family}' with params"):
            G.Graph(n, edges, family=family, params=params)

    def test_unknown_tag_is_refused(self):
        with pytest.raises(ValueError, match="edges do not fit family tag 'foo' with params {}"):
            G.Graph(3, [(0, 1), (1, 2)], family="foo")

    @pytest.mark.parametrize("n, edges, family, params", [
        (5, [(0, 3), (1, 3), (2, 3), (3, 4)], "star", {}),  # centered at vertex 3
        (8, G.build_hypercube(3).edges, "grid", {"d": 3, "N": 2}),
        (7, G.build_path(7).edges, "grid", {"d": 1, "N": 7}),
        (7, G.build_grid(1, 7).edges, "path", {"N": 7}),
        (6, G.build_cycle_power(6, 3).edges, "cycle_power", {"n": 6, "k": 3}),  # K_6
    ], ids=["star-off-0", "hypercube-tagged-grid", "path-tagged-grid-1d", "grid-1d-tagged-path",
            "cycle-power-n-2k"])
    def test_tags_that_hold_off_their_builder(self, n, edges, family, params):
        assert G.Graph(n, edges, family, params).family == family


class TestEdgeListFormat:
    def test_parse_with_comments(self):
        text = "# my graph\n1 2\n2 3  # inline\n\n1 3\n"
        g = G.parse_edge_list(text)
        assert g.n == 3
        assert g.edges.tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_roundtrip(self, tmp_path):
        g = G.build_cycle_power(7, 2)
        p = tmp_path / "g.txt"
        G.write_edge_list(p, g)
        back = G.read_edge_list(p)
        assert back.n == g.n
        assert np.array_equal(back.edges, g.edges)

    def test_size_cap_before_the_graph(self, monkeypatch):
        # refused from the counts alone: a Graph of 2e9 vertices is never built
        def no_graph(*args, **kwargs):
            raise AssertionError("graph built")
        monkeypatch.setattr(G, "Graph", no_graph)
        with pytest.raises(ValueError, match="custom graph has 1 edges and 2000000000 vertices"):
            G.parse_edge_list("1 2\n", n=2_000_000_000)
        monkeypatch.setattr(G, "SIZE_CAP", 2)
        with pytest.raises(ValueError, match="custom graph has 3 edges and 3 vertices"):
            G.parse_edge_list("1 2\n2 3\n1 3\n")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            G.parse_edge_list("1 2 3\n")
        with pytest.raises(ValueError, match="^line 3: expected 'i j', got '2 3.5'$"):
            G.parse_edge_list("1 2\n# c\n2 3.5\n")
        with pytest.raises(ValueError):
            G.parse_edge_list("1 1\n")
        with pytest.raises(ValueError):
            G.parse_edge_list("# nothing\n")


# one small instance of each family, built directly and through the table
FAMILY_PARAMS = {"n": 12, "d": 3, "N": 4, "k": 2, "p": 0.5, "seed": 3}
DIRECT = {
    "path": lambda: G.build_path(12),
    "grid": lambda: G.build_grid(3, 4),
    "hypercube": lambda: G.build_hypercube(3),
    "complete": lambda: G.build_complete(12),
    "star": lambda: G.build_star(12),
    "cycle_power": lambda: G.build_cycle_power(12, 2),
    "erdos_renyi": lambda: G.build_erdos_renyi(12, 0.5, 3),
    "random_regular": lambda: G.build_random_regular(12, 3, 3),
}


class TestFamilyTable:
    def test_table_covers_the_builders(self):
        assert list(G.FAMILIES) == list(DIRECT)

    @pytest.mark.parametrize("family", list(G.FAMILIES))
    def test_matches_direct_builder(self, family):
        g, ref = G.build_family(family, **FAMILY_PARAMS), DIRECT[family]()
        assert g.n == ref.n
        assert np.array_equal(g.edges, ref.edges)
        assert g.family == ref.family == family
        assert g.params == ref.params

    @pytest.mark.parametrize("family, name", [(f, name) for f, (_, req) in G.FAMILIES.items()
                                              for name in req])
    def test_missing_parameter(self, family, name):
        params = {**FAMILY_PARAMS, name: None}
        with pytest.raises(ValueError, match=f"^missing required flag --{name}$"):
            G.build_family(family, **params)
        del params[name]
        with pytest.raises(ValueError, match=f"^missing required flag --{name}$"):
            G.build_family(family, **params)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown graph family 'custom'"):
            G.build_family("custom", n=3)

    @pytest.mark.parametrize("family, params, match", [
        ("random_regular", {"n": 20, "d": "3", "seed": 1}, "--d of random_regular must be int"),
        ("erdos_renyi", {"n": 20, "p": "0.5", "seed": 1}, "--p of erdos_renyi must be float"),
        ("grid", {"d": True, "N": 4}, "--d of grid must be int, got True"),
        ("complete", {"n": 20.0}, "--n of complete must be int, got 20.0"),
        ("erdos_renyi", {"n": 20, "p": True, "seed": 1}, "--p of erdos_renyi must be float"),
        ("erdos_renyi", {"n": 20, "p": 0.5, "seed": 1.5}, "--seed of erdos_renyi must be int"),
        ("cycle_power", {"n": 8, "k": [2]}, "--k of cycle_power must be int"),
    ])
    def test_mistyped_flag(self, family, params, match):
        # before the builder runs: a bool is refused though it is an int
        with pytest.raises(ValueError, match=match):
            G.build_family(family, **params)

    def test_numpy_and_integer_flags_are_taken(self):
        g = G.build_family("erdos_renyi", n=np.int64(12), p=1, seed=np.uint64(3))
        assert g.n == 12 and g.m == 66

    def test_builder_looked_up_at_call_time(self, monkeypatch):
        monkeypatch.setattr(G, "build_path", lambda N: ("replaced", N))
        assert G.build_family("path", n=5) == ("replaced", 5)


# family -> (parameters at the cap, parameters just past it) for SIZE_CAP = 1000
AT_AND_PAST_CAP = {
    "path": ({"n": 1000}, {"n": 1001}),  # 1001 vertices
    "grid": ({"d": 2, "N": 22}, {"d": 2, "N": 23}),  # 924 and 1012 edges
    "hypercube": ({"d": 7}, {"d": 8}),  # 448 and 1024 edges
    "complete": ({"n": 45}, {"n": 46}),  # 990 and 1035 edges
    "star": ({"n": 1000}, {"n": 1001}),
    "cycle_power": ({"n": 500, "k": 2}, {"n": 501, "k": 2}),  # 1000 and 1002 edges
    "erdos_renyi": ({"n": 45, "p": 1.0}, {"n": 46, "p": 1.0}),  # expected edges
    "random_regular": ({"n": 500, "d": 4}, {"n": 502, "d": 4}),  # 1000 and 1004 edges
}


class TestSizeCap:
    """Every builder refuses a graph past SIZE_CAP vertices or edges before building it."""

    def test_table_covers_the_families(self):
        assert list(AT_AND_PAST_CAP) == list(G.FAMILIES)

    @pytest.mark.parametrize("family", list(AT_AND_PAST_CAP))
    def test_family_at_and_past_the_cap(self, monkeypatch, family):
        monkeypatch.setattr(G, "SIZE_CAP", 1000)
        at, past = AT_AND_PAST_CAP[family]
        g = G.build_family(family, seed=0, **at)
        assert g.n <= 1000 and g.m <= 1000
        with pytest.raises(ValueError, match="past the supported 1000"):
            G.build_family(family, seed=0, **past)

    def test_augmented_path(self, monkeypatch):
        monkeypatch.setattr(G, "SIZE_CAP", 1000)
        assert G.build_augmented_path(1000).shape == (1000, 1000)
        with pytest.raises(ValueError, match="past the supported 1000"):
            G.build_augmented_path(1001)
