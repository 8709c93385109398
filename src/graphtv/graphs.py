"""Graph families and their edge-vertex incidence matrices.

Every builder returns a :class:`Graph` with a canonical edge ordering:
edges are stored as ``(i, j)`` pairs with ``i < j`` (0-based vertex
indices) and sorted lexicographically, so the incidence matrix of a
given family/size/seed is reproducible bit-for-bit.

The incidence matrix convention is ``+1`` at the lower-indexed endpoint
and ``-1`` at the higher one, one row per edge.
"""
from __future__ import annotations

import numbers

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components


# Draws each randomized builder makes before it gives up.
ER_MAX_RETRIES = 100
RR_MAX_RETRIES = 1000
# Most vertices and most edges any builder accepts, checked by _check_size
# from the closed-form counts before any array is allocated.
SIZE_CAP = 16_000_000
# Vertex pairs an Erdos-Renyi draw takes per block of uniforms: one block
# covers every pair up to n = 1024.
ER_BLOCK_PAIRS = 1 << 19


class GraphGenerationError(RuntimeError):
    """Raised when a randomized builder exhausts its retry budget."""


class Graph:
    """Undirected simple graph with a canonical edge list.

    Attributes
    ----------
    n : int
        Number of vertices, labeled ``0 .. n-1``.
    edges : np.ndarray
        Read-only int64 array of shape ``(m, 2)``; each row ``(i, j)`` with
        ``i < j``, rows sorted lexicographically, no duplicates.
    m : int
        Number of edges.
    family : str
        Family tag: a key of :data:`FAMILIES`, or ``custom``.
    params : dict
        Family parameters (e.g. ``{"d": 2, "N": 8}`` for a grid).

    ``edges=None`` stands for K_n (``family="complete"``, as
    :func:`build_complete` makes it): m is n(n-1)/2, and the edge list is
    built on its first read, so the routes that read only n (the sort and
    isotonic solve, the lambda rules, the closed-form spectral constants)
    never allocate its m rows.  Graphs compare by identity, since a Graph
    keeps a cache (``_derived``) and comparing by value would build a
    lazy edge list.
    """

    def __init__(self, n: int, edges, family: str = "custom", params: dict | None = None):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        self.n, self.family = n, family
        self.params = {} if params is None else params
        # arrays computed from the read-only edges, the edge list itself
        # included; tvsolver.DenoiseProblem keeps its operator here
        self._derived = {}
        if edges is None:
            if family != "complete":
                raise ValueError("only a complete graph builds its edge list on first read")
            self.m = n * (n - 1) // 2
            return
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        _validate_edges(n, edges)
        edges.setflags(write=False)
        self.m = edges.shape[0]
        self._derived["edges"] = edges

    @property
    def edges(self) -> np.ndarray:
        if "edges" not in self._derived:  # K_n: triu_indices lists its pairs in canonical order
            edges = np.column_stack(np.triu_indices(self.n, 1)).astype(np.int64, copy=False)
            edges.setflags(write=False)
            self._derived["edges"] = edges
        return self._derived["edges"]


def _validate_edges(n: int, edges: np.ndarray) -> None:
    if edges.size == 0:
        return
    if edges.min() < 0 or edges.max() >= n:
        raise ValueError("edge endpoint out of range")
    if np.any(edges[:, 0] >= edges[:, 1]):
        raise ValueError("edges must satisfy i < j (no self-loops)")
    # sorted and duplicate-free iff consecutive rows strictly increase
    a, b = edges[:-1], edges[1:]
    same_first = a[:, 0] == b[:, 0]
    if np.any((a[:, 0] > b[:, 0]) | (same_first & (a[:, 1] > b[:, 1]))):
        raise ValueError("edges must be sorted lexicographically")
    if np.any(same_first & (a[:, 1] == b[:, 1])):
        raise ValueError("duplicate edges are not allowed")


def _canonical_edges(pairs) -> np.ndarray:
    """Sort endpoints within each pair, then sort pairs lexicographically."""
    e = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    e = np.sort(e, axis=1)
    order = np.lexsort((e[:, 1], e[:, 0]))
    return e[order]


def _check_size(what: str, n: int, m: int) -> None:
    """Refuse a graph of n vertices and m edges past ``SIZE_CAP``, before it is built."""
    if n > SIZE_CAP or m > SIZE_CAP:
        raise ValueError(f"{what} has {m} edges and {n} vertices, "
                         f"past the supported {SIZE_CAP}")


# ---------------------------------------------------------------------------
# deterministic families


def build_path(N: int) -> Graph:
    """Path graph on N vertices: edges (i, i+1)."""
    if N < 2:
        raise ValueError("path graph needs N >= 2")
    _check_size(f"path P_{N}", N, N - 1)
    i = np.arange(N - 1, dtype=np.int64)
    return Graph(N, np.column_stack([i, i + 1]), family="path", params={"N": N})


def build_augmented_path(N: int) -> sp.csr_matrix:
    """Square N x N anchored difference matrix for the path.

    Row 0 is the anchor ``theta_1`` itself; row i computes
    ``theta_i - theta_{i-1}``.  The matrix is invertible with inverse
    equal to the cumulative-sum (lower-triangular all-ones) matrix.
    Not a graph incidence matrix: the anchor row has a single entry.
    """
    if N < 1:
        raise ValueError("augmented path needs N >= 1")
    _check_size(f"augmented path of size {N}", N, N)
    i = np.arange(1, N)
    rows = np.concatenate([[0], np.repeat(i, 2)])
    cols = np.concatenate([[0], np.column_stack([i - 1, i]).ravel()])
    data = np.concatenate([[1.0], np.tile([-1.0, 1.0], N - 1)])
    return sp.csr_matrix((data, (rows, cols)), shape=(N, N))


def build_grid(d: int, N: int) -> Graph:
    """d-dimensional grid with side length N, column-major vertex order.

    Vertex ``(i_1, ..., i_d)`` (0-based coordinates) maps to the linear
    index ``i_1 + N*i_2 + ... + N^(d-1)*i_d``; edges connect vertices
    differing by one in exactly one coordinate.
    """
    if d < 1:
        raise ValueError("grid dimension must be >= 1")
    if N < 2:
        raise ValueError("grid side length must be >= 2")
    n = N**d
    _check_size(f"grid {N}^{d}", n, d * N ** (d - 1) * (N - 1))
    idx = np.arange(n, dtype=np.int64)
    pairs = []
    for axis in range(d):
        step = N**axis
        coord = (idx // step) % N
        src = idx[coord < N - 1]
        pairs.append(np.column_stack([src, src + step]))
    edges = _canonical_edges(np.concatenate(pairs, axis=0))
    return Graph(n, edges, family="grid", params={"d": d, "N": N})


def build_hypercube(d: int) -> Graph:
    """d-dimensional hypercube: vertices are bit strings, edges flip one bit."""
    if d < 1:
        raise ValueError("hypercube dimension must be >= 1")
    n = 2**d
    _check_size(f"hypercube Q_{d}", n, d * n // 2)
    idx = np.arange(n, dtype=np.int64)
    pairs = []
    for b in range(d):
        src = idx[(idx >> b) & 1 == 0]
        pairs.append(np.column_stack([src, src + (1 << b)]))
    edges = _canonical_edges(np.concatenate(pairs, axis=0))
    return Graph(n, edges, family="hypercube", params={"d": d})


def build_complete(n: int) -> Graph:
    """Complete graph K_n, whose edge list is built on its first read (see :class:`Graph`)."""
    if n < 2:
        raise ValueError("complete graph needs n >= 2")
    _check_size(f"complete graph K_{n}", n, n * (n - 1) // 2)
    return Graph(n, None, family="complete")


def build_star(n: int) -> Graph:
    """Star S_n: vertex 0 is the center, connected to all others."""
    if n < 2:
        raise ValueError("star graph needs n >= 2")
    _check_size(f"star S_{n}", n, n - 1)
    j = np.arange(1, n, dtype=np.int64)
    return Graph(n, np.column_stack([np.zeros(n - 1, dtype=np.int64), j]), family="star", params={})


def build_cycle_power(n: int, k: int) -> Graph:
    """k-th power of the cycle C_n: i ~ j iff circular distance <= k."""
    if n < 3:
        raise ValueError("cycle power needs n >= 3")
    if k < 1 or 2 * k > n:
        raise ValueError("cycle power requires 1 <= k <= n/2")
    _check_size(f"cycle power C_{n}^{k}", n, n * k)  # the pairs listed before n = 2k dedupes
    i = np.repeat(np.arange(n, dtype=np.int64), k)
    j = (i + np.tile(np.arange(1, k + 1), n)) % n
    # for n = 2k the two directions reach the same opposite vertex
    edges = np.unique(_canonical_edges(np.column_stack([i, j])), axis=0)
    return Graph(n, edges, family="cycle_power", params={"n": n, "k": k})


# ---------------------------------------------------------------------------
# random families


def build_erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """Connected Erdos-Renyi draw G(n, p).

    Disconnected draws are resampled (up to ``ER_MAX_RETRIES``) because the
    denoising theory assumes a connected graph.  Deterministic given
    ``seed``.  Pair k in row-major order (0, 1), (0, 2), ..., (n-2, n-1)
    is an edge when the k-th uniform of the stream is below p; the
    uniforms are drawn ``ER_BLOCK_PAIRS`` at a time, which reproduces the
    stream of a single draw, so memory is O(m + block) rather than O(n^2).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0 < p <= 1:
        raise ValueError("need 0 < p <= 1")
    _check_size(f"Erdos-Renyi G({n}, {p}) on average", n, int(p * (n * (n - 1) // 2)))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    row_start = np.concatenate([[0], np.cumsum(np.arange(n - 1, 0, -1))])  # first pair of row i
    total = int(row_start[-1])
    for _ in range(ER_MAX_RETRIES):
        k = np.concatenate([
            start + np.flatnonzero(rng.random(min(ER_BLOCK_PAIRS, total - start)) < p)
            for start in range(0, total, ER_BLOCK_PAIRS)
        ])
        i = np.searchsorted(row_start, k, side="right") - 1
        # increasing k lists the pairs in row-major, hence lexicographic, order
        g = Graph(n, np.column_stack([i, k - row_start[i] + i + 1]),
                  family="erdos_renyi", params={"p": p, "seed": seed})
        if is_connected(g):
            return g
    raise GraphGenerationError(
        f"no connected Erdos-Renyi draw with n={n}, p={p} in {ER_MAX_RETRIES} attempts"
    )


def build_random_regular(n: int, d: int, seed: int) -> Graph:
    """Random d-regular graph by pairing with repair (Steger & Wormald, 1999).

    Each round pairs the unmatched stubs by a random permutation and keeps
    every pair that is neither a self-loop nor a repeat of an edge; only the
    stubs of the rejected pairs are paired again in the next round.  A dead
    end (no suitable pair left among the unmatched stubs) or a disconnected
    graph restarts the draw, up to ``RR_MAX_RETRIES`` times.  Dead ends
    become common as d nears n, so a d > (n - 1)/2 graph is drawn as the
    complement of an (n - 1 - d)-regular one.  Deterministic given ``seed``.
    """
    if n < 2 or d < 1 or d >= n:
        raise ValueError("need 1 <= d < n")
    if (n * d) % 2 != 0:
        raise ValueError("n * d must be even")
    # the edge cap also bounds the n(n-1)/2 pairs of a complement
    _check_size(f"{d}-regular graph on {n} vertices", n, n * d // 2)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sparse_d = min(d, n - 1 - d)
    for _ in range(RR_MAX_RETRIES):
        keys = _regular_pairing(n, sparse_d, rng)
        if keys is None:
            continue
        if sparse_d < d:
            i, j = np.triu_indices(n, 1)
            pairs = i * n + j
            keys = np.setdiff1d(pairs, keys, assume_unique=True)
        g = Graph(n, _canonical_edges(np.column_stack(np.divmod(keys, n))),
                  family="random_regular", params={"d": d, "seed": seed})
        if is_connected(g):
            return g
    raise GraphGenerationError(
        f"no simple connected {d}-regular pairing with n={n} in {RR_MAX_RETRIES} attempts"
    )


def _regular_pairing(n: int, d: int, rng) -> np.ndarray | None:
    """Sorted edge keys i*n + j (i < j) of one simple d-regular graph, or None at a dead end."""
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    keys = np.empty(0, dtype=np.int64)
    while len(stubs):
        perm = rng.permutation(stubs)
        a = np.minimum(perm[0::2], perm[1::2])
        b = np.maximum(perm[0::2], perm[1::2])
        k = a * n + b
        # a pair is new when it is the first of its key after the kept edges
        both = np.concatenate([keys, k])
        order = np.argsort(both, kind="stable")
        first = np.empty(len(both), dtype=bool)
        first[order] = np.r_[True, np.diff(both[order]) != 0]
        ok = first[len(keys):] & (a != b)
        if not ok.any():
            v = np.unique(stubs)
            i, j = np.triu_indices(len(v), 1)
            pairs = v[i] * n + v[j]
            ends = np.append(keys, n * n)  # a sentinel above every key
            if np.all(ends[np.searchsorted(ends, pairs)] == pairs):
                return None
        keys = np.sort(np.concatenate([keys, k[ok]]))
        stubs = np.concatenate([a[~ok], b[~ok]])
    return keys


# ---------------------------------------------------------------------------
# the family table


# family (= Graph.family) -> (builder name, required parameters in argument
# order).  The parameter names are the CLI flags; the CLI hyphenates the keys.
FAMILIES = {
    "path": ("build_path", ("n",)),
    "grid": ("build_grid", ("d", "N")),
    "hypercube": ("build_hypercube", ("d",)),
    "complete": ("build_complete", ("n",)),
    "star": ("build_star", ("n",)),
    "cycle_power": ("build_cycle_power", ("n", "k")),
    "erdos_renyi": ("build_erdos_renyi", ("n", "p", "seed")),
    "random_regular": ("build_random_regular", ("n", "d", "seed")),
}


# The JSON values accepted for each annotation of a builder flag or a config field.
JSON_TYPES = {"str": str, "int": numbers.Integral, "float": numbers.Real, "dict": dict,
              "list": list, "tuple": (list, tuple), "list | None": (list, type(None)),
              "float | None": (numbers.Real, type(None))}


def check_flag(family: str, name: str, value):
    """``value`` as flag ``name`` of ``family``; ValueError if None, a bool or mistyped."""
    if value is None:
        raise ValueError(f"missing required flag --{name}")
    builder, required = FAMILIES[family]
    kind = dict(zip(required, globals()[builder].__annotations__.values())).get(name)
    if kind in JSON_TYPES and (isinstance(value, bool) or not isinstance(value, JSON_TYPES[kind])):
        raise ValueError(f"flag --{name} of {family} must be {kind}, got {value!r}")
    return value


def build_family(family: str, **params) -> Graph:
    """Build ``family`` from the flags it requires, each through :func:`check_flag`.

    Others are ignored.  The builder is looked up by name at call time, so
    a replaced module attribute is the one that runs.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown graph family {family!r}; have {', '.join(FAMILIES)}")
    builder, required = FAMILIES[family]
    args = [check_flag(family, name, params.get(name)) for name in required]
    return globals()[builder](*args)


# ---------------------------------------------------------------------------
# derived objects


def incidence(g: Graph) -> sp.csr_matrix:
    """Edge-vertex incidence matrix D (m x n), rows in canonical edge order.

    Row e for edge (i, j) with i < j has +1 at column i and -1 at column j,
    so ``D.T @ D`` is the unnormalized graph Laplacian.  Every row holds two
    entries, so the csr arrays are written directly: indptr 0, 2, 4, ...
    and the edge list as the column indices.
    """
    m = g.m
    return sp.csr_matrix((np.tile([1.0, -1.0], m), g.edges.reshape(-1),
                          np.arange(0, 2 * m + 1, 2)), shape=(m, g.n))


def degrees(g: Graph) -> np.ndarray:
    deg = np.zeros(g.n, dtype=np.int64)
    np.add.at(deg, g.edges[:, 0], 1)
    np.add.at(deg, g.edges[:, 1], 1)
    return deg


def max_degree(g: Graph) -> int:
    return int(degrees(g).max()) if g.m else 0


def _components(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Component label of each of n vertices joined by the edges (i, j).

    The link matrix is built in csr form directly: row i holds the j of its
    edges.  Edges usually come in row order, so the sort is skipped.
    """
    if np.any(i[1:] < i[:-1]):
        order = np.argsort(i, kind="stable")
        i, j = i[order], j[order]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(i, minlength=n))))
    links = sp.csr_matrix((np.ones(len(j)), np.ascontiguousarray(j), indptr), shape=(n, n))
    return connected_components(links, directed=False)[1]


def is_complete(g: Graph) -> bool:
    """True iff g is K_n: tagged ``complete`` with all n(n-1)/2 edges, read off n and m."""
    return g.family == "complete" and g.m == g.n * (g.n - 1) // 2


def is_path(g: Graph) -> bool:
    """True iff g is the path 0 - 1 - ... - (n-1): n - 1 distinct edges, each (i, i+1)."""
    return g.m == g.n - 1 and bool(np.all(np.diff(g.edges, axis=1) == 1))


def is_grid(g: Graph, d, N) -> bool:
    """True iff g is ``build_grid(d, N)`` (a hypercube for N = 2), read off the edges.

    n = N^d, m = d N^(d-1) (N-1), and every edge steps by some N^a from a
    vertex whose axis-a coordinate is below N - 1: m distinct grid edges.
    """
    if d is None or g.n != N**d or g.m != d * N ** (d - 1) * (N - 1):
        return False
    i, step = g.edges[:, 0], np.diff(g.edges, axis=1).ravel()
    powers = N ** np.arange(d, dtype=np.int64)
    axis = np.minimum(np.searchsorted(powers, step), d - 1)
    return bool(np.all((powers[axis] == step) & ((i // step) % N < N - 1)))


def is_connected(g: Graph) -> bool:
    """True iff the graph has a single connected component."""
    return bool(_components(g.n, g.edges[:, 0], g.edges[:, 1]).max() == 0)


# ---------------------------------------------------------------------------
# edge-list text format for custom graphs (1-based, '#' comments)


def parse_edge_list(text: str, n: int | None = None) -> Graph:
    """Parse the ``i j`` edge-list format (1-based indices, '#' comments)."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 'i j', got {raw!r}")
        i, j = int(fields[0]), int(fields[1])
        if i < 1 or j < 1 or i == j:
            raise ValueError(f"line {lineno}: invalid edge ({i}, {j})")
        pairs.append((i - 1, j - 1))
    if not pairs:
        raise ValueError("edge list is empty")
    nv = n if n is not None else max(max(pair) for pair in pairs) + 1
    _check_size("custom graph", nv, len(pairs))
    return Graph(nv, np.unique(_canonical_edges(pairs), axis=0), family="custom", params={})


def read_edge_list(path, n: int | None = None) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read(), n=n)


def write_edge_list(path, g: Graph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {g.family} graph, n={g.n}, m={g.m}\n")
        for i, j in g.edges:
            fh.write(f"{i + 1} {j + 1}\n")
