"""Deterministic graph generators, reference partitions and workload suites.

Every graph is built from numpy arrays alone (no solver code), so the
benchmark can check the solver's answers against data the solver never
produced.  Each graph carries a reference partition that the benchmark
builds itself; it proves the instance feasible and is the denominator of
``sep_ratio``.

Every suite is one fixed draw: fresh draws moved ``sep_ratio`` and
``ok_rate`` by more than any regression bound can absorb (the docstrings
below give the figures), so every run solves the same graphs and the seed
only sets the order in which a run visits them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

UB_FRACTION = 0.503  # the solver's default side-size cap, as a share of n


@dataclass(frozen=True)
class Reference:
    """A partition given as a side label per vertex: 0 = A, 1 = B, 2 = S."""

    side: np.ndarray
    kind: str


@dataclass(frozen=True)
class Case:
    """One benchmark graph: 0-indexed edges (u < v), costs, bounds, reference."""

    name: str
    n: int
    edges: np.ndarray  # shape (m, 2), int64, u < v, no duplicates
    cost: np.ndarray  # int64, >= 1
    lb: int
    ub: int
    ref: Reference
    fmt: str  # "metis" or "mtx": which of the two written files the benchmark loads

    @property
    def m(self) -> int:
        return int(self.edges.shape[0])


def upper_bound(n: int) -> int:
    return math.floor(UB_FRACTION * n)


def _unique_edges(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    lo = np.minimum(u, v).astype(np.int64)
    hi = np.maximum(u, v).astype(np.int64)
    keep = lo != hi
    pairs = np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)
    return pairs.reshape(-1, 2)


def median_cut(coord: np.ndarray, edges: np.ndarray) -> Reference:
    """Coordinate-median cut: the lower ceil(n/2) vertices by ``coord``
    (stable) form the left part and the rest B; the left vertices adjacent
    to B form S, and the highest left vertices join S until A fits under
    the upper bound."""
    n = coord.size
    order = np.argsort(coord, kind="stable")
    left = np.zeros(n, dtype=bool)
    left[order[: (n + 1) // 2]] = True
    side = np.where(left, 0, 1).astype(np.int8)
    u, v = edges[:, 0], edges[:, 1]
    cross = left[u] != left[v]
    side[np.where(left[u[cross]], u[cross], v[cross])] = 2
    excess = int((side == 0).sum()) - upper_bound(n)
    if excess > 0:
        in_a = order[side[order] == 0]
        side[in_a[-excess:]] = 2
    return Reference(side, "median-cut")


# --- families -------------------------------------------------------------


def grid(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """rows x cols 4-neighbour grid, vertex r*cols + c; returns (edges, column)."""
    vid = np.arange(rows * cols).reshape(rows, cols)
    right = np.stack([vid[:, :-1].ravel(), vid[:, 1:].ravel()], axis=1)
    down = np.stack([vid[:-1, :].ravel(), vid[1:, :].ravel()], axis=1)
    edges = _unique_edges(*np.concatenate([right, down]).T)
    return edges, np.tile(np.arange(cols), rows).astype(np.float64)


def l_mesh(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Triangulated k x k mesh with its upper-right quadrant removed.

    Returns (edges, x coordinate)."""
    r, c = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    keep = ~((r < k // 2) & (c > k // 2))
    vid = np.full((k, k), -1, dtype=np.int64)
    vid[keep] = np.arange(int(keep.sum()))
    pairs = []
    for dr, dc in ((0, 1), (1, 0), (1, 1)):
        a = vid[: k - dr, : k - dc]
        b = vid[dr:, dc:]
        ok = (a >= 0) & (b >= 0)
        pairs.append(np.stack([a[ok], b[ok]], axis=1))
    edges = _unique_edges(*np.concatenate(pairs).T)
    return edges, c[keep].astype(np.float64)


def rgg(n: int, mean_degree: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Random geometric graph in the unit square; returns (edges, x coordinate)."""
    pts = rng.random((n, 2))
    radius = math.sqrt(mean_degree / (math.pi * n))
    pairs = cKDTree(pts).query_pairs(radius, output_type="ndarray")
    return _unique_edges(pairs[:, 0], pairs[:, 1]), pts[:, 0]


def geo_tree(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sparse tree-like geometric graph, an analogue of a power network.

    Each point joins its nearest predecessor; short links between close
    points add a few cycles.  Returns (edges, x coordinate)."""
    pts = rng.random((n, 2))
    parent = np.empty(n - 1, dtype=np.int64)
    for i in range(1, n):
        parent[i - 1] = int(np.argmin(((pts[:i] - pts[i]) ** 2).sum(axis=1)))
    tree = np.stack([np.arange(1, n), parent], axis=1)
    radius = math.sqrt(0.4 / (math.pi * n))
    extra = cKDTree(pts).query_pairs(radius, output_type="ndarray").reshape(-1, 2)
    both = np.concatenate([tree, extra])
    return _unique_edges(both[:, 0], both[:, 1]), pts[:, 0]


def gnp(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    iu, ju = np.triu_indices(n, k=1)
    hit = rng.random(iu.size) < p
    return _unique_edges(iu[hit], ju[hit])


def nonadjacent_pair(n: int, edges: np.ndarray) -> Reference:
    """A = {u}, B = {v} for the first non-adjacent pair u < v, S = the rest."""
    adj = np.zeros((n, n), dtype=bool)
    adj[edges[:, 0], edges[:, 1]] = True
    adj |= adj.T
    np.fill_diagonal(adj, True)
    u, v = (int(t[0]) for t in np.nonzero(~adj))
    side = np.full(n, 2, dtype=np.int8)
    side[u], side[v] = 0, 1
    return Reference(side, "nonadjacent-pair")


def two_blobs(n: int, rng: np.random.Generator) -> tuple[np.ndarray, Reference]:
    """Two dense blobs joined only through a planted separator of n/10 vertices."""
    ns = max(2, n // 10)
    na = (n - ns + 1) // 2
    label = np.array([0] * na + [1] * (n - ns - na) + [2] * ns, dtype=np.int8)
    label = label[rng.permutation(n)]
    iu, ju = np.triu_indices(n, k=1)
    la, lb = label[iu], label[ju]
    same_blob = (la == lb) & (la < 2)
    touches_sep = (la == 2) | (lb == 2)
    p = np.where(same_blob, 0.25, np.where(touches_sep, 0.15, 0.0))
    hit = rng.random(iu.size) < p
    return _unique_edges(iu[hit], ju[hit]), Reference(label, "planted")


# --- suites ---------------------------------------------------------------


def _rng(tag: str, index: int) -> np.random.Generator:
    return np.random.default_rng([0, sum(map(ord, tag)), index])


def _unit(n: int) -> np.ndarray:
    return np.ones(n, dtype=np.int64)


def mesh_large() -> list[Case]:
    """One n = 40k random geometric graph (METIS) and a 200 x 200 grid
    (MatrixMarket, optimum 200): per-level plumbing dominates here.

    Over five point sets the solver's weight on the rgg ranged from 0.54 to
    1.01 of the median cut."""
    n = 40_000
    edges, x = rgg(n, 8.0, _rng("mesh-large", 0))
    k = 200
    gedges, gx = grid(k, k)
    return [
        Case(f"rgg{n}", n, edges, _unit(n), 1, upper_bound(n), median_cut(x, edges), "metis"),
        Case(f"grid{k}", k * k, gedges, _unit(k * k), 1, upper_bound(k * k), median_cut(gx, gedges), "mtx"),
    ]


def nd_batch() -> list[Case]:
    """Small graphs of the kind nested dissection hands the solver: the
    numerical core dominates and the plumbing stays small.  Sizes follow a
    log-spaced ladder.  Over five draws of shapes and point sets the
    ``sep_ratio`` of these 80 graphs spread by 9% of its median."""
    per_family = 20
    sizes = np.rint(40 * (500 / 40) ** (np.arange(per_family) / (per_family - 1))).astype(int)
    cases = []
    for i, target in enumerate(sizes):
        rng = _rng("nd-batch", i)
        aspect = rng.uniform(1.0, 2.0)
        rows = max(3, round(math.sqrt(target / aspect)))
        cols = max(3, round(target / rows))
        for fam in ("grid", "lmesh", "rgg", "tree"):
            if fam == "grid":
                edges, x = grid(rows, cols)
            elif fam == "lmesh":
                edges, x = l_mesh(max(4, round(math.sqrt(target / 0.75))))
            elif fam == "rgg":
                edges, x = rgg(int(target), 7.0, rng)
            else:
                edges, x = geo_tree(int(target), rng)
            n = x.size
            fmt = "mtx" if (i + len(cases)) % 2 else "metis"
            cases.append(Case(f"{fam}{n}-{i}", n, edges, _unit(n), 1, upper_bound(n), median_cut(x, edges), fmt))
    return cases


def tight_dense() -> list[Case]:
    """Dense graphs, raised lower bounds and non-unit costs: the regimes in
    which coarsening makes feasible instances look infeasible.

    Which of them fail varied from 20 to 27 of 48 over five draws, and each
    failure counts as S = V in ``sep_ratio``."""
    cases = []
    for i in range(16):
        rng = _rng("tight-dense", i)
        # dense gnp at lb = 1
        n = int(80 + 120 * i / 15)
        p = 0.3 + 0.2 * ((i * 7) % 16) / 15
        edges = gnp(n, p, rng)
        fmt = "mtx" if i % 2 else "metis"
        cases.append(Case(f"gnp{n}-{i}", n, edges, _unit(n), 1, upper_bound(n), nonadjacent_pair(n, edges), fmt))
        # grid with lb just below the smaller side of the middle-column cut
        k = 20 + i
        rows = k + int(rng.integers(0, 4))
        gedges, gx = grid(rows, k)
        ref = median_cut(gx, gedges)
        small = int(min((ref.side == 0).sum(), (ref.side == 1).sum()))
        n = rows * k
        cases.append(Case(f"grid{rows}x{k}-lb", n, gedges, _unit(n), small - k // 2, upper_bound(n), ref, fmt))
        # planted two blobs, lb = n/3, costs 1..5
        n = int(60 + 8 * i)
        bedges, bref = two_blobs(n, rng)
        cost = rng.integers(1, 6, size=n).astype(np.int64)
        cases.append(Case(f"blobs{n}-{i}", n, bedges, cost, n // 3, upper_bound(n), bref, "metis"))
    return cases


SUITES = {"mesh-large": mesh_large, "nd-batch": nd_batch, "tight-dense": tight_dense}


# --- file formats ---------------------------------------------------------


def write_metis(case: Case, path: Path) -> None:
    n = case.n
    u, v = case.edges[:, 0], case.edges[:, 1]
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    indptr = np.searchsorted(src, np.arange(n + 1))
    weighted = bool(np.any(case.cost != 1))
    header = f"{n} {case.m}" + (" 10 1" if weighted else "")
    nbr = (dst + 1).astype(str)
    lines = [header]
    for i in range(n):
        toks = nbr[indptr[i] : indptr[i + 1]].tolist()
        if weighted:
            toks.insert(0, str(int(case.cost[i])))
        lines.append(" ".join(toks))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_mtx(case: Case, path: Path) -> None:
    """Pattern symmetric MatrixMarket, lower triangle; costs are not stored,
    so only unit-cost graphs are loaded from this format."""
    body = "\n".join(f"{b + 1} {a + 1}" for a, b in case.edges.tolist())
    path.write_text(
        "%%MatrixMarket matrix coordinate pattern symmetric\n"
        f"{case.n} {case.n} {case.m}\n" + body + ("\n" if body else ""),
        encoding="utf-8",
    )
