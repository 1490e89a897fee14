"""Shared builders for graphs, instances, and random feasible points, and
the exhaustive block-LP reference."""

from __future__ import annotations

import numpy as np

from vsep.cbp import CbpInstance, InfeasibleBoundsError, Point, instance_from_graph
from vsep.graphs import Graph
from vsep.multilevel import SolveParams
from vsep.oracle import TooLargeError


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def empty_graph(n: int) -> Graph:
    return Graph.from_edges(n, [])


def grid_graph(rows: int, cols: int) -> Graph:
    def vid(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return Graph.from_edges(rows * cols, edges)


def gnp(n: int, p: float, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def unlockable(obj, names) -> list[str]:
    """The names of ``obj``'s arrays that ``setflags(write=True)`` unlocks,
    on the array itself or on any array along its ``.base`` chain."""
    out = []
    for name in names:
        arr = getattr(obj, name)
        assert not arr.flags.writeable
        while isinstance(arr, np.ndarray):
            try:
                arr.setflags(write=True)
                out.append(name)
                break
            except ValueError:
                arr = arr.base
    return out


def default_instance(g: Graph) -> CbpInstance:
    return instance_from_graph(g, *SolveParams().bounds(int(g.vertex_size.sum())))


def random_fractional_point(inst: CbpInstance, rng: np.random.Generator) -> Point:
    """Uniform point in the box, rescaled so both sum constraints hold."""

    def side(l: int, u: int) -> np.ndarray:
        v = rng.uniform(size=inst.n)
        total = float(inst.s.sum())
        sv = float(inst.s @ v)
        target = float(rng.uniform(l, min(u, total)))
        if sv > target:
            v = v * (target / sv)
        elif sv < target:
            lam = (total - target) / (total - sv)
            v = 1.0 - (1.0 - v) * lam
        return v

    return Point(side(inst.la, inst.ua), side(inst.lb, inst.ub))


_LP_CAP = 12


def brute_force_lp(g, s, l: int, u: int) -> tuple[float, np.ndarray]:
    """Exact box-and-sum LP maximum by enumerating every polytope vertex.

    Candidates are all binary vectors inside the sum bounds plus, for each
    binary pattern and coordinate, the vector whose free coordinate lands
    the sum exactly on l or u.  Returns (value, maximizer); ties keep the
    first candidate in enumeration order.
    """
    g = np.asarray(g, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    n = g.size
    if n > _LP_CAP:
        raise TooLargeError(f"n={n} exceeds the exhaustive cap {_LP_CAP}")
    if l < 0 or l > u or l > float(s.sum()):
        raise InfeasibleBoundsError(f"bounds l={l} u={u} unreachable")

    patterns = np.arange(2**n, dtype=np.int64)
    bits = ((patterns[:, None] >> np.arange(n)[None, :]) & 1).astype(np.float64)
    sums = bits @ s
    vals = bits @ g

    best_val = -np.inf
    best_vec: np.ndarray | None = None
    inside = (sums >= l) & (sums <= u)
    if inside.any():
        idx = np.flatnonzero(inside)
        k = idx[np.argmax(vals[idx])]
        best_val = float(vals[k])
        best_vec = bits[k].copy()

    for i in range(n):
        base_sum = sums - bits[:, i] * s[i]
        base_val = vals - bits[:, i] * g[i]
        for bound in (l, u):
            vi = (bound - base_sum) / s[i]
            valid = (vi > 0.0) & (vi < 1.0)
            if not valid.any():
                continue
            cand = base_val + g[i] * vi
            idx = np.flatnonzero(valid)
            k = idx[np.argmax(cand[idx])]
            if cand[k] > best_val:
                best_val = float(cand[k])
                best_vec = bits[k].copy()
                best_vec[i] = vi[k]

    if best_vec is None:
        raise InfeasibleBoundsError(f"no vertex satisfies l={l}, u={u}")
    return best_val, best_vec
