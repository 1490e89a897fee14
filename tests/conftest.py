"""Shared builders for graphs, instances, and random feasible points."""

from __future__ import annotations

import numpy as np

from vsep.cbp import CbpInstance, Point, instance_from_graph
from vsep.graphs import Graph
from vsep.multilevel import SolveParams


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


def default_instance(g: Graph) -> CbpInstance:
    return instance_from_graph(g, *SolveParams().bounds(g.n))


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
