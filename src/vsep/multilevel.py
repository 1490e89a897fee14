"""Coarsening hierarchy and the multilevel solve driver.

A level is its bilinear program (``CbpInstance``) plus ``cmap``, the
array sending each finer-level vertex to its aggregate.  Coarsening pairs
each vertex with its most strongly coupled unmatched neighbor, read off
the off-diagonal of B, into a ``mate`` array as METIS stores a matching
(``mate[u]`` is u's partner, or u itself when u stays single), and
contracts the pairs: with P the 0/1 aggregation matrix, B_c = P^T B P,
c_c = P^T c and s_c = P^T s.  Uncoarsening copies aggregate values to
their members (x = x_c[cmap]), so every objective value and sum
constraint is preserved exactly across levels.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .cbp import (
    CbpInstance,
    CsrMatrix,
    DegenerateRepairError,
    Partition,
    Point,
    escape,
    extract_partition,
    instance_from_graph,
    objective,
    refine,
    round_to_binary,
    solve_block_lp,
    EPS,
)
from .graphs import Graph, validate
from .oracle import VSP_CAP, brute_force_vsp


_MAX_LEVELS = 64  # build_hierarchy stops here even if matching still shrinks
_PROOF_BITS = 1 << 24  # the subset-sum proof of the bounds is skipped above this many bits


class InfeasibleError(RuntimeError):
    """No partition can satisfy the size bounds."""


@dataclass(frozen=True)
class SolveParams:
    """Solver configuration; defaults match the standard benchmark setup."""

    ub_fraction: float = 0.503
    la: int = 1
    lb: int = 1
    coarsest_size: int = 64
    gamma_steps: int = 10
    multistarts: int = 20
    seed: int = 0

    def __post_init__(self):
        for name in ("la", "lb", "coarsest_size", "gamma_steps", "multistarts", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not 0 < self.ub_fraction <= 1:
            raise ValueError("ub_fraction must be in (0, 1]")
        if self.coarsest_size < 2:
            raise ValueError("coarsest_size must be >= 2")
        if self.multistarts < 1:
            raise ValueError("multistarts must be >= 1")
        if self.gamma_steps < 1:
            raise ValueError("gamma_steps must be >= 1")
        if self.la < 0 or self.lb < 0:
            raise ValueError("lower bounds must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def bounds(self, total: int) -> tuple[int, int, int, int]:
        """Side-size bounds (la, ua, lb, ub) for a graph whose vertex sizes
        sum to ``total`` (its vertex count when every size is 1).  ua is the
        floor of the decimal product: 0.29 * 100 gives 29, not the 28 that
        the float 28.999999999999996 floors to."""
        ua = math.floor(round(self.ub_fraction * total, 9))
        return self.la, ua, self.lb, ua


@dataclass(frozen=True, eq=False)
class Level:
    """One level: its program and the map from the finer level's vertices
    to this level's aggregates (None on the finest level)."""

    inst: CbpInstance
    cmap: np.ndarray | None


@dataclass(frozen=True, eq=False)
class Hierarchy:
    levels: tuple[Level, ...]  # finest first


@dataclass
class LevelTrace:
    level: int
    n: int
    objective_before: float | None
    objective_after: float
    escapes: int
    separator_weight: int


def ascending_degree_order(B: CsrMatrix) -> np.ndarray:
    """Vertices by increasing degree, ties toward the lower index.

    Every row of B stores its diagonal, so row lengths are degree + 1 and
    sort the same way."""
    return np.argsort(np.diff(B.indptr), kind="stable")


def heavy_edge_matching(B: CsrMatrix, order: np.ndarray) -> np.ndarray:
    """Visit vertices in the given order, pairing each unmatched vertex with
    its unmatched neighbor of maximum positive weight in B's off-diagonal
    (ties toward the lower index); ``mate[u]`` is u's partner, or u itself.

    One scan of the edges sorted by (rank of the earlier end in ``order``,
    -weight, later end) matches each edge whose ends are both free: by the
    time a free vertex is visited, its earlier neighbors are all matched."""
    n = B.shape[0]
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    keep = (rank[B.rows] < rank[B.indices]) & (B.data > 0)
    rows, cols, w = B.rows[keep], B.indices[keep], B.data[keep]
    top = w.max(initial=0)
    # one exact int64 key when integer weights (below 2**53) leave room, else a 3-key sort
    span = int(top - w.min(initial=top)) + 1 if np.all(w == np.floor(w)) and top < 2**53 else 2**63
    if span * n * n < 2**63:
        edges = np.argsort((rank[rows] * span + (top - w).astype(np.int64)) * n + cols)
    else:
        edges = np.lexsort((cols, -w, rank[rows]))
    mate = list(range(n))
    for u, v in zip(rows[edges].tolist(), cols[edges].tolist()):
        if mate[u] == u and mate[v] == v:
            mate[u], mate[v] = v, u
    return np.array(mate, dtype=np.int64)


def contract(level: Level, mate: np.ndarray) -> Level:
    """Merge each pair u, mate[u] into one coarse vertex.

    ``mate`` must be an involution on the vertex set (mate[mate[u]] == u)
    whose pairs are edges of B.  Coarse vertices are numbered by their
    smallest member.  Costs and sizes add over a group; parallel edges
    between two groups merge into one edge carrying the summed weight.  The
    coarse interaction matrix is the group-wise sum of the fine one, which
    keeps the bilinear objective of any prolonged point identical to its
    coarse value.
    """
    fine, B = level.inst, level.inst.B
    n = fine.n
    mate = np.asarray(mate)
    ids = np.arange(n)
    in_range = mate.shape == (n,) and np.all((mate >= 0) & (mate < n))
    if not (in_range and np.array_equal(mate[mate], ids)):
        raise ValueError("mate is not an involution on the vertex set")
    # every row stores its diagonal, so a single's own entry is always there
    paired = np.zeros(n, dtype=bool)
    paired[B.rows[B.indices == mate[B.rows]]] = True
    if not paired.all():
        raise ValueError("a matched pair is not an edge")

    leader = np.minimum(ids, mate)
    is_leader = leader == ids
    cmap = (np.cumsum(is_leader) - 1)[leader]
    nc = int(is_leader.sum())
    Bc = B.contracted(cmap, nc)  # P^T B P
    c, s = (np.bincount(cmap, v, nc) for v in (fine.c, fine.s))
    return Level(CbpInstance(nc, Bc, c, s, fine.la, fine.ua, fine.lb, fine.ub), cmap)


def prolong(coarse: Level, p: Point) -> Point:
    """Copy each aggregate's x/y values to all of its fine-level members."""
    if coarse.cmap is None:
        raise ValueError("the finest level cannot be prolonged")
    return Point(p.x[coarse.cmap], p.y[coarse.cmap])


def build_hierarchy(g: Graph, params: SolveParams) -> Hierarchy:
    """Coarsen until the graph is small enough or matching stops shrinking it.

    The sum bounds are fixed from the finest level's total vertex size
    (SolveParams.bounds); the size vector keeps them meaningful on coarse
    levels.
    """
    la, ua, lb, ub = params.bounds(int(g.vertex_size.sum()))
    if ua < la or ub < lb:
        raise InfeasibleError(f"upper bound {ua} below lower bounds ({la}, {lb})")
    levels = [Level(instance_from_graph(g, la, ua, lb, ub), None)]
    while len(levels) < _MAX_LEVELS:
        cur = levels[-1].inst
        if cur.n <= params.coarsest_size:
            break
        mate = heavy_edge_matching(cur.B, ascending_degree_order(cur.B))
        if np.count_nonzero(mate >= np.arange(cur.n)) > 0.95 * cur.n:
            break
        levels.append(contract(levels[-1], mate))
    return Hierarchy(tuple(levels))


def _subset_sums(s: np.ndarray, top: int) -> int:
    """Bitset of the subset sums of s up to ``top``: bit t <= top is set
    when some subset of s sums to t.  It never holds more than top + 1 bits."""
    bits, mask = 1, (1 << (top + 1)) - 1
    for t in s[s <= top].astype(np.int64).tolist():
        bits = (bits | bits << t) & mask
    return bits


def _sum_reachable(bits: int, l: int, u: int) -> bool:
    """Whether the subset-sum bitset has a sum in [l, u]."""
    window = (1 << max(u - l + 1, 0)) - 1
    return ((bits >> l) & window) != 0


def _bounds_reachable(inst: CbpInstance) -> bool:
    """Whether some subset of the sizes sums into each side's bounds.

    Every subset sum is a multiple of d = gcd(s), so one bitset of the sums
    of s / d serves both sides, with bounds ceil(l / d) and floor(u / d).
    When the larger of those upper bounds exceeds _PROOF_BITS the bitset is
    not built and the answer is True: the multistart decides."""
    d = int(np.gcd.reduce(inst.s.astype(np.int64))) or 1
    windows = [(-(-l // d), u // d) for l, u in ((inst.la, inst.ua), (inst.lb, inst.ub))]
    top = max(u for _, u in windows)
    if top > _PROOF_BITS:
        return True
    sums = _subset_sums(inst.s // d, top)
    return all(_sum_reachable(sums, l, u) for l, u in windows)


def _random_binary_side(
    s: np.ndarray, l: int, u: int, rng: np.random.Generator
) -> np.ndarray | None:
    target = int(rng.integers(l, u + 1)) if u > l else l
    v = np.zeros(s.size)
    run = 0.0
    for idx in rng.permutation(s.size):
        if run + s[idx] <= target:
            v[idx] = 1.0
            run += s[idx]
    return v if run >= l else None


def _random_start(inst: CbpInstance, rng: np.random.Generator) -> Point:
    """A feasible start: each side is the first of 32 greedy binary draws
    that meets its bounds, else the block-LP vertex for random gains (at
    most one fractional coordinate)."""
    sides = []
    for l, u in ((inst.la, inst.ua), (inst.lb, inst.ub)):
        for _ in range(32):
            v = _random_binary_side(inst.s, l, u, rng)
            if v is not None:
                break
        else:
            v = solve_block_lp(rng.random(inst.n), inst.s, l, u)
        sides.append(v)
    return Point(sides[0], sides[1])


def solve_coarsest(
    inst: CbpInstance, params: SolveParams, stats: dict | None = None
) -> Point:
    """Best binary orthogonal point over seeded multistarts: the first step of
    ``solve``'s walk up the hierarchy.

    Each start is a random feasible point (``_random_start``) drawn from its
    own seed ``(params.seed, start)``, after one subset-sum bitset of ``s``
    has shown that both sides' bounds are reachable at all (skipped for
    sizes too large to prove, see ``_bounds_reachable``).  All starts are refined and
    escaped together, as one (multistarts, n) stack in which every row gets
    the result it would get alone; then each is rounded, and the best
    objective at gamma0 wins (first start on ties; a start whose rounding
    fails is skipped).  ``stats["escapes"]`` sums the escapes of all
    starts.  For n <= 12 the exhaustive oracle ``brute_force_vsp(inst)``
    backstops the multistarts and its solution is used when strictly
    better.  Raises InfeasibleError when no binary point can satisfy the
    bounds.
    """
    if not _bounds_reachable(inst):
        raise InfeasibleError("no binary point satisfies the sum bounds")

    starts = [
        _random_start(inst, np.random.default_rng((params.seed, start)))
        for start in range(params.multistarts)
    ]
    p = Point(np.stack([q.x for q in starts]), np.stack([q.y for q in starts]))
    p = refine(inst, p, inst.gamma0)
    p = escape(inst, p, gamma_steps=params.gamma_steps, stats=stats)

    best: Point | None = None
    best_f = -math.inf
    for x, y in zip(p.x, p.y):
        try:
            q = round_to_binary(inst, Point(x, y))
        except DegenerateRepairError:
            continue
        f = objective(inst, q, inst.gamma0)
        if f > best_f + EPS:
            best, best_f = q, f

    # exhaustive backstop; also the tie-breaker of last resort when every
    # start failed to round and the instance is still small enough
    if inst.n <= 12 or (best is None and inst.n <= VSP_CAP):
        q = _exact_point(inst)  # raises only when no start rounded: each rounded start is a partition
        if best is None or objective(inst, q, inst.gamma0) > best_f + EPS:
            best = q
    if best is None:
        raise InfeasibleError("no start reached a binary orthogonal point")
    return best


def _exact_point(inst: CbpInstance) -> Point:
    """The exhaustive oracle's optimal partition as a binary point.  Raises
    InfeasibleError when no partition meets the bounds."""
    part = brute_force_vsp(inst)
    if part is None:
        raise InfeasibleError("exhaustive search found no valid partition")
    x = np.zeros(inst.n)
    y = np.zeros(inst.n)
    x[list(part.a)] = 1.0
    y[list(part.b)] = 1.0
    return Point(x, y)


def _level_trace(
    li: int, inst: CbpInstance, f_before: float | None, p: Point, escapes: int
) -> LevelTrace:
    return LevelTrace(
        level=li,
        n=inst.n,
        objective_before=f_before,
        objective_after=objective(inst, p, inst.gamma0),
        escapes=escapes,
        separator_weight=int(inst.c[(p.x < 0.5) & (p.y < 0.5)].sum()),
    )


def solve(g: Graph, params: SolveParams | None = None) -> tuple[Partition, list[LevelTrace]]:
    """Full multilevel pipeline from a graph to a separator partition.

    Coarsens, then walks the hierarchy from the coarsest level to the
    finest: the coarsest level is solved by ``solve_coarsest``, every finer
    one prolongs the point from the level below, refines, escapes and
    rounds it.  Returns the finest-level partition and one trace record per
    level (coarsest first).

    Coarsening can make a feasible graph look infeasible.  When the walk
    raises InfeasibleError or DegenerateRepairError on a graph of n <=
    VSP_CAP, the exhaustive oracle ``brute_force_vsp`` answers on the
    finest level's program, with a one-level trace; InfeasibleError then
    means that no partition exists.
    """
    params = params or SolveParams()
    problems = validate(g)
    if problems:
        raise ValueError(f"invalid graph: {problems[:3]}")
    levels = build_hierarchy(g, params).levels

    trace: list[LevelTrace] = []
    try:
        for li in range(len(levels) - 1, -1, -1):
            inst = levels[li].inst
            stats: dict = {}
            if li == len(levels) - 1:
                f_before = None
                p = solve_coarsest(inst, params, stats=stats)
            else:
                p = prolong(levels[li + 1], p)
                f_before = objective(inst, p, inst.gamma0)
                p = refine(inst, p, inst.gamma0)
                p = escape(inst, p, gamma_steps=params.gamma_steps, stats=stats)
                p = round_to_binary(inst, p)
            trace.append(_level_trace(li, inst, f_before, p, stats.get("escapes", 0)))
    except (InfeasibleError, DegenerateRepairError):
        if g.n > VSP_CAP:
            raise
        p = _exact_point(levels[0].inst)
        trace = [_level_trace(0, levels[0].inst, None, p, 0)]
    return extract_partition(levels[0].inst, p), trace
