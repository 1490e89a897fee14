import copy
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (
    complete_graph,
    cycle_graph,
    empty_graph,
    gnp,
    grid_graph,
    path_graph,
    random_fractional_point,
)
from vsep import multilevel
from vsep.cbp import (
    CsrMatrix,
    DegenerateRepairError,
    Point,
    escape,
    feasible,
    instance_from_graph,
    objective,
    partition_violations,
    refine,
    round_to_binary,
    solve_block_lp,
)
from vsep.graphs import Graph, load_metis, validate
from vsep.multilevel import (
    InfeasibleError,
    Level,
    SolveParams,
    _admissible_pair,
    _bounds_reachable,
    _random_binary_side,
    _random_start,
    _random_starts,
    _subset_sums,
    _sum_reachable,
    ascending_degree_order,
    build_hierarchy,
    contract,
    heavy_edge_matching,
    prolong,
    solve,
    solve_coarsest,
)
from vsep.oracle import brute_force_vsp

EPS = 1e-9


def finest_level(g, la=1, ua=None, lb=1, ub=None):
    ua = SolveParams().bounds(int(g.vertex_size.sum()))[1] if ua is None else ua
    ub = ua if ub is None else ub
    return Level(instance_from_graph(g, la, ua, lb, ub), None)


def matrix(g):
    """The finest-level interaction matrix B of g."""
    return finest_level(g).inst.B


# --------------------------------------------------------- heavy_edge_matching


def test_matching_p3():
    mate = heavy_edge_matching(matrix(path_graph(3)), np.array([0, 1, 2]))
    assert mate.tolist() == [1, 0, 2]
    assert mate.dtype == np.int64


def test_matching_c4_tie_picks_lower_index():
    mate = heavy_edge_matching(matrix(cycle_graph(4)), np.arange(4))
    assert mate.tolist() == [1, 0, 3, 2]


def test_matching_edgeless():
    mate = heavy_edge_matching(matrix(empty_graph(3)), np.arange(3))
    assert mate.tolist() == [0, 1, 2]


def test_matching_prefers_heavier_edge():
    g = Graph.from_edges(3, [(0, 1, 1), (0, 2, 5)])
    mate = heavy_edge_matching(matrix(g), np.array([0, 1, 2]))
    assert mate.tolist() == [2, 1, 0]


def test_matching_is_valid_on_random_graphs():
    rng = np.random.default_rng(2)
    for trial in range(25):
        g = gnp(int(rng.integers(2, 40)), 0.3, seed=600 + trial)
        B = matrix(g)
        mate = heavy_edge_matching(B, ascending_degree_order(B))
        assert np.array_equal(mate[mate], np.arange(g.n))
        for u in range(g.n):
            if mate[u] != u:
                nbrs, _ = g.neighbors(u)
                assert mate[u] in nbrs


def _pair_list_matching(B, order):
    """Reference: the former pair-list heavy-edge matching, as (pairs, singletons)."""
    indptr, indices, data = B.indptr.tolist(), B.indices.tolist(), B.data.tolist()
    mate = [-1] * B.shape[0]
    pairs = []
    for u in map(int, order):
        if mate[u] >= 0:
            continue
        best = -1
        best_w = 0
        for k in range(indptr[u], indptr[u + 1]):
            v = indices[k]
            if v != u and mate[v] < 0 and data[k] > best_w:
                best, best_w = v, data[k]
        if best >= 0:
            mate[u] = best
            mate[best] = u
            pairs.append((u, best))
    singles = tuple(v for v, w in enumerate(mate) if w < 0)
    return tuple(pairs), singles


def _mate_from_pairs(n, pairs):
    mate = np.arange(n)
    for u, v in pairs:
        mate[u], mate[v] = v, u
    return mate


def _star(n):
    return Graph.from_edges(n, [(0, v) for v in range(1, n)])


def _coarse_level(g, rng, depth):
    """g's finest level contracted ``depth`` times along random-order
    matchings: aggregated sizes and summed edge weights, many of them tied."""
    lvl = finest_level(g)
    for _ in range(depth):
        lvl = contract(lvl, heavy_edge_matching(lvl.inst.B, rng.permutation(lvl.inst.n)))
    return lvl


def _assert_matches_reference(B, order):
    pairs, singles = _pair_list_matching(B, order)
    mate = heavy_edge_matching(B, order)
    assert mate.tolist() == _mate_from_pairs(B.shape[0], pairs).tolist()
    assert np.flatnonzero(mate == np.arange(B.shape[0])).tolist() == list(singles)


def test_matching_matches_pair_list_reference():
    """The mate array against the former pair list, on finest levels and on
    levels contracted once or twice, for random graphs, stars and grids of
    up to 500 vertices, in degree order and in random visiting orders."""
    rng = np.random.default_rng(17)
    graphs = [
        gnp(int(rng.integers(2, 80)), float(rng.choice([0.05, 0.15, 0.4])), seed=1300 + trial)
        for trial in range(30)
    ]
    graphs += [_star(n) for n in (2, 3, 17, 500)]
    graphs += [grid_graph(20, 25), grid_graph(9, 9), gnp(500, 0.01, seed=1398), gnp(300, 0.05, seed=1399)]
    for trial, g in enumerate(graphs):
        B = _coarse_level(g, rng, trial % 3).inst.B
        order = ascending_degree_order(B) if trial % 2 else rng.permutation(B.shape[0])
        _assert_matches_reference(B, order)


def _weighted_matrix(g, w):
    """Adjacency of g with edge weights w (in ``g.edges()`` order) plus the identity."""
    u, v = np.array([(a, b) for a, b, _ in g.edges()]).T
    ids = np.arange(g.n)
    return CsrMatrix.from_entries(np.r_[u, v, ids], np.r_[v, u, ids], np.r_[w, w, np.ones(g.n)], (g.n, g.n))


def test_matching_keys_that_do_not_fit_in_int64(monkeypatch):
    """Integer weights spread too wide for one int64 key, weights from 2**53
    on (where the key's weight difference would round), and fractional or
    negative weights take the 3-key sort; integer weights just inside the
    packed key do not.  Both agree with the reference."""
    lexsorts = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: lexsorts.append(1) or lexsort(keys))
    rng = np.random.default_rng(23)
    kinds = [  # (label, weight pool, n, takes the 3-key sort)
        # span * n * n just past 2**63: 1e15 * 110**2 is about 1.3 * 2**63
        ("wide", [1.0, 1e15] + [float(x) for x in rng.integers(1, 10**15, 3)], 110, True),
        ("huge", [1.0, 2.0, 3.0, 2.0**53 + 2], 24, True),
        ("fractional", [-1.0, 0.5, 1.5, 2.25, 3.0], 40, True),
        ("packed", [1.0, 2.0**46] + [float(x) for x in rng.integers(1, 2**46, 3)], 120, False),
    ]
    for trial in range(16):
        label, pool, n, fallback = kinds[trial % 4]
        g = gnp(n, 8 / n, seed=1500 + trial)
        B = _weighted_matrix(g, rng.choice(pool, g.m))
        before = len(lexsorts)
        for order in (ascending_degree_order(B), rng.permutation(g.n)):
            _assert_matches_reference(B, order)
        assert (len(lexsorts) > before) == fallback, label


# ----------------------------------------------------------------- contract


def test_contract_p3():
    lvl = finest_level(path_graph(3), ua=1, ub=1)
    coarse = contract(lvl, np.array([1, 0, 2]))
    inst = coarse.inst
    assert inst.n == 2
    assert list(inst.c) == [2, 1]
    assert list(inst.s) == [2, 1]
    B = inst.B.toarray()
    assert B[0, 0] == 4  # diag sum 2 plus twice the internal edge
    assert B[0, 1] == B[1, 0] == 1
    assert B[1, 1] == 1
    assert coarse.cmap.tolist() == [0, 0, 1]
    assert np.array_equal(B, B.T)


def test_contract_identity():
    lvl = finest_level(path_graph(4))
    coarse = contract(lvl, np.arange(4))
    assert np.array_equal(coarse.inst.B.toarray(), lvl.inst.B.toarray())
    assert coarse.cmap.tolist() == list(range(4))


def test_contract_k2():
    lvl = finest_level(Graph.from_edges(2, [(0, 1)]), la=0, ua=2, lb=0, ub=2)
    coarse = contract(lvl, np.array([1, 0]))
    assert coarse.inst.n == 1
    assert list(coarse.inst.c) == [2]
    assert coarse.inst.B.toarray()[0, 0] == 4


def test_contract_matches_loop_reference():
    """cmap and the coarse program against a plain loop over sorted groups."""
    rng = np.random.default_rng(5)
    for trial in range(10):
        g = gnp(int(rng.integers(2, 40)), 0.2, seed=900 + trial)
        lvl = finest_level(g)
        mate = heavy_edge_matching(lvl.inst.B, rng.permutation(g.n))
        coarse = contract(lvl, mate)
        groups = sorted({tuple(sorted({u, int(mate[u])})) for u in range(g.n)})
        cmap = np.zeros(g.n, dtype=np.int64)
        for i, grp in enumerate(groups):
            cmap[list(grp)] = i
        assert coarse.cmap.tolist() == cmap.tolist()
        B = lvl.inst.B.toarray()
        Bc = np.zeros((len(groups), len(groups)))
        for i in range(g.n):
            for j in range(g.n):
                Bc[cmap[i], cmap[j]] += B[i, j]
        assert np.array_equal(coarse.inst.B.toarray(), Bc)
        assert coarse.inst.c.tolist() == [float(lvl.inst.c[list(grp)].sum()) for grp in groups]
        assert coarse.inst.s.tolist() == [float(lvl.inst.s[list(grp)].sum()) for grp in groups]


def test_contract_equals_the_aggregation_product_along_a_chain():
    """B_c, c_c and s_c bit for bit against P^T B P, P^T c and P^T s over
    three contractions of graphs with non-unit costs, sizes and weights."""
    rng = np.random.default_rng(41)
    for trial in range(6):
        g0 = gnp(int(rng.integers(60, 200)), 0.08, seed=1600 + trial)
        g = Graph.from_edges(
            g0.n,
            [(u, v, int(rng.integers(1, 6))) for u, v, _ in g0.edges()],
            vertex_cost=rng.integers(0, 9, g0.n),
            vertex_size=rng.integers(1, 5, g0.n),
        )
        lvl = finest_level(g)
        for _ in range(3):
            fine = lvl.inst
            order = ascending_degree_order(fine.B) if trial % 2 else rng.permutation(fine.n)
            lvl = contract(lvl, heavy_edge_matching(fine.B, order))
            P = sp.csr_array((np.ones(fine.n), (np.arange(fine.n), lvl.cmap)), shape=(fine.n, lvl.inst.n))
            B = sp.csr_array((fine.B.data, fine.B.indices, fine.B.indptr), shape=fine.B.shape)
            ref = sp.csr_array(P.T @ B @ P)
            ref.sort_indices()
            for field in ("indptr", "indices", "data"):
                got, want = getattr(lvl.inst.B, field), getattr(ref, field)
                assert got.tobytes() == want.astype(got.dtype).tobytes(), field  # int64 indices
            assert lvl.inst.c.tobytes() == (P.T @ fine.c).tobytes()
            assert lvl.inst.s.tobytes() == (P.T @ fine.s).tobytes()
        assert lvl.inst.n < g.n


def test_contract_rejects_non_edge_pair():
    lvl = finest_level(path_graph(3))
    with pytest.raises(ValueError, match="not an edge"):
        contract(lvl, np.array([2, 1, 0]))


def test_contract_rejects_non_partition():
    lvl = finest_level(path_graph(3))
    with pytest.raises(ValueError, match="involution"):
        contract(lvl, np.array([1, 1, 2]))  # 0 -> 1 but 1 -> 1: vertex 1 twice
    with pytest.raises(ValueError, match="involution"):
        contract(lvl, np.array([1, 0]))  # vertex 2 missing
    with pytest.raises(ValueError, match="involution"):
        contract(lvl, np.array([1, 0, 3]))  # entry out of range
    with pytest.raises(ValueError, match="involution"):
        contract(lvl, np.array([1, 0, -1]))


def test_contract_carries_bounds():
    lvl = finest_level(path_graph(6), la=1, ua=3, lb=1, ub=3)
    coarse = contract(lvl, heavy_edge_matching(lvl.inst.B, np.arange(6)))
    assert (coarse.inst.la, coarse.inst.ua) == (1, 3)
    assert (coarse.inst.lb, coarse.inst.ub) == (1, 3)


# ------------------------------------------------------------------- prolong


def test_prolong_p3():
    lvl = finest_level(path_graph(3), ua=2, ub=2)
    coarse = contract(lvl, np.array([1, 0, 2]))
    fine = prolong(coarse, Point(np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    assert np.array_equal(fine.x, [1, 1, 0])
    assert np.array_equal(fine.y, [0, 0, 1])


def test_prolong_zero():
    lvl = finest_level(path_graph(3))
    coarse = contract(lvl, np.array([1, 0, 2]))
    fine = prolong(coarse, Point(np.zeros(2), np.zeros(2)))
    assert not fine.x.any() and not fine.y.any()


def test_prolong_identity_contraction():
    lvl = finest_level(path_graph(4))
    coarse = contract(lvl, np.arange(4))
    p = Point(np.array([0.3, 1.0, 0.0, 0.6]), np.array([0.0, 0.2, 1.0, 0.1]))
    fine = prolong(coarse, p)
    assert np.array_equal(fine.x, p.x)
    assert np.array_equal(fine.y, p.y)


def test_prolong_rejects_finest():
    lvl = finest_level(path_graph(3))
    with pytest.raises(ValueError):
        prolong(lvl, Point(np.zeros(3), np.zeros(3)))


def test_objective_preserved_under_prolongation():
    rng = np.random.default_rng(8)
    for trial in range(12):
        g = gnp(int(rng.integers(10, 60)), 0.15, seed=700 + trial)
        hier = build_hierarchy(g, SolveParams(coarsest_size=4))
        for fine_lvl, coarse_lvl in zip(hier.levels, hier.levels[1:]):
            for _ in range(4):
                p = random_fractional_point(coarse_lvl.inst, rng)
                q = prolong(coarse_lvl, p)
                assert abs(float(fine_lvl.inst.s @ q.x) - float(coarse_lvl.inst.s @ p.x)) <= 1e-6
                for gamma in (0.0, 1.0, coarse_lvl.inst.gamma0):
                    fc = objective(coarse_lvl.inst, p, gamma)
                    ff = objective(fine_lvl.inst, q, gamma)
                    assert abs(fc - ff) <= EPS * max(1.0, abs(fc))


# ----------------------------------------------------------- build_hierarchy


def test_hierarchy_sizes_strictly_decrease():
    g = grid_graph(12, 12)
    hier = build_hierarchy(g, SolveParams(coarsest_size=8))
    ns = [lvl.inst.n for lvl in hier.levels]
    assert ns[0] == 144
    assert all(b < a for a, b in zip(ns, ns[1:]))
    assert ns[-1] <= 8 or ns[-1] > 0.95 * ns[-2]


def test_hierarchy_stops_on_stagnation():
    hier = build_hierarchy(empty_graph(100), SolveParams(coarsest_size=8))
    assert len(hier.levels) == 1  # nothing to match


def test_hierarchy_infeasible_bounds():
    with pytest.raises(InfeasibleError):
        build_hierarchy(path_graph(3), SolveParams(ub_fraction=0.1))


# ------------------------------------------------------------ solve_coarsest


def test_solve_coarsest_p3():
    inst = instance_from_graph(path_graph(3), 1, 1, 1, 1)
    p = solve_coarsest(inst, SolveParams())
    assert objective(inst, p, inst.gamma0) == 2.0
    assert np.array_equal(p.x, [1, 0, 0])
    assert np.array_equal(p.y, [0, 0, 1])


def test_solve_coarsest_single_vertex_infeasible():
    g = empty_graph(1)
    inst = instance_from_graph(g, 1, 1, 1, 1)
    with pytest.raises(InfeasibleError):
        solve_coarsest(inst, SolveParams())


def test_solve_coarsest_edgeless_four():
    inst = instance_from_graph(empty_graph(4), 1, 2, 1, 2)
    p = solve_coarsest(inst, SolveParams())
    assert objective(inst, p, inst.gamma0) == 4.0  # all four vertices used
    assert float(p.x @ p.y) == 0


def test_solve_coarsest_unreachable_sums():
    g = Graph.from_edges(2, [], vertex_size=[2, 2])
    inst = instance_from_graph(g, 1, 1, 1, 1)
    with pytest.raises(InfeasibleError):
        solve_coarsest(inst, SolveParams())


def _reachable_reference(s, l, u):
    """Whether some subset of s sums into [l, u], from the set of all subset sums."""
    sums = {0}
    for t in s.astype(int).tolist():
        sums |= {x + t for x in sums}
    return any(l <= x <= u for x in sums)


def test_subset_sum_table_matches_reference():
    rng = np.random.default_rng(29)
    for trial in range(200):
        n = int(rng.integers(1, 12))
        s = rng.integers(1, int(rng.choice([2, 4, 9])), size=n).astype(np.float64)
        total = int(s.sum())
        l = int(rng.integers(0, total + 2))
        u = int(rng.integers(l - 1, total + 3))
        assert _subset_sums(s, total).bit_length() == total + 1
        top = max(l, u)  # _bounds_reachable passes the larger upper bound
        bits = _subset_sums(s, top)
        assert bits.bit_length() <= top + 1
        assert _sum_reachable(bits, l, u) == _reachable_reference(s, l, u)
    # sizes past the cap never enter the bitset
    assert _subset_sums(np.array([1e12, 2.0, 1e12]), 3) == 0b101


def test_bounds_reachable_divides_sizes_by_their_gcd():
    rng = np.random.default_rng(31)
    for trial in range(200):
        n = int(rng.integers(1, 10))
        s = int(rng.choice([1, 2, 3, 6])) * rng.integers(1, 6, size=n)
        total = int(s.sum())
        la, lb = (int(v) for v in rng.integers(0, total + 1, size=2))
        ua, ub = int(rng.integers(la, total + 1)), int(rng.integers(lb, total + 1))
        inst = instance_from_graph(Graph.from_edges(n, [], vertex_size=s), la, ua, lb, ub)
        expected = _reachable_reference(s, la, ua) and _reachable_reference(s, lb, ub)
        assert _bounds_reachable(inst) == expected


def test_bounds_reachable_leaves_huge_sizes_to_the_multistart(monkeypatch):
    calls = []
    monkeypatch.setattr("vsep.multilevel._subset_sums", lambda *args: calls.append(args) or _subset_sums(*args))
    # coprime sizes near 10^12: no subset sums into [1, 10^11], but the proof
    # would need 10^11 bits, so it is skipped and the search decides
    g = Graph.from_edges(3, [], vertex_size=[10**12, 10**12 + 1, 10**12 + 3])
    inst = instance_from_graph(g, 1, 10**11, 1, 10**11)
    assert _bounds_reachable(inst) and calls == []
    with pytest.raises(InfeasibleError):
        solve_coarsest(inst, SolveParams(multistarts=2))
    # a common factor of 10^12 brings the proof back to a few bits
    inst = instance_from_graph(Graph.from_edges(3, [], vertex_size=[10**12] * 3), 1, 10**11, 1, 10**11)
    assert not _bounds_reachable(inst) and len(calls) == 1


def test_random_start_falls_back_to_the_block_lp(monkeypatch):
    walks = []

    def every_draw_misses(s, l, u, rngs):
        walks.append(len(rngs))
        return np.zeros((len(rngs), s.size)), np.zeros(len(rngs), dtype=bool)

    monkeypatch.setattr("vsep.multilevel._binary_sides", every_draw_misses)
    params = SolveParams(coarsest_size=30, multistarts=4)
    inst = build_hierarchy(gnp(120, 0.06, seed=7001), params).levels[-1].inst
    assert inst.n > 16 and inst.s.max() > 1  # an aggregated level, no exhaustive backstop
    p = _random_start(inst, np.random.default_rng(0))
    assert walks == [1] * 64  # 32 draws per side, then the block LP
    assert feasible(inst, p)
    for v in (p.x, p.y):
        assert np.count_nonzero((v > 0) & (v < 1)) <= 1

    q = solve_coarsest(inst, params)
    assert np.all((q.x == 0) | (q.x == 1)) and np.all((q.y == 0) | (q.y == 1))
    assert float(q.x @ (inst.B @ q.y)) == 0.0
    assert feasible(inst, q)


def _random_binary_side_loop(s, l, u, rng):
    """Item-by-item reference of _random_binary_side: the same draws, then
    each item of the permutation taken when it still fits the target."""
    target = int(rng.integers(l, u + 1)) if u > l else l
    v = np.zeros(s.size)
    run = 0.0
    for idx in rng.permutation(s.size):
        if run + s[idx] <= target:
            v[idx] = 1.0
            run += s[idx]
    return v if run >= l else None


def test_random_binary_side_matches_item_loop():
    meta = np.random.default_rng(71)
    failed = 0
    for trial in range(600):
        n = int(meta.integers(0, 70))
        high = (2, 4, 40)[trial % 3]  # unit, small and large sizes
        s = meta.integers(1, high, size=n).astype(float)
        total = int(s.sum())
        l = int(meta.integers(total // 2, total + 1)) if trial % 4 == 1 else int(meta.integers(0, total + 1))
        u = l if trial % 4 == 2 else int(meta.integers(l, total + 3))
        seed = int(meta.integers(2**32))
        got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, ref = _random_binary_side(s, l, u, got_rng), _random_binary_side_loop(s, l, u, ref_rng)
        if ref is None:
            failed += 1
            assert got is None
        else:
            assert got.tobytes() == ref.tobytes()
        assert got_rng.integers(2**62) == ref_rng.integers(2**62)  # the same draws were made
    assert failed > 30  # raised lower bounds that a draw misses are covered


def _random_start_loop(inst, rng, draws=None):
    """Start-by-start reference of _random_starts: per side, 32 item-by-item
    draws, then the block LP for random gains.  Appends to ``draws`` each
    side's count of draws, 33 for the block LP."""
    sides = []
    for l, u in ((inst.la, inst.ua), (inst.lb, inst.ub)):
        for k in range(32):
            v = _random_binary_side_loop(inst.s, l, u, rng)
            if v is not None:
                break
        else:
            k += 1
            v = solve_block_lp(rng.random(inst.n), inst.s, l, u)
        sides.append(v)
        if draws is not None:
            draws.append(k + 1)
    return Point(*sides)


def test_random_starts_match_start_by_start_draws():
    meta = np.random.default_rng(73)
    draws: list[int] = []
    for trial in range(240):
        if trial % 8 == 7:  # two items of 2 must precede every 3, so many draws miss
            s = np.array([3] * int(meta.integers(4, 9)) + [2, 2])
            la = ua = lb = ub = 4
        else:
            n = int(meta.integers(1, 40))
            s = (np.ones(n, dtype=np.int64) if trial % 2 else meta.integers(1, 6, size=n))
            total = int(s.sum())
            la, lb = (int(v) for v in meta.integers(total // 3, total + 1, size=2)) if trial % 3 == 0 else (1, 1)
            ua, ub = int(meta.integers(la, total + 1)), int(meta.integers(lb, total + 1))
        inst = instance_from_graph(Graph.from_edges(s.size, [], vertex_size=s), la, ua, lb, ub)
        starts = (1, 20)[trial % 2]
        seed = int(meta.integers(2**32))
        got_rngs, ref_rngs = ([np.random.default_rng((seed, k)) for k in range(starts)] for _ in range(2))
        p = _random_starts(inst, got_rngs)
        for k, (got_rng, ref_rng) in enumerate(zip(got_rngs, ref_rngs)):
            ref = _random_start_loop(inst, ref_rng, draws)
            assert p.x[k].tobytes() == ref.x.tobytes() and p.y[k].tobytes() == ref.y.tobytes()
            after = got_rng.integers(2**62)
            assert after == ref_rng.integers(2**62)  # the same draws were made
            one_rng = np.random.default_rng((seed, k))
            q = _random_start(inst, one_rng)
            assert q.x.tobytes() == ref.x.tobytes() and q.y.tobytes() == ref.y.tobytes()
            assert one_rng.integers(2**62) == after
    # retries, the block-LP fallback and sides found at once are all covered
    assert draws.count(33) > 5 and len(set(draws)) > 10 and draws.count(1) > len(draws) / 2


def _spy_calls(monkeypatch, names):
    """Count the calls solve_coarsest makes to each of ``names``."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def spy(*args, _name=name, _real=getattr(multilevel, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(multilevel, name, spy)
    return calls


_SEARCH = ("refine", "escape", "round_to_binary")


def _complete_minus(n, missing):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in missing])


def test_solve_coarsest_refuses_a_level_without_an_admissible_pair(monkeypatch):
    # K20; K20 less one edge, one of whose ends is too large for either
    # side; and the same with both ends too large for B alone
    cases = [
        instance_from_graph(complete_graph(20), 1, 10, 1, 10),
        instance_from_graph(Graph.from_edges(20, list(_complete_minus(20, {(0, 1)}).edges()), vertex_size=[11] + [1] * 19), 1, 10, 1, 10),
        instance_from_graph(Graph.from_edges(20, list(_complete_minus(20, {(0, 1)}).edges()), vertex_size=[9, 9] + [1] * 18), 1, 10, 1, 8),
    ]
    for inst in cases:
        params = SolveParams(multistarts=6)
        assert not _admissible_pair(inst)
        assert _multistart_loop(inst, params, {}) is None  # the search ends in its error
        with monkeypatch.context() as patch:
            calls = _spy_calls(patch, _SEARCH)
            with pytest.raises(InfeasibleError, match="^no start reached a binary orthogonal point$"):
                solve_coarsest(inst, params)
        assert calls == dict.fromkeys(_SEARCH, 0)


def test_solve_coarsest_searches_where_a_pair_may_be_admissible(monkeypatch):
    one_pair = instance_from_graph(_complete_minus(20, {(3, 7)}), 1, 10, 1, 10)
    assert _admissible_pair(one_pair)
    cases = [
        (one_pair, None),
        (instance_from_graph(complete_graph(20), 0, 10, 1, 10), None),  # la = 0: A may be empty
        (instance_from_graph(complete_graph(16), 1, 8, 1, 8), "^exhaustive search found no valid partition$"),
    ]
    for inst, error in cases:
        params = SolveParams(multistarts=6)
        ref = _multistart_loop(inst, params, {})
        with monkeypatch.context() as patch:
            calls = _spy_calls(patch, _SEARCH)
            if error:
                assert ref is None and not _admissible_pair(inst)
                with pytest.raises(InfeasibleError, match=error):
                    solve_coarsest(inst, params)
            else:
                p = solve_coarsest(inst, params)
                assert p.x.tobytes() == ref.x.tobytes() and p.y.tobytes() == ref.y.tobytes()
        assert calls["refine"] >= 1 and calls["escape"] == 1


def test_admissible_pair_matches_pair_loop():
    rng = np.random.default_rng(79)
    for trial in range(120):
        n = int(rng.integers(1, 14))
        g = gnp(n, float(rng.choice([0.3, 0.8, 1.0])), seed=8000 + trial)
        s = rng.integers(1, 5, size=n)
        total = int(s.sum())
        ua, ub = (int(v) for v in rng.integers(1, total + 1, size=2))
        inst = instance_from_graph(Graph.from_edges(n, list(g.edges()), vertex_size=s), 1, ua, 1, ub)
        dense = inst.B.toarray()
        ref = any(i != j and dense[i, j] == 0 and s[i] <= ua and s[j] <= ub for i in range(n) for j in range(n))
        assert _admissible_pair(inst) == ref


def _multistart_loop(inst, params, stats):
    """Start-by-start reference of the multistart search in solve_coarsest
    (without its exhaustive backstop for n <= 16)."""
    best, best_f = None, -math.inf
    for start in range(params.multistarts):
        p = _random_start(inst, np.random.default_rng((params.seed, start)))
        try:
            p = refine(inst, p, inst.gamma0)
            p = escape(inst, p, gamma_steps=params.gamma_steps, stats=stats)
            p = round_to_binary(inst, p)
        except DegenerateRepairError:
            continue
        f = objective(inst, p, inst.gamma0)
        if f > best_f + EPS:
            best, best_f = p, f
    return best


def test_solve_coarsest_matches_start_loop():
    rng = np.random.default_rng(61)
    for trial in range(30):
        n = int(rng.integers(40, 160))
        base = gnp(n, float(rng.choice([0.03, 0.06, 0.15])), seed=7000 + trial)
        g = base
        if trial % 2:  # costs 1..5
            g = Graph.from_edges(n, list(base.edges()), vertex_cost=rng.integers(1, 6, size=n))
        la = lb = int(rng.choice([1, 2, n // 6, n // 4]))
        params = SolveParams(la=la, lb=lb, coarsest_size=int(rng.integers(17, 40)), multistarts=6, seed=trial)
        inst = build_hierarchy(g, params).levels[-1].inst  # aggregated: sizes > 1
        if inst.n <= 16:
            continue
        ref_stats: dict = {}
        ref = _multistart_loop(inst, params, ref_stats)
        stats: dict = {}
        if ref is None:
            with pytest.raises(InfeasibleError):
                solve_coarsest(inst, params, stats=stats)
        else:
            p = solve_coarsest(inst, params, stats=stats)
            assert np.array_equal(p.x, ref.x) and np.array_equal(p.y, ref.y)
        # a level without an admissible pair is refused before any start, so
        # it escapes nothing; elsewhere escape's work counters depend on how
        # the rows share a stack, and its escapes do not
        refused = not _admissible_pair(inst)
        assert ref is None or not refused
        assert stats.get("escapes", 0) == (0 if refused else ref_stats.get("escapes", 0))


def _own_rounding(inst, x, y):
    """Whether round_to_binary returns the feasible point (x, y) unchanged:
    it is binary with x.B.y = 0."""
    binary = np.isin(x, (0.0, 1.0)).all() and np.isin(y, (0.0, 1.0)).all()
    return bool(binary and x @ (inst.B @ y) == 0)


def _spy_coarsest(monkeypatch):
    """Record the rows escape hands solve_coarsest (and whether each is its
    own rounding) and every row it rounds, with whether the rounding raised
    DegenerateRepairError."""
    escaped, own, rounded = [], set(), []

    def spy_escape(inst, p, **kwargs):
        out = escape(inst, p, **kwargs)
        assert feasible(inst, out)
        for x, y in zip(out.x, out.y):
            escaped.append(x.tobytes() + y.tobytes())
            if _own_rounding(inst, x, y):
                own.add(escaped[-1])
        return out

    def spy_round(inst, p):
        try:
            q = round_to_binary(inst, p)
        except DegenerateRepairError:
            rounded.append((p.x.tobytes() + p.y.tobytes(), True))
            raise
        rounded.append((p.x.tobytes() + p.y.tobytes(), False))
        return q

    monkeypatch.setattr("vsep.multilevel.escape", spy_escape)
    monkeypatch.setattr("vsep.multilevel.round_to_binary", spy_round)
    return escaped, own, rounded


def test_solve_coarsest_rounds_each_distinct_start_once(monkeypatch):
    # an equal later row would round to the same point and objective, which
    # cannot beat the best so far, or fail as its twin did, so only the first
    # of equal rows is rounded, and a binary orthogonal row is its own
    # rounding; on the last two instances every row fails and the search
    # still ends in the same InfeasibleError
    owned = 0
    for g, lb in (
        (grid_graph(10, 10), 40), (gnp(40, 0.5, seed=3), 1), (grid_graph(10, 10), 44), (grid_graph(12, 12), 57),
    ):
        params = SolveParams(la=lb, lb=lb, coarsest_size=30, multistarts=8)
        inst = build_hierarchy(g, params).levels[-1].inst
        assert inst.n > 16  # neither the exhaustive backstop nor the oracle answers
        ref = _multistart_loop(inst, params, {})
        with monkeypatch.context() as patch:
            escaped, own, rounded = _spy_coarsest(patch)
            if ref is None:
                with pytest.raises(InfeasibleError, match="^no start reached a binary orthogonal point$"):
                    solve_coarsest(inst, params)
            else:
                p = solve_coarsest(inst, params)
                assert p.x.tobytes() == ref.x.tobytes() and p.y.tobytes() == ref.y.tobytes()
        distinct = list(dict.fromkeys(escaped))
        assert len(distinct) < len(escaped) == params.multistarts  # the stack repeats rows
        assert rounded == [(row, ref is None) for row in distinct if row not in own]
        owned += len(own)
    assert owned  # some rows skip the rounding


def test_solve_coarsest_does_not_round_binary_orthogonal_rows(monkeypatch):
    found = 0
    for trial, (g, la) in enumerate(
        [(gnp(60, 0.08, seed=4100 + k), 1) for k in range(4)] + [(grid_graph(9, 9), 20), (empty_graph(40), 1)]
    ):
        params = SolveParams(la=la, lb=la, coarsest_size=24, multistarts=10, seed=trial)
        inst = build_hierarchy(g, params).levels[-1].inst
        assert inst.n > 12  # no exhaustive backstop
        ref = _multistart_loop(inst, params, {})
        with monkeypatch.context() as patch:
            escaped, own, rounded = _spy_coarsest(patch)
            p = solve_coarsest(inst, params)
        assert p.x.tobytes() == ref.x.tobytes() and p.y.tobytes() == ref.y.tobytes()
        assert not own & {row for row, _ in rounded}
        found += len(own)
    assert found


# -------------------------------------------------------------------- solve


def test_solve_p5():
    part, trace = solve(path_graph(5))
    assert part.separator_weight == 1
    assert part.s == (2,)
    assert trace[-1].n == 5


def test_solve_edgeless_ten():
    part, _ = solve(empty_graph(10))
    assert part.separator_weight == 0
    assert len(part.a) == 5 and len(part.b) == 5


def test_solve_k4_infeasible():
    with pytest.raises(InfeasibleError):
        solve(complete_graph(4))


def test_solve_oracle_answers_small_graphs_coarsening_makes_infeasible():
    # raised lower bounds and coarsening down to 2-4 aggregates make the walk
    # fail on feasible graphs; for n <= 16 the oracle then answers exactly
    rng = np.random.default_rng(1801)
    answered = infeasible = 0
    for trial in range(24):
        n = int(rng.integers(13, 17))
        lb = int(rng.choice([2, n // 4, n // 3]))
        params = SolveParams(la=lb, lb=lb, coarsest_size=int(rng.integers(2, 5)))
        g = gnp(n, float(rng.choice([0.15, 0.3, 0.5])), seed=1800 + trial)
        bounds = params.bounds(n)
        ref = brute_force_vsp(instance_from_graph(g, *bounds))
        if ref is None:
            with pytest.raises(InfeasibleError):
                solve(g, params)
            infeasible += 1
            continue
        part, trace = solve(g, params)
        assert partition_violations(g, part, *bounds) == []
        assert part.separator_weight >= ref.separator_weight
        if len(trace) < len(build_hierarchy(g, params).levels):  # the oracle answered
            assert part == ref
            assert (trace[0].n, trace[0].escapes, trace[0].separator_weight) == (n, 0, ref.separator_weight)
            assert trace[0].objective_after == g.vertex_cost.sum() - ref.separator_weight
            answered += 1
    assert answered >= 10 and infeasible


def test_solve_never_builds_a_graph(monkeypatch):
    # each level is its program alone: neither the exhaustive backstop at the
    # coarsest level nor the n <= 16 fallback turns one back into a Graph
    cases = [
        (grid_graph(12, 12), SolveParams(coarsest_size=8), 12),
        (path_graph(5), SolveParams(coarsest_size=2), 1),
        (gnp(14, 0.3, seed=3), SolveParams(la=4, lb=4, coarsest_size=3), 3),
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("solve built a Graph")

    monkeypatch.setattr(Graph, "from_edges", refuse)
    for g, params, weight in cases:
        part, _ = solve(g, params)
        assert part.separator_weight == weight
        assert partition_violations(g, part, *params.bounds(g.n)) == []


def test_solve_deterministic():
    g = gnp(60, 0.08, seed=15)
    r1 = solve(g, SolveParams(seed=3))
    r2 = solve(g, SolveParams(seed=3))
    assert r1[0] == r2[0]
    assert [t.__dict__ for t in r1[1]] == [t.__dict__ for t in r2[1]]


def test_solve_output_always_valid():
    rng = np.random.default_rng(99)
    for trial in range(15):
        g = gnp(int(rng.integers(5, 80)), float(rng.choice([0.05, 0.15, 0.3])), seed=800 + trial)
        try:
            part, _ = solve(g)
        except InfeasibleError:
            continue
        assert partition_violations(g, part, *SolveParams().bounds(g.n)) == []


def test_solve_multilevel_path_uses_hierarchy():
    g = grid_graph(10, 10)
    part, trace = solve(g, SolveParams(coarsest_size=16))
    assert len(trace) > 1
    assert partition_violations(g, part, *SolveParams().bounds(g.n)) == []
    assert part.separator_weight <= 15  # a straight cut costs 10


def _zero_costs(g):
    return Graph(g.n, g.indptr, g.indices, g.weights, np.zeros(g.n, dtype=np.int64), g.vertex_size)


@pytest.mark.parametrize(
    "make, params",
    [
        (lambda: path_graph(100), SolveParams()),
        (lambda: path_graph(100), SolveParams(coarsest_size=8)),
        (lambda: grid_graph(5, 5), SolveParams()),
        (lambda: grid_graph(12, 12), SolveParams()),
        (lambda: grid_graph(30, 30), SolveParams()),
        (lambda: cycle_graph(200), SolveParams()),
        (lambda: gnp(150, 0.03, seed=1), SolveParams()),
    ],
    ids=["path100", "path100-coarsest8", "grid5", "grid12", "grid30", "cycle200", "gnp150"],
)
def test_solve_zero_cost_graphs(make, params):
    # with every cost 0 the penalty must still keep the two sides apart
    g = _zero_costs(make())
    part, _ = solve(g, params)
    assert part.separator_weight == 0
    assert partition_violations(g, part, *params.bounds(g.n)) == []


def test_solve_rounds_only_block_lp_vertices(monkeypatch):
    # refine and escape hand rounding block-LP vertices, which have at most
    # one fractional coordinate per block
    import vsep.multilevel as ml
    from test_golden import CASES

    calls = []

    def checked(inst, p):
        calls.append(p)
        for v in (p.x, p.y):
            assert np.count_nonzero((v > 0) & (v < 1)) <= 1
        return round_to_binary(inst, p)

    monkeypatch.setattr(ml, "round_to_binary", checked)
    for make, params in CASES.values():
        solve(make(), params)
    assert len(calls) > 3 * len(CASES)


def test_solve_rejects_invalid_graph():
    bad = Graph(
        2,
        np.array([0, 1, 1]),
        np.array([1]),
        np.array([1]),
        np.ones(2, dtype=np.int64),
        np.ones(2, dtype=np.int64),
    )
    with pytest.raises(ValueError, match=r"invalid graph: \['asymmetry: \(0, 1\)'\]"):
        solve(bad)


def test_solve_validates_graphs_that_vsep_did_not_build(monkeypatch):
    import vsep.graphs

    calls = []
    monkeypatch.setattr(vsep.graphs, "validate", lambda g: calls.append(g) or validate(g))
    loaded = load_metis(Path(__file__).parent / "data" / "grid12.graph")
    solve(loaded)
    solve(Graph.from_edges(3, [(0, 1), (1, 2)]))
    assert calls == []  # the loaders and from_edges already rejected every fault

    solve(dataclasses.replace(loaded))
    assert len(calls) == 1
    indices = loaded.indices.copy()
    indices[0] = 2  # row 0 lists 2 in place of 1
    with pytest.raises(ValueError, match=r"invalid graph: \['asymmetry: \(0, 2\)', 'asymmetry: \(1, 0\)'"):
        solve(dataclasses.replace(loaded, indices=indices))
    edited = loaded.weights.copy()
    edited[0] = 5
    changed = dataclasses.replace(copy.deepcopy(loaded), weights=edited)
    with pytest.raises(ValueError, match=r"invalid graph: \['asymmetry: \(0, 1\)'"):
        solve(changed)
    assert len(calls) == 3


def test_params_bounds():
    assert SolveParams().bounds(100) == (1, 50, 1, 50)
    # the bounds read the total vertex size, as build_hierarchy passes it
    g = Graph.from_edges(5, [(i, i + 1) for i in range(4)], vertex_size=[3] * 5)
    assert build_hierarchy(g, SolveParams()).levels[0].inst.ua == SolveParams().bounds(15)[1] == 7
    assert SolveParams(ub_fraction=0.6, la=2, lb=3).bounds(7) == (2, 4, 3, 4)
    # ua floors the decimal product, not the float one just below it
    for f, ua in ((0.29, 29), (0.57, 57), (0.58, 58)):
        assert SolveParams(ub_fraction=f).bounds(100) == (1, ua, 1, ua)
    assert all(SolveParams().bounds(t)[1] == 503 * t // 1000 for t in range(10**5 + 1))


def test_params_validation():
    with pytest.raises(ValueError):
        SolveParams(ub_fraction=0.0)
    with pytest.raises(ValueError):
        SolveParams(coarsest_size=1)
    with pytest.raises(ValueError):
        SolveParams(multistarts=0)
    with pytest.raises(ValueError):
        SolveParams(gamma_steps=0)
    with pytest.raises(ValueError, match="seed"):
        SolveParams(seed=-1)
    non_integers = {"la": 0.5, "lb": 1.0, "coarsest_size": 2.5, "gamma_steps": 2.5, "multistarts": "3", "seed": 1.5}
    for name, value in non_integers.items():
        with pytest.raises(ValueError, match=name):
            SolveParams(**{name: value})
    # numpy integers are integers
    assert SolveParams(la=np.int64(2), seed=np.uint32(5)).bounds(10) == (2, 5, 1, 5)
