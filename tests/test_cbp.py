import numpy as np
import pytest

from conftest import (
    complete_graph,
    default_instance,
    empty_graph,
    gnp,
    path_graph,
    random_fractional_point,
)
from vsep.cbp import (
    DegenerateRepairError,
    DimensionMismatchError,
    InfeasibleBoundsError,
    Partition,
    Point,
    escape,
    extract_partition,
    feasible,
    instance_from_graph,
    objective,
    partition_violations,
    refine,
    round_to_binary,
    solve_block_lp,
)
from vsep.graphs import Graph
from vsep.oracle import brute_force_lp, brute_force_vsp

EPS = 1e-9


def pt(x, y):
    return Point(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def k2_instance(la=1, ua=1, lb=1, ub=1):
    return instance_from_graph(Graph.from_edges(2, [(0, 1)]), la, ua, lb, ub)


def p3_instance(la=1, ua=1, lb=1, ub=1):
    return instance_from_graph(path_graph(3), la, ua, lb, ub)


# ------------------------------------------------------------------ objective


def test_objective_zero_point():
    inst = p3_instance()
    assert objective(inst, pt([0, 0, 0], [0, 0, 0]), 1.0) == 0.0


def test_objective_k2_overlapping_sides():
    inst = k2_instance(ua=2, ub=2)
    assert objective(inst, pt([1, 0], [0, 1]), 1.0) == 1.0  # 2 - B_01


def test_objective_p3_endpoints():
    inst = p3_instance()
    assert objective(inst, pt([1, 0, 0], [0, 0, 1]), 1.0) == 2.0  # B_02 = 0


def test_objective_dimension_mismatch():
    inst = p3_instance()
    with pytest.raises(DimensionMismatchError):
        objective(inst, pt([1, 0], [0, 1]), 1.0)


# ------------------------------------------------------------------- feasible


def test_feasible_upper_bound():
    inst = default_instance(empty_graph(5))  # ua = floor(0.503 * 5) = 2
    assert inst.ua == 2
    assert not feasible(inst, pt([1, 1, 1, 0, 0], [1, 0, 0, 0, 0]))


def test_feasible_lower_bound():
    inst = p3_instance()
    assert not feasible(inst, pt([0, 0, 0], [0, 0, 1]))


def test_feasible_overlap_allowed():
    inst = k2_instance(ua=2, ub=2)
    assert feasible(inst, pt([1, 1], [1, 1]))


# ------------------------------------------------------------- solve_block_lp


def test_lp_positive_items():
    v = solve_block_lp([3, 2, 1], [1, 1, 1], 1, 2)
    assert np.array_equal(v, [1, 1, 0])


def test_lp_skips_negative_when_lower_bound_met():
    v = solve_block_lp([1, -1], [1, 1], 1, 2)
    assert np.array_equal(v, [1, 0])


def test_lp_fractional_cut():
    v = solve_block_lp([5, 4], [2, 3], 0, 4)
    assert np.allclose(v, [1, 2 / 3], atol=EPS)


def test_lp_all_nonpositive_slack_lower_bound():
    v = solve_block_lp([-1, -2], [1, 1], 0, 2)
    assert np.array_equal(v, [0, 0])


def test_lp_lower_bound_forces_least_loss():
    v = solve_block_lp([0, -1, -3], [1, 2, 1], 2, 3)
    # ratios 0, -0.5, -3: fill with item 0, then half of item 1
    assert np.allclose(v, [1, 0.5, 0], atol=EPS)


def test_lp_infeasible_bounds():
    with pytest.raises(InfeasibleBoundsError):
        solve_block_lp([1, 1], [1, 1], 3, 4)
    with pytest.raises(InfeasibleBoundsError):
        solve_block_lp([1.0], [1.0], 1, 0)


def test_lp_matches_oracle_and_vertex_form():
    rng = np.random.default_rng(11)
    for _ in range(120):
        n = int(rng.integers(1, 13))
        s = rng.integers(1, 4, size=n).astype(float)
        g = np.round(rng.normal(size=n) * 4, 3)
        total = int(s.sum())
        l = int(rng.integers(0, total + 1))
        u = int(rng.integers(l, total + 1))
        v = solve_block_lp(g, s, l, u)
        ref_val, _ = brute_force_lp(g, s, l, u)
        assert abs(float(g @ v) - ref_val) <= EPS
        assert np.all(v >= 0) and np.all(v <= 1)
        assert l - EPS <= float(s @ v) <= u + EPS
        assert np.count_nonzero((v > EPS) & (v < 1 - EPS)) <= 1


# --------------------------------------------------------------------- refine


def test_refine_p3_trace_from_zero():
    inst = p3_instance()
    log: list = []
    out = refine(inst, pt([0, 0, 0], [0, 0, 0]), 1.0, step_log=log)
    assert np.array_equal(out.x, [1, 0, 0])
    assert np.array_equal(out.y, [0, 0, 1])
    assert objective(inst, out, 1.0) == 2.0
    assert log == sorted(log)


def test_refine_fixed_point_returned_unchanged():
    inst = p3_instance()
    fixed = pt([1, 0, 0], [0, 0, 1])
    out = refine(inst, fixed, 1.0)
    assert np.array_equal(out.x, fixed.x)
    assert np.array_equal(out.y, fixed.y)


def test_refine_k2_overlap_persists():
    inst = k2_instance()
    out = refine(inst, pt([1, 0], [1, 0]), 1.0)
    assert np.array_equal(out.x, [1, 0])
    assert np.array_equal(out.y, [1, 0])
    assert objective(inst, out, 1.0) == 1.0  # 2 - gamma * B_00


def test_refine_monotone_on_random_instances():
    rng = np.random.default_rng(5)
    for trial in range(30):
        g = gnp(int(rng.integers(4, 30)), 0.3, seed=200 + trial)
        inst = default_instance(g)
        p = random_fractional_point(inst, rng)
        for gamma in (0.0, 0.5, inst.gamma0):
            log: list = []
            refine(inst, p, gamma, step_log=log)
            assert all(b - a >= -EPS for a, b in zip(log, log[1:]))


# ------------------------------------------------------------ round_to_binary


def test_round_binary_point_unchanged():
    inst = p3_instance()
    p = pt([1, 0, 0], [0, 0, 1])
    q = round_to_binary(inst, p)
    assert np.array_equal(q.x, p.x)
    assert np.array_equal(q.y, p.y)


def test_round_two_isolated_fractional_tie():
    inst = instance_from_graph(empty_graph(2), 1, 1, 0, 2)
    q = round_to_binary(inst, pt([0.5, 0.5], [0, 0]))
    assert np.array_equal(q.x, [1, 0])  # tie raises the lower index
    assert objective(inst, q, inst.gamma0) == 1.0


def test_round_k2_orthogonality_repair_keeps_lower_bound():
    inst = k2_instance(la=1, ua=1, lb=0, ub=1)
    p = pt([1, 0], [1, 0])
    assert objective(inst, p, 1.0) == 1.0
    q = round_to_binary(inst, p)
    assert np.array_equal(q.x, [1, 0])
    assert np.array_equal(q.y, [0, 0])
    assert objective(inst, q, 1.0) == 1.0


def test_round_degenerate_when_no_side_can_yield():
    inst = k2_instance(la=1, ua=1, lb=1, ub=1)
    with pytest.raises(DegenerateRepairError):
        round_to_binary(inst, pt([1, 0], [1, 0]))


def test_round_partner_completion_with_aggregate_sizes():
    g = Graph.from_edges(2, [], vertex_size=[2, 1])
    inst = instance_from_graph(g, 1, 3, 0, 3)
    q = round_to_binary(inst, pt([0.5, 0], [1, 0]))
    assert np.array_equal(q.x, [0, 1])  # mass moved onto the unit-size partner
    assert np.array_equal(q.y, [1, 0])
    assert feasible(inst, q)


def test_round_contract_on_random_points():
    rng = np.random.default_rng(17)
    for trial in range(40):
        g = gnp(int(rng.integers(4, 40)), float(rng.choice([0.15, 0.4])), seed=300 + trial)
        inst = default_instance(g)
        p = random_fractional_point(inst, rng)
        f_in = objective(inst, p, inst.gamma0)
        q = round_to_binary(inst, p)
        assert set(np.unique(q.x)) <= {0.0, 1.0}
        assert set(np.unique(q.y)) <= {0.0, 1.0}
        assert feasible(inst, q)
        assert float(q.x @ inst.bdot(q.y)) <= EPS
        assert objective(inst, q, inst.gamma0) >= f_in - EPS


# ---------------------------------------------------------- extract_partition


def test_extract_p3():
    inst = p3_instance()
    part = extract_partition(inst, pt([1, 0, 0], [0, 0, 1]))
    assert part.a == (0,)
    assert part.b == (2,)
    assert part.s == (1,)
    assert part.separator_weight == 1
    # {1} really does separate P3 under these bounds
    ref = brute_force_vsp(path_graph(3), 1, 1, 1, 1)
    assert ref.optimal_weight == 1 and ref.witness.s == (1,)


def test_extract_empty_separator():
    inst = instance_from_graph(empty_graph(3), 1, 3, 0, 3)
    part = extract_partition(inst, pt([1, 1, 1], [0, 0, 0]))
    assert part.a == (0, 1, 2)
    assert part.b == ()
    assert part.s == ()
    assert part.separator_weight == 0


def test_extract_rejects_overlap():
    inst = k2_instance(ua=2, ub=2)
    from vsep.cbp import NotOrthogonalError

    with pytest.raises(NotOrthogonalError):
        extract_partition(inst, pt([1, 0], [1, 0]))


def test_extract_rejects_fractional():
    inst = k2_instance(ua=2, ub=2)
    from vsep.cbp import NotBinaryError

    with pytest.raises(NotBinaryError):
        extract_partition(inst, pt([0.5, 0], [0, 1]))


def test_extract_matches_graph_adjacency():
    rng = np.random.default_rng(23)
    for trial in range(25):
        g = gnp(int(rng.integers(4, 20)), 0.3, seed=400 + trial)
        inst = default_instance(g)
        p = random_fractional_point(inst, rng)
        q = round_to_binary(inst, refine(inst, p, inst.gamma0))
        part = extract_partition(inst, q)
        assert partition_violations(g, part, inst.la, inst.ua, inst.lb, inst.ub) == []


def _partition_violations_loop(g, part, la, ua, lb, ub):
    """Vertex-by-vertex reference for partition_violations."""
    out = []
    side = np.zeros(g.n, dtype=np.int8)
    for label, group in ((1, part.a), (2, part.b), (3, part.s)):
        for v in group:
            if not 0 <= v < g.n:
                out.append(f"vertex out of range: {v}")
            elif side[v]:
                out.append(f"vertex in two sets: {v}")
            else:
                side[v] = label
    out.extend(f"vertex in no set: {int(v)}" for v in np.flatnonzero(side == 0))
    if out:
        return out
    for u in part.a:
        nbrs, _ = g.neighbors(u)
        for v in nbrs[side[nbrs] == 2]:
            out.append(f"edge between a and b: ({u}, {int(v)})")
    size_a = int(g.vertex_size[list(part.a)].sum()) if part.a else 0
    size_b = int(g.vertex_size[list(part.b)].sum()) if part.b else 0
    if not la <= size_a <= ua:
        out.append(f"size of a = {size_a} outside [{la}, {ua}]")
    if not lb <= size_b <= ub:
        out.append(f"size of b = {size_b} outside [{lb}, {ub}]")
    weight = int(g.vertex_cost[list(part.s)].sum()) if part.s else 0
    if weight != part.separator_weight:
        out.append(f"separator weight {part.separator_weight} != {weight}")
    return out


def test_partition_violations_reports_ab_edge_and_doubled_vertex():
    g = path_graph(5)
    ab_edges = Partition(a=(3, 0, 1), b=(2, 4), s=(), separator_weight=0)
    assert partition_violations(g, ab_edges, 1, 3, 1, 3) == [
        "edge between a and b: (3, 2)",
        "edge between a and b: (3, 4)",
        "edge between a and b: (1, 2)",
    ]
    doubled = Partition(a=(0, 1), b=(1, 3, 4), s=(2,), separator_weight=1)
    assert partition_violations(g, doubled, 1, 3, 1, 3) == ["vertex in two sets: 1"]
    stray = Partition(a=(0, 7), b=(3, 4, 3), s=(2,), separator_weight=1)
    assert partition_violations(g, stray, 1, 3, 1, 3) == [
        "vertex out of range: 7",
        "vertex in two sets: 3",
        "vertex in no set: 1",
    ]


def test_partition_violations_matches_loop_reference():
    rng = np.random.default_rng(31)
    for trial in range(150):
        n = int(rng.integers(1, 16))
        base = gnp(n, 0.3, seed=900 + trial)
        g = Graph.from_edges(
            n, list(base.edges()), vertex_cost=rng.integers(0, 4, size=n), vertex_size=rng.integers(1, 3, size=n)
        )
        groups = [[], [], []]
        for v in rng.permutation(n).tolist():
            groups[int(rng.integers(3))].append(v)
        if trial % 3 == 0:
            groups[int(rng.integers(3))].append(int(rng.integers(-2, n + 2)))  # doubled or out of range
        if trial % 5 == 0 and n > 1:
            for grp in groups:
                if grp:
                    grp.pop()  # missing vertex
                    break
        weight = int(g.vertex_cost[[v for v in groups[2] if 0 <= v < n]].sum()) + int(rng.integers(-1, 2))
        part = Partition(*(tuple(grp) for grp in groups), separator_weight=weight)
        bounds = [int(x) for x in rng.integers(0, n + 2, size=4)]
        assert partition_violations(g, part, *bounds) == _partition_violations_loop(g, part, *bounds)


# --------------------------------------------------------------------- escape


def test_escape_identity_when_nothing_improves():
    inst = p3_instance()
    fixed = refine(inst, pt([1, 0, 0], [0, 0, 1]), inst.gamma0)
    out = escape(inst, fixed)
    assert np.array_equal(out.x, fixed.x)
    assert np.array_equal(out.y, fixed.y)


def test_escape_gamma_zero_fills_to_upper_bound():
    # at gamma = 0 the x block maximizes c.x alone: the greedy fills s.x to ua
    inst = default_instance(gnp(8, 0.4, seed=9))
    v = solve_block_lp(inst.c, inst.s, inst.la, inst.ua)
    assert float(inst.s @ v) == inst.ua
    assert np.array_equal(v, [1, 1, 1, 1, 0, 0, 0, 0])  # unit costs: lowest indices


def test_escape_never_hurts_and_sometimes_helps():
    rng = np.random.default_rng(31)
    improved = 0
    for trial in range(100):
        g = gnp(12, 0.3, seed=500 + trial)
        inst = default_instance(g)
        p0 = random_fractional_point(inst, rng)
        base = refine(inst, p0, inst.gamma0)
        f_base = objective(inst, base, inst.gamma0)
        out = escape(inst, base)
        f_out = objective(inst, out, inst.gamma0)
        assert f_out >= f_base - EPS
        improved += f_out > f_base + EPS
        # context: the bilinear maximum equals total cost minus the optimal weight
        ref = brute_force_vsp(g, inst.la, inst.ua, inst.lb, inst.ub)
        if ref.feasible:
            f_star = float(inst.c.sum()) - ref.optimal_weight
            assert f_out <= f_star + EPS
    assert improved >= 1


def test_escape_stats_and_determinism():
    inst = default_instance(gnp(15, 0.3, seed=77))
    p = refine(inst, random_fractional_point(inst, np.random.default_rng(1)), inst.gamma0)
    stats: dict = {}
    out1 = escape(inst, p, stats=stats)
    out2 = escape(inst, p)
    assert np.array_equal(out1.x, out2.x) and np.array_equal(out1.y, out2.y)
    assert stats.get("escapes", 0) >= 0


# --------------------------------------------------------------- infeasible K4


def test_k4_has_no_partition_under_tight_bounds():
    res = brute_force_vsp(complete_graph(4), 1, 2, 1, 2)
    assert not res.feasible
