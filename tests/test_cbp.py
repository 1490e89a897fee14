import math
import sys
import threading

import numpy as np
import pytest

from conftest import (
    complete_graph,
    default_instance,
    empty_graph,
    gnp,
    grid_graph,
    path_graph,
    random_fractional_point,
)
import scipy.sparse as sp

from vsep import cbp
from vsep.cbp import (
    CbpInstance,
    DegenerateRepairError,
    DimensionMismatchError,
    InfeasibleBoundsError,
    MonotonicityError,
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
    _defractionalize,
    _finish_single,
)
from vsep.graphs import Graph
from vsep.multilevel import Level, SolveParams, ascending_degree_order, build_hierarchy, contract, heavy_edge_matching
from vsep.oracle import brute_force_lp, brute_force_vsp

EPS = 1e-9


def pt(x, y):
    return Point(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def k2_instance(la=1, ua=1, lb=1, ub=1):
    return instance_from_graph(Graph.from_edges(2, [(0, 1)]), la, ua, lb, ub)


def p3_instance(la=1, ua=1, lb=1, ub=1):
    return instance_from_graph(path_graph(3), la, ua, lb, ub)


# ---------------------------------------------------------------- CbpInstance


def _p3_data():
    """n, B, c, s of P3's finest level, for building instances by hand."""
    B = sp.csr_array(np.array([[1.0, 1, 0], [1, 1, 1], [0, 1, 1]]))
    return 3, B, np.ones(3), np.ones(3)


def test_gamma0_is_the_largest_cost_or_1():
    n, B, _, s = _p3_data()
    assert CbpInstance(n, B, np.array([2.0, 5, 0]), s, 1, 1, 1, 1).gamma0 == 5.0
    # with every cost 0, a penalty of 0 would let x and y overlap freely
    assert CbpInstance(n, B, np.zeros(3), s, 1, 1, 1, 1).gamma0 == 1.0


def test_instance_rejects_mismatched_dimensions():
    n, B, c, s = _p3_data()
    with pytest.raises(DimensionMismatchError):
        CbpInstance(n, B[:2, :2], c, s, 1, 1, 1, 1)
    with pytest.raises(DimensionMismatchError):
        CbpInstance(n, B, c[:2], s, 1, 1, 1, 1)
    with pytest.raises(DimensionMismatchError):
        CbpInstance(n, B, c, np.ones(4), 1, 1, 1, 1)


@pytest.mark.parametrize(
    "change",
    [
        {"c": np.array([1.0, -1, 1])},  # negative cost
        {"s": np.array([1.0, 0.5, 1])},  # size < 1
        {"B": sp.csr_array(np.array([[1.0, 0.5, 0], [0.5, 1, 1], [0, 1, 1]]))},  # entry < 1
        {"B": sp.csr_array(np.array([[1.0, 1, 0], [1, 0, 1], [0, 1, 1]]))},  # zero diagonal
        {"bounds": (2, 1, 1, 1)},  # la > ua
        {"bounds": (1, 1, -1, 1)},  # lb < 0
        {"bounds": (1, 4, 1, 1)},  # ua above the total size
        {"c": np.array([1.0, 1.5, 1]), "match": "costs"},  # non-integer cost
        {"s": np.array([1.0, 2.5, 1]), "match": "sizes"},  # non-integer size
        {"B": sp.csr_array(np.array([[1.0, 1.5, 0], [1.5, 1, 1], [0, 1, 1]])), "match": "B entries"},
        # asymmetric: an unequal mirror, and a missing one
        {"B": np.array([[1.0, 1, 0], [2, 1, 1], [0, 1, 1]]), "match": r"B\[0, 1\] = 1 but B\[1, 0\] = 2"},
        {"B": sp.csr_array(np.array([[1.0, 1, 0], [1, 1, 1], [0, 0, 1]])), "match": r"B\[1, 2\] = 1 but B\[2, 1\] = 0"},
        # a CsrMatrix out of canonical form: P3's B with row 0's columns unsorted,
        # row 0's diagonal stored twice, a column out of range, a falling indptr
        {"B": lambda: cbp.CsrMatrix(np.ones(7), [1, 0, 0, 1, 2, 1, 2], [0, 2, 5, 7], (3, 3)), "match": "row 0 must ascend"},
        {"B": lambda: cbp.CsrMatrix([0.5, 0.5, 1, 1, 1, 1, 1, 1], [0, 0, 1, 0, 1, 2, 1, 2], [0, 3, 6, 8], (3, 3)), "match": "row 0 must ascend"},
        {"B": lambda: cbp.CsrMatrix(np.ones(7), [0, 1, 0, 1, 2, 1, 3], [0, 2, 5, 7], (3, 3)), "match": "column indices"},
        {"B": lambda: cbp.CsrMatrix(np.ones(7), [0, 1, 0, 1, 2, 1, 2], [0, 5, 2, 7], (3, 3)), "match": "indptr"},
    ],
)
def test_instance_rejects_bad_data(change):
    n, B, c, s = _p3_data()
    B, c, s = change.get("B", B), change.get("c", c), change.get("s", s)
    with pytest.raises(ValueError, match=change.get("match")):
        CbpInstance(n, B() if callable(B) else B, c, s, *change.get("bounds", (1, 1, 1, 1)))


def test_instance_takes_a_csr_matrix_as_its_own_copy():
    n, _, c, s = _p3_data()
    data, indices, indptr = np.ones(7), np.array([0, 1, 0, 1, 2, 1, 2]), np.array([0, 2, 5, 7])
    inst = CbpInstance(n, cbp.CsrMatrix(data, indices, indptr, (n, n)), c, s, 1, 1, 1, 1)
    assert np.array_equal(inst.B.toarray(), _p3_data()[1].toarray())
    data[0] = 5.0  # the caller's arrays stay writable and apart from B
    assert inst.B.data[0] == 1.0 and not inst.B.data.flags.writeable


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


def test_objective_of_a_stack_is_each_rows_value():
    inst = p3_instance()
    xs, ys = [[1, 0, 0], [0.5, 0.25, 0]], [[0, 0, 1], [0, 0.5, 1]]
    f = objective(inst, pt(xs, ys), 1.0)
    assert f.shape == (2,)
    assert f.tolist() == [objective(inst, pt(x, y), 1.0) for x, y in zip(xs, ys)]


def test_objective_dimension_mismatch():
    inst = p3_instance()
    with pytest.raises(DimensionMismatchError):
        objective(inst, pt([1, 0], [0, 1]), 1.0)


# ------------------------------------------------------------------- feasible


def test_feasible_upper_bound():
    inst = default_instance(empty_graph(5))  # SolveParams().bounds(5): ua = 2
    assert inst.ua == 2
    assert not feasible(inst, pt([1, 1, 1, 0, 0], [1, 0, 0, 0, 0]))


def test_feasible_lower_bound():
    inst = p3_instance()
    assert not feasible(inst, pt([0, 0, 0], [0, 0, 1]))


def test_feasible_overlap_allowed():
    inst = k2_instance(ua=2, ub=2)
    assert feasible(inst, pt([1, 1], [1, 1]))


def test_feasible_stack_needs_every_row():
    inst = p3_instance()
    good = [[1, 0, 0], [0, 0.5, 0.5]]
    assert feasible(inst, pt(good, [[0, 0, 1], [0, 1, 0]]))
    assert not feasible(inst, pt(good, [[0, 0, 1], [0, 0, 0]]))  # row 1 below lb
    assert not feasible(inst, pt([[1, 0, 0], [0, 1.5, -0.5]], [[0, 0, 1]] * 2))  # row 1 off the box


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


def test_lp_fill_of_every_item_leaves_no_rest():
    # l = u = total: both rows lie outside the bounds and take the batched sort
    G = np.array([[2.0, 1, 0, -2, -1], [-1, 3, -2, 0, 1]])
    assert np.array_equal(solve_block_lp(G, [3, 2, 2, 2, 4], 13, 13), np.ones((2, 5)))


def test_lp_rejects_non_integer_sizes():
    # non-integer sizes sum by their order: 15.0 in index order, 14.999999999999998 in ratio order
    with pytest.raises(ValueError, match="sizes must be integers"):
        solve_block_lp([2, 1, 0, -2, -1], [3.5, 2.7, 2.5, 2.6, 3.7], 15, 15)
    with pytest.raises(ValueError, match="sizes must be integers"):
        solve_block_lp(np.ones((2, 2)), [1.0, np.nan], 0, 1)


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


def _block_lp_loop(g, s, l, u):
    """Item-by-item reference of the block-LP greedy for one gain vector."""
    order = sorted(range(len(g)), key=lambda i: -g[i] / s[i])  # stable: ties keep low index
    v = [0.0] * len(g)
    run = 0.0
    pos = len(order)
    for t, i in enumerate(order):
        if g[i] <= 0:
            pos = t
            break
        if run + s[i] <= u:
            v[i] = 1.0
            run += s[i]
        else:
            if u > run:
                v[i] = (u - run) / s[i]
                run = float(u)
            pos = t + 1
            break
    for i in order[pos:]:
        need = l - run
        if need <= 0:
            break
        if s[i] <= need:
            v[i] = 1.0
            run += s[i]
        else:
            v[i] = need / s[i]
            run = float(l)
    return np.array(v)


def _random_block_lps(rng, count):
    """Gain stacks with ties, zeros and negatives over unit, small and large
    integer sizes, with lower bounds above the positive-gain items' size,
    and l == u."""
    for trial in range(count):
        n = int(rng.integers(1, 90))
        rows = int(rng.integers(1, 8))
        if trial % 3 == 2:
            s = rng.integers(1, 40, size=n).astype(float)
        else:
            s = rng.integers(1, 4, size=n).astype(float) if trial % 2 else np.ones(n)
        G = rng.integers(-3, 4, size=(rows, n)) * rng.choice([1.0, 0.5, 1 / 3])
        if trial % 3 == 0:
            G += rng.normal(size=(rows, n))
        total = int(s.sum())
        kind = trial % 4
        if kind == 0:
            l, u = 0, int(rng.integers(0, total + 1))
        elif kind == 1:
            l = int(rng.integers(total // 2, total + 1))  # raised l: the fill goes past the positives
            u = int(rng.integers(l, total + 1))
        elif kind == 2:
            l = u = int(rng.integers(0, total + 1))
        else:
            l = int(rng.integers(0, total + 1))
            u = int(rng.integers(l, total + 1))
        yield G, s, l, u


def test_lp_matches_item_loop():
    rng = np.random.default_rng(41)
    for G, s, l, u in _random_block_lps(rng, 300):
        for g in G:
            v = solve_block_lp(g, s, l, u)
            assert v.tobytes() == _block_lp_loop(g.tolist(), s.tolist(), l, u).tobytes()


def test_lp_stack_equals_rows():
    rng = np.random.default_rng(43)
    for G, s, l, u in _random_block_lps(rng, 300):
        V = solve_block_lp(G, s, l, u)
        assert V.shape == G.shape
        assert np.array_equal(V, np.stack([solve_block_lp(g, s, l, u) for g in G]))


def _gains_with_positive_size(rng, s, target):
    """Heavily tied gains whose positive items have total size in
    (target - max(s), target]: a random prefix of a permutation takes gains
    1 or 2, all others 0, -1 or -2; one row in three is scaled by 1/3."""
    perm = rng.permutation(len(s))
    take = perm[: np.searchsorted(np.cumsum(s[perm]), target, side="right")]
    g = -rng.integers(0, 3, size=len(s)).astype(float)
    g[take] = rng.integers(1, 3, size=take.size)
    return g * rng.choice([1.0, 1.0, 1 / 3])


def _lp_classes(rng, s):
    """Bounds l < u and one gain row of each class: in bounds, over u, short of l."""
    total = int(s.sum())
    l, u = total // 3, total // 2
    rows = {
        "in": _gains_with_positive_size(rng, s, (l + u) // 2),
        "over": _gains_with_positive_size(rng, s, (u + total) // 2),
        "short": _gains_with_positive_size(rng, s, l // 2),
    }
    size = {name: float(s[g > 0].sum()) for name, g in rows.items()}
    assert l <= size["in"] <= u and size["over"] > u and size["short"] < l
    return l, u, rows


def _assert_rows_match_item_loop(V, G, s, l, u):
    for v, g in zip(V, G):
        assert v.tobytes() == _block_lp_loop(g.tolist(), s.tolist(), l, u).tobytes()


@pytest.mark.parametrize("unit", [True, False])
def test_lp_row_classes_match_item_loop_at_large_n(unit):
    rng = np.random.default_rng(61 + unit)
    for _ in range(3):
        n = int(rng.integers(1800, 2200))
        s = np.ones(n) if unit else rng.integers(1, 4, size=n).astype(float)
        l, u, rows = _lp_classes(rng, s)
        for g in rows.values():
            _assert_rows_match_item_loop([solve_block_lp(g, s, l, u)], [g], s, l, u)
        # a lone row outside the bounds among rows within them, and stacks mixing every class
        for names in (["in", "over", "in"], ["in", "short"], ["over", "in", "short", "over"], ["short", "short"]):
            G = np.stack([rows[name] for name in names])
            _assert_rows_match_item_loop(solve_block_lp(G, s, l, u), G, s, l, u)


def test_lp_sorts_only_what_the_answer_depends_on(monkeypatch):
    rng = np.random.default_rng(67)
    n = 2000
    s = rng.integers(1, 4, size=n).astype(float)
    l, u, rows = _lp_classes(rng, s)
    sorted_shapes = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda a, **kw: sorted_shapes.append(np.shape(a)) or argsort(a, **kw))

    within = np.stack([rows["in"], _gains_with_positive_size(rng, s, u), _gains_with_positive_size(rng, s, l + 3)])
    _assert_rows_match_item_loop(solve_block_lp(within, s, l, u), within, s, l, u)
    assert sorted_shapes == []

    over = rows["over"]
    _assert_rows_match_item_loop([solve_block_lp(over, s, l, u)], [over], s, l, u)
    assert sorted_shapes == [(int((over > 0).sum()),)]

    sorted_shapes.clear()
    short = rows["short"]
    _assert_rows_match_item_loop([solve_block_lp(short, s, l, u)], [short], s, l, u)
    assert sorted_shapes == [(int((short <= 0).sum()),)]

    sorted_shapes.clear()
    # two rows outside the bounds: one batched sort of those rows only
    both = np.stack([rows["in"], over, short])
    _assert_rows_match_item_loop(solve_block_lp(both, s, l, u), both, s, l, u)
    assert sorted_shapes == [(2, n)]


def test_lp_stack_shapes():
    s = np.ones(3)
    assert solve_block_lp(np.zeros((0, 3)), s, 0, 1).shape == (0, 3)
    assert solve_block_lp(np.zeros((2, 0)), [], 0, 0).shape == (2, 0)
    with pytest.raises(DimensionMismatchError):
        solve_block_lp(np.zeros((2, 4)), s, 0, 1)
    with pytest.raises(DimensionMismatchError):
        solve_block_lp(np.zeros((2, 2, 3)), s, 0, 1)


# --------------------------------------------------------------------- refine


def test_refine_p3_reaches_endpoints():
    inst = p3_instance()
    out = refine(inst, pt([0, 1, 0], [0, 1, 0]), 1.0)
    assert np.array_equal(out.x, [1, 0, 0])
    assert np.array_equal(out.y, [0, 0, 1])
    assert objective(inst, out, 1.0) == 2.0


def test_refine_rejects_infeasible_starts():
    inst = p3_instance()
    with pytest.raises(ValueError, match="feasible"):
        refine(inst, pt([1.5, -0.5, 0], [0, 0, 1]), 1.0)  # off the box, sums in bounds
    with pytest.raises(ValueError, match="feasible"):
        refine(inst, pt([0, 0, 0], [0, 0, 0]), 1.0)  # in the box, below la and lb
    good = [[1, 0, 0], [0, 0, 1]]
    with pytest.raises(ValueError, match="feasible"):
        refine(inst, pt(good, [[0, 0, 1], [0, 1, 1]]), 1.0)  # only row 1 above ub


def test_refine_raises_when_a_step_lowers_the_objective(monkeypatch):
    # a block minimizer in place of the maximizer: the first step falls
    monkeypatch.setattr("vsep.cbp.solve_block_lp", lambda g, s, l, u: solve_block_lp(-g, s, l, u))
    inst = p3_instance()
    with pytest.raises(MonotonicityError):
        refine(inst, pt([1, 0, 0], [0, 0, 1]), 1.0)


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
            out = refine(inst, p, gamma)  # raises MonotonicityError on a falling step
            assert objective(inst, out, gamma) >= objective(inst, p, gamma) - EPS


def _costed_instance(rng, n):
    """gnp instance with costs 1..5, sizes 1..3 and a random lower bound."""
    base = gnp(n, float(rng.choice([0.05, 0.15, 0.4])), seed=int(rng.integers(1 << 30)))
    g = Graph.from_edges(
        n, list(base.edges()), vertex_cost=rng.integers(1, 6, size=n), vertex_size=rng.integers(1, 4, size=n)
    )
    ua = int(0.503 * int(g.vertex_size.sum()))
    lb = int(rng.integers(0, ua // 2 + 1))
    return instance_from_graph(g, lb, ua, lb, ua)


def _stack(points):
    return Point(np.stack([q.x for q in points]), np.stack([q.y for q in points]))


def test_refine_and_escape_stack_equal_rows():
    rng = np.random.default_rng(47)
    for trial in range(40):
        # dense copy of B below 129 vertices, sparse products above
        n = int(rng.integers(2, 60)) if trial % 4 else int(rng.integers(129, 200))
        inst = _costed_instance(rng, n) if trial % 2 else default_instance(gnp(n, 0.2, seed=trial))
        rows = int(rng.integers(1, 7))
        starts = [random_fractional_point(inst, rng) for _ in range(rows)]
        gammas = rng.uniform(0, inst.gamma0, size=rows)

        fixed = refine(inst, _stack(starts), gammas)
        assert fixed.x.shape == (rows, n)
        one_by_one = [refine(inst, q, gamma) for q, gamma in zip(starts, gammas)]
        assert np.array_equal(fixed.x, np.stack([q.x for q in one_by_one]))
        assert np.array_equal(fixed.y, np.stack([q.y for q in one_by_one]))
        scalar = refine(inst, _stack(starts), float(gammas[0]))
        assert np.array_equal(scalar.x[0], one_by_one[0].x)

        stats: dict = {}
        out = escape(inst, fixed, stats=stats)
        row_stats: dict = {}
        rows_out = [escape(inst, q, stats=row_stats) for q in one_by_one]
        assert np.array_equal(out.x, np.stack([q.x for q in rows_out]))
        assert np.array_equal(out.y, np.stack([q.y for q in rows_out]))
        assert stats.get("escapes", 0) == row_stats.get("escapes", 0)


def _refine_reference(inst, p, gamma):
    """refine without its early stops: every row runs its confirming sweep
    and leaves when a sweep gains <= EPS."""
    x, y = cbp._stacked_arrays(inst, p)
    gammas = np.empty((x.shape[0], 1))
    gammas[:, 0] = gamma
    c, s = inst.c, inst.s
    out_x, out_y = np.empty_like(x), np.empty_like(y)
    live = np.arange(x.shape[0])
    by = inst.bdot(y)
    f_prev = cbp._rowdot(x + y, c) - gammas[:, 0] * cbp._rowdot(x, by)
    while True:
        gx = c - gammas * by
        x = cbp.solve_block_lp(gx, s, inst.la, inst.ua)
        f_x = cbp._rowdot(gx, x) + cbp._rowdot(y, c)
        cbp._check_step(f_prev, f_x)
        gy = c - gammas * inst.bdot(x)
        y = cbp.solve_block_lp(gy, s, inst.lb, inst.ub)
        f_y = cbp._rowdot(gy, y) + cbp._rowdot(x, c)
        cbp._check_step(f_x, f_y)
        done = f_y - f_prev <= EPS
        out_x[live[done]], out_y[live[done]] = x[done], y[done]
        if done.all():
            return cbp._shaped_like(p, out_x, out_y)
        live, x, y, gammas, f_prev = (a[~done] for a in (live, x, y, gammas, f_y))
        by = inst.bdot(y)


def _tied_instance(rng, n):
    """gnp instance with costs and sizes 1 or 2, so block-LP ratios tie often."""
    base = gnp(n, float(rng.choice([0.05, 0.2, 0.5])), seed=int(rng.integers(1 << 30)))
    g = Graph.from_edges(
        n, list(base.edges()), vertex_cost=rng.integers(1, 3, size=n), vertex_size=rng.integers(1, 3, size=n)
    )
    ua = int(0.503 * int(g.vertex_size.sum()))
    lb = int(rng.integers(0, ua // 2 + 1))
    return instance_from_graph(g, lb, ua, lb, ua)


def test_refine_early_stops_match_the_full_sweeps(monkeypatch):
    calls = []
    monkeypatch.setattr("vsep.cbp.solve_block_lp", lambda *args: calls.append(1) or solve_block_lp(*args))

    def counted(fn, *args):
        calls.clear()
        out = fn(*args)
        return out, len(calls)

    rng = np.random.default_rng(73)
    stops = set()
    fewer = 0
    for trial in range(60):
        # dense copy of B up to _DENSE_LIMIT vertices, sparse products above
        n = int(rng.integers(2, cbp._DENSE_LIMIT + 1)) if trial % 3 else int(rng.integers(cbp._DENSE_LIMIT + 1, 220))
        inst = _tied_instance(rng, n) if trial % 2 else _costed_instance(rng, n)
        rows = int(rng.integers(1, 7))
        starts = [random_fractional_point(inst, rng) for _ in range(rows)]
        # block-LP vertices and fixed points as well, where the first sweeps repeat
        starts[1::3] = [refine(inst, q, inst.gamma0) for q in starts[1::3]]
        starts[2::3] = [Point(q.x, refine(inst, q, 0.0).y) for q in starts[2::3]]
        gammas = rng.choice([0.0, 0.5, 1.0, inst.gamma0, float(rng.uniform(0, inst.gamma0))], size=rows)

        got, got_calls = counted(refine, inst, _stack(starts), gammas)
        ref, ref_calls = counted(_refine_reference, inst, _stack(starts), gammas)
        assert got.x.tobytes() == ref.x.tobytes() and got.y.tobytes() == ref.y.tobytes()
        assert got_calls <= ref_calls
        fewer += got_calls < ref_calls
        for i, (q, gamma) in enumerate(zip(starts, gammas)):
            alone, alone_calls = counted(refine, inst, q, gamma)
            _, sweep_calls = counted(_refine_reference, inst, q, gamma)
            assert alone.x.tobytes() == got.x[i].tobytes() and alone.y.tobytes() == got.y[i].tobytes()
            # an odd count ends on the x stop; an even count below the reference's on the y stop
            if alone_calls % 2:
                stops.add("x")
            elif alone_calls < sweep_calls:
                stops.add("y")
    assert stops == {"x", "y"}
    assert fewer


def _escape_loop(inst, p, gamma_steps=10, events=None):
    """Point-by-point reference of escape: returns the point and its escapes.

    ``events`` collects, for every probe, whether it won.  It refines through
    ``cbp.refine``, so a patched refine serves both walks."""
    current, f_curr = p, objective(inst, p, inst.gamma0)
    escapes, k = 0, 1
    while k <= gamma_steps:
        probe = cbp.refine(inst, current, inst.gamma0 * (1.0 - k / gamma_steps))
        back = cbp.refine(inst, probe, inst.gamma0)
        f_back = objective(inst, back, inst.gamma0)
        if events is not None:
            events.append(f_back > f_curr + EPS)
        if f_back > f_curr + EPS:
            current, f_curr, escapes, k = back, f_back, escapes + 1, 1
        else:
            k += 1
    return current, escapes


def test_escape_stack_matches_point_loop():
    rng = np.random.default_rng(53)
    for trial in range(25):
        inst = _costed_instance(rng, int(rng.integers(8, 50)))
        rows = int(rng.integers(1, 6))
        starts = [refine(inst, random_fractional_point(inst, rng), inst.gamma0) for _ in range(rows)]
        steps = int(rng.integers(2, 11))
        stats: dict = {}
        out = escape(inst, _stack(starts), gamma_steps=steps, stats=stats)
        ref = [_escape_loop(inst, q, steps) for q in starts]
        assert np.array_equal(out.x, np.stack([q.x for q, _ in ref]))
        assert np.array_equal(out.y, np.stack([q.y for q, _ in ref]))
        assert stats["escapes"] == sum(e for _, e in ref)


def test_escape_probe_widths_match_point_loop():
    # first-round widths 1, 3 (no divisor of K = 10) and K, and K = 1; half of
    # each stack repeats rows, which walk as one row
    rng = np.random.default_rng(67)
    for rows, n, steps, width in [(40, 60, 10, 1), (18, 60, 10, 3), (4, 60, 10, 10), (6, 30, 1, 1)]:
        assert min(steps, max(1, cbp._PROBE_CELLS // (rows * n))) == width
        inst = _costed_instance(rng, n)
        distinct = [refine(inst, random_fractional_point(inst, rng), inst.gamma0) for _ in range(rows // 2)]
        starts = distinct + [distinct[i] for i in rng.integers(len(distinct), size=rows - len(distinct))]
        stats: dict = {}
        out = escape(inst, _stack(starts), gamma_steps=steps, stats=stats)
        ref_escapes, alone_stats = 0, {}
        for i, q in enumerate(starts):
            ref, escapes = _escape_loop(inst, q, steps)
            alone = escape(inst, q, gamma_steps=steps, stats=alone_stats)
            for got in (ref, alone):
                assert out.x[i].tobytes() == got.x.tobytes() and out.y[i].tobytes() == got.y.tobytes()
            ref_escapes += escapes
        assert stats["escapes"] == alone_stats["escapes"] == ref_escapes
        # the repeats add neither probes nor re-refines
        once: dict = {}
        escape(inst, _stack(distinct), gamma_steps=steps, stats=once)
        assert once["rerefines"] == stats["rerefines"] and once["probes"] == stats["probes"]


def test_escape_counts_its_probe_and_re_refine_rows(monkeypatch):
    rng = np.random.default_rng(71)
    inst = _costed_instance(rng, 40)
    starts = _stack([refine(inst, random_fractional_point(inst, rng), inst.gamma0) for _ in range(5)])
    counted = {"probes": 0, "rerefines": 0}

    def spy(inst, p, gamma):  # probes pass one gamma per row, re-refines gamma0
        counted["probes" if isinstance(gamma, np.ndarray) else "rerefines"] += len(p.x)
        return refine(inst, p, gamma)

    monkeypatch.setattr("vsep.cbp.refine", spy)
    stats: dict = {}
    escape(inst, starts, stats=stats)
    assert {key: stats[key] for key in counted} == counted
    assert 0 < stats["rerefines"] < stats["probes"]
    first = dict(stats)
    escape(inst, starts, stats=stats)  # the counts add up over calls
    assert stats == {key: 2 * value for key, value in first.items()}

    # one step a round probes as the point-by-point walk does on the distinct
    # rows (here 2 of the 5, and no two rows accept the same point in a round)
    monkeypatch.setattr("vsep.cbp._PROBE_CELLS", 1)
    walked = {}
    escape(inst, starts, stats=walked)
    monkeypatch.setattr("vsep.cbp.refine", refine)
    distinct = {x.tobytes() + y.tobytes(): Point(x, y) for x, y in zip(starts.x, starts.y)}
    assert len(distinct) == 2
    events = []
    for q in distinct.values():
        _escape_loop(inst, q, 10, events)
    escapes = sum(_escape_loop(inst, Point(*q), 10)[1] for q in zip(starts.x, starts.y))
    assert walked["probes"] == len(events) and walked["escapes"] == first["escapes"] == escapes


def _scipy_product(B, v):
    """scipy's CSR product with B's arrays: the reference for bdot and B @ v."""
    ref = sp.csr_array((B.data, B.indices, B.indptr), shape=B.shape)
    return ref @ v if v.ndim == 1 else (ref @ v.T).T


def test_sparse_products_equal_scipy_bit_for_bit(monkeypatch):
    """inst.B @ v, and inst.bdot(v) above the dense limit, give the bytes of
    scipy's CSR product for single rows and stacks of 0/1 vectors, vectors
    with one fractional coordinate and prolonged blocks of equal fractions,
    on unit and on non-unit integer weights, below and above the dense
    limit; the chains of calls that change a few coordinates at a time run
    the patched products."""
    patched = []
    row_products = cbp.CsrMatrix._row_products
    monkeypatch.setattr(cbp.CsrMatrix, "_row_products", lambda B, rows, v: patched.append(rows.size) or row_products(B, rows, v))
    rng = np.random.default_rng(67)
    for rows, cols in ((8, 12), (12, 20), (50, 50)):  # n = 96, 240 and 2500; _DENSE_LIMIT is 128
        base = grid_graph(rows, cols)
        g = Graph.from_edges(base.n, [(u, v, int(rng.integers(1, 6))) for u, v, _ in base.edges()])
        fine = instance_from_graph(base, 0, base.n, 0, base.n)
        weighted = instance_from_graph(g, 0, g.n, 0, g.n)
        mate = heavy_edge_matching(weighted.B, ascending_degree_order(weighted.B))
        coarse = contract(Level(weighted, None), mate)
        for inst in (fine, weighted, coarse.inst):
            n = inst.n
            binary = (rng.random(n) < 0.5).astype(np.float64)
            single = binary.copy()
            single[rng.integers(n)] = 1 / 3
            # a prolonged coarse point: equal fractions on every member of some aggregates
            vc = (rng.random(coarse.inst.n) < 0.5).astype(np.float64)
            vc[rng.integers(coarse.inst.n, size=3)] = 0.7
            vectors = [binary, single, vc[coarse.cmap] if n == g.n else vc]
            chain = vectors[-1].copy()
            for _ in range(8):  # a few coordinates change per call
                chain = chain.copy()
                chain[rng.integers(n, size=3)] = rng.choice([0.0, 1.0, 0.25])
                vectors.append(chain)
            for v in vectors:
                want = _scipy_product(inst.B, v).tobytes()
                assert (inst.B @ v).tobytes() == want
                if n > cbp._DENSE_LIMIT:
                    assert inst.bdot(v).tobytes() == want
            V = np.stack(vectors)
            want = _scipy_product(inst.B, V)
            assert (inst.B @ V.T).tobytes() == (want.T).tobytes()
            if n > cbp._DENSE_LIMIT:
                assert inst.bdot(V).tobytes() == want.tobytes()
    assert patched  # the product was patched from a recent one


def test_threads_sharing_an_instance_get_exact_products():
    """Threads calling bdot on one instance at once, with vectors a few
    coordinates apart so that each may patch another's recent product, get
    B @ v bit for bit."""
    rng = np.random.default_rng(73)
    inst = instance_from_graph(grid_graph(40, 40), 0, 1600, 0, 1600)
    assert inst._recent is not None  # the products are shared
    base = (rng.random(inst.n) < 0.5).astype(np.float64)
    chains = []
    for _ in range(4):
        v, chain = base, []
        for _ in range(40):
            v = v.copy()
            v[rng.integers(inst.n, size=3)] = rng.choice([0.0, 1.0, 0.25])
            chain.append(v)
        chains.append(chain)
    wanted = [[(inst.B @ v).tobytes() for v in chain] for chain in chains]
    start, wrong = threading.Barrier(len(chains)), []

    def run(chain, want):
        start.wait()
        try:
            for _ in range(5):
                wrong.extend(i for i, v in enumerate(chain) if inst.bdot(v).tobytes() != want[i])
                wrong.extend(i for i, w in enumerate(inst.bdot(np.stack(chain[:6]))) if w.tobytes() != want[i])
        except Exception as e:  # a broken slot list raises here
            wrong.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        threads = [threading.Thread(target=run, args=pair) for pair in zip(chains, wanted)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert not wrong


def test_bdot_stack_rows_equal_vector_products():
    rng = np.random.default_rng(59)
    for n in (1, 7, 48, 128, 129, 300):  # dense copy up to 128 vertices
        inst = _costed_instance(rng, n)
        V = rng.random((int(rng.integers(1, 9)), n))
        V[::2] = np.round(V[::2])
        V[::2, int(rng.integers(n))] = rng.random()  # binary but one fractional entry
        BV = inst.bdot(V)
        for row, v in zip(BV, V):
            assert row.tobytes() == inst.bdot(v.copy()).tobytes()


def test_refine_stack_rejects_bad_shapes():
    inst = p3_instance()
    with pytest.raises(DimensionMismatchError):
        refine(inst, Point(np.zeros((2, 3)), np.zeros((2, 4))), 1.0)
    with pytest.raises(DimensionMismatchError):
        refine(inst, Point(np.zeros((0, 3)), np.zeros((0, 3))), 1.0)


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


def test_round_several_fractional_moves_to_block_lp_optimum():
    g = Graph.from_edges(4, [], vertex_cost=[1, 2, 3, 4])
    inst = instance_from_graph(g, 2, 2, 0, 2)
    q = round_to_binary(inst, pt([0.5] * 4, [0] * 4))
    assert np.array_equal(q.x, [0, 0, 1, 1])  # the two costliest vertices
    assert np.array_equal(q.y, [0, 0, 0, 0])
    assert objective(inst, q, inst.gamma0) == 7.0


def _assert_round_contract(inst, p):
    f_in = objective(inst, p, inst.gamma0)
    q = round_to_binary(inst, p)
    assert set(np.unique(q.x)) <= {0.0, 1.0}
    assert set(np.unique(q.y)) <= {0.0, 1.0}
    assert feasible(inst, q)
    assert float(q.x @ inst.bdot(q.y)) <= EPS
    assert objective(inst, q, inst.gamma0) >= f_in - EPS


def test_round_contract_on_random_points():
    rng = np.random.default_rng(17)
    for trial in range(40):
        g = gnp(int(rng.integers(4, 40)), float(rng.choice([0.15, 0.4])), seed=300 + trial)
        inst = default_instance(g)
        _assert_round_contract(inst, random_fractional_point(inst, rng))

    # coarse levels have aggregate sizes; lower bounds of 0 let every point round
    params = SolveParams(la=0, lb=0, coarsest_size=8)
    for trial in range(20):
        g = gnp(int(rng.integers(20, 120)), float(rng.choice([0.03, 0.06, 0.12])), seed=400 + trial)
        for level in build_hierarchy(g, params).levels:
            for _ in range(3):
                _assert_round_contract(level.inst, random_fractional_point(level.inst, rng))


def test_round_raises_when_neither_direction_finishes():
    # x_1 = 0.5 of size 2 sits on s.x = ua = 1; no partner can take or give its mass
    inst = CbpInstance(2, sp.eye_array(2, format="csr"), np.ones(2), np.array([3.0, 2.0]), 1, 1, 0, 5)
    with pytest.raises(DegenerateRepairError, match="no move can finish coordinate 1"):
        round_to_binary(inst, pt([0, 0.5], [0, 0]))


def test_round_keeps_a_real_fraction_of_a_huge_vertex():
    # x_1 = 1e-12 of size 1e12 carries one unit of s.x = la; snapping it to 0
    # would leave s.x = 1e12 < la
    s = np.array([10**12, 10**12, 1], dtype=float)
    inst = CbpInstance(3, sp.eye_array(3, format="csr"), np.ones(3), s, 10**12 + 1, 2 * 10**12, 0, 1)
    x = solve_block_lp([-1, -2, -3], s, inst.la, inst.ua)
    assert x[0] == 1 and 0 < x[1] < 1e-9 and x[2] == 0
    q = round_to_binary(inst, pt(x, [0, 0, 0]))
    assert set(np.unique(q.x)) <= {0.0, 1.0}
    assert feasible(inst, q)


def test_round_rejects_an_infeasible_point():
    with pytest.raises(ValueError, match="requires a feasible point"):
        round_to_binary(p3_instance(), pt([1, 1, 0], [0, 0, 1]))  # s.x = 2 > ua


def _defractionalize_ref(v, grad, s, l, u):
    """The two-branch rounding of a block that the one walk replaced, kept
    verbatim as the bit-for-bit reference."""
    frac = np.flatnonzero((v > 0.0) & (v < 1.0))
    if frac.size >= 2:
        v[:] = solve_block_lp(grad, s, l, u)
        frac = np.flatnonzero((v > 0.0) & (v < 1.0))
    if not frac.size:
        return
    i = frac[0]
    preferred = 1 if grad[i] > 0 else 0  # ties go toward 0
    if not _finish_single_ref(v, grad, s, l, u, i, preferred):
        if not _finish_single_ref(v, grad, s, l, u, i, 1 - preferred):
            raise DegenerateRepairError(f"no move can finish coordinate {i}")


def _finish_single_ref(v, grad, s, l, u, i, toward):
    sv = float(s @ v)
    if toward == 1:
        room = max((u - sv) / s[i], 0.0)
        if 1.0 - v[i] <= room:
            v[i] = 1.0
            return True
        v[i] += room  # now pinned at s.v = u
    else:
        room = max((sv - l) / s[i], 0.0)
        if v[i] <= room:
            v[i] = 0.0
            return True
        v[i] -= room  # now pinned at s.v = l

    while True:
        mass = (1.0 - v[i]) * s[i] if toward == 1 else v[i] * s[i]
        if mass <= EPS:
            v[i] = float(toward)
            return True
        if toward == 1:
            candidates = np.flatnonzero(v == 1.0)  # partners yield size to v_i
            scores = grad[i] * s - s[i] * grad
        else:
            candidates = np.flatnonzero(v == 0.0)  # partners take size from v_i
            scores = s[i] * grad - grad[i] * s
        candidates = candidates[candidates != i]
        if candidates.size == 0:
            return False

        exact = candidates[np.abs(s[candidates] - mass) <= EPS]
        if exact.size:
            k = int(exact[np.argmax(scores[exact])])
            v[i] = float(toward)
            v[k] = 1.0 - float(toward)
            return True
        saturating = candidates[s[candidates] < mass]
        if not saturating.size:
            return False
        k = int(saturating[np.argmax(scores[saturating])])
        v[k] = 1.0 - float(toward)
        v[i] += s[k] / s[i] if toward == 1 else -s[k] / s[i]


def _rounded_block(defractionalize, v, grad, s, l, u):
    """The bytes of v after ``defractionalize`` and the message it raised, if any."""
    v = v.copy()
    try:
        defractionalize(v, grad, s, l, u)
    except DegenerateRepairError as exc:
        return v.tobytes(), str(exc)
    return v.tobytes(), None


def test_defractionalize_matches_reference_bit_for_bit():
    rng = np.random.default_rng(2024)
    outcomes = {"finished": 0, "raised": 0}
    for trial in range(10_000):
        n = int(rng.integers(2, 10))
        s = rng.uniform(1, 4, n) if trial % 3 == 2 else rng.integers(1, 6, n).astype(float)
        v = rng.integers(0, 2, n).astype(float)
        v[rng.integers(n)] = rng.random()
        sv = float(s @ v)
        l = max(0, math.floor(sv) - int(rng.integers(0, 3)))
        u = math.ceil(sv) + int(rng.integers(0, 3))
        grad = rng.integers(-3, 4, n).astype(float) if rng.random() < 0.5 else rng.normal(size=n)
        got = _rounded_block(_defractionalize, v, grad, s, l, u)
        assert got == _rounded_block(_defractionalize_ref, v, grad, s, l, u)
        outcomes["raised" if got[1] else "finished"] += 1
    assert min(outcomes.values()) >= 100  # both outcomes are exercised


def test_finish_keeps_a_failed_try():
    s, grad = np.array([3.0, 1, 1]), np.array([5.0, 4, -1])
    v = np.array([1 / 3, 1, 0])
    _defractionalize(v, grad, s, 0, 2)
    # the try toward 1 flips partner 1 to 0 and leaves v_0 = 2/3; the try
    # toward 0 starts from there, with s.v = 2 still
    assert np.array_equal(v, [0, 0, 0])
    restored = np.array([1 / 3, 1, 0])
    assert _finish_single(restored, grad, s, 0, 2, 0, 0)
    assert np.array_equal(restored, [0, 1, 0])  # what restoring v first would give


# ---------------------------------------------------------- extract_partition


def test_extract_p3():
    inst = p3_instance()
    part = extract_partition(inst, pt([1, 0, 0], [0, 0, 1]))
    assert part.a == (0,)
    assert part.b == (2,)
    assert part.s == (1,)
    assert part.separator_weight == 1
    # {1} really does separate P3 under these bounds
    ref = brute_force_vsp(instance_from_graph(path_graph(3), 1, 1, 1, 1))
    assert ref.separator_weight == 1 and ref.s == (1,)


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


def test_extract_rejects_a_point_outside_the_sum_bounds():
    with pytest.raises(ValueError, match="point violates the sum bounds"):
        extract_partition(p3_instance(), pt([1, 0, 0], [0, 0, 0]))  # s.y = 0 < lb


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
        ref = brute_force_vsp(inst)
        if ref is not None:
            f_star = float(inst.c.sum()) - ref.separator_weight
            assert f_out <= f_star + EPS
    assert improved >= 1


# Four points of two isolated unit-cost vertices (gamma0 = 1), by objective:
# A = 0, B = 1, C = 2, D = 2.
_ESCAPE_POINTS = {
    "A": ([0, 0], [0, 0]),
    "B": ([1, 0], [0, 0]),
    "C": ([1, 0], [0, 1]),
    "D": ([0, 1], [1, 0]),
}


_SCRIPT_INSTANCE = instance_from_graph(Graph.from_edges(2, []), 0, 2, 0, 2)
_SCRIPT_POINTS = {name: (np.array(x, float), np.array(y, float)) for name, (x, y) in _ESCAPE_POINTS.items()}
_SCRIPT_NAMES = {x.tobytes() + y.tobytes(): name for name, (x, y) in _SCRIPT_POINTS.items()}


def _scripted(monkeypatch, script, cells=None):
    """Patch refine with one that maps (input point, 3 * gamma) to an output
    point by ``script``, for gamma_steps = 3, and return its log: the name of
    each row refined at gamma0 and, as ("probe", name), of each probe row.
    ``cells`` replaces the probe budget: 4 probes one row two steps ahead, 1
    one step."""
    log = []

    def scripted_refine(inst, p, gamma):
        xs, ys = np.atleast_2d(p.x), np.atleast_2d(p.y)
        out = []
        for x, y, g in zip(xs, ys, np.broadcast_to(gamma, (len(xs),)).tolist()):
            name = _SCRIPT_NAMES[x.tobytes() + y.tobytes()]
            log.append(name if g == inst.gamma0 else ("probe", name))
            out.append(_SCRIPT_POINTS[script[name, round(g * 3)]])
        return cbp._shaped_like(p, np.array([x for x, _ in out]), np.array([y for _, y in out]))

    monkeypatch.setattr("vsep.cbp.refine", scripted_refine)
    if cells is not None:
        monkeypatch.setattr("vsep.cbp._PROBE_CELLS", cells)
    return log


def _scripted_escape(monkeypatch, starts, script, cells=None):
    """Run escape with gamma_steps = 3 under ``_scripted``; return the final
    point names and the rows refined at gamma0."""
    log = _scripted(monkeypatch, script, cells)
    out = escape(_SCRIPT_INSTANCE, _stack([Point(*_SCRIPT_POINTS[name]) for name in starts]), gamma_steps=3)
    finals = [_SCRIPT_NAMES[x.tobytes() + y.tobytes()] for x, y in zip(out.x, out.y)]
    return finals, [entry for entry in log if isinstance(entry, str)]


# script keys: (input point, 3 * gamma); gamma0 = 1 is key 3
_LOSS_THEN_HOME = {  # a non-home probe loses, a home probe's re-refine wins, a later win is dropped
    ("A", 2): "B", ("B", 3): "A", ("A", 1): "A", ("A", 3): "C", ("A", 0): "D", ("D", 3): "D",
    ("C", 2): "C", ("C", 3): "C", ("C", 1): "C", ("C", 0): "C",
}
_HOME_THEN_ACCEPT = {  # a home probe loses, a later one wins, then home again
    ("A", 2): "A", ("A", 3): "A", ("A", 1): "D", ("A", 0): "A", ("D", 3): "B",
    ("B", 2): "B", ("B", 3): "C", ("B", 1): "B", ("B", 0): "B",
    ("C", 2): "C", ("C", 3): "C", ("C", 1): "C", ("C", 0): "C",
}


# (starts, script, probe budget, final points, rows refined at gamma0)
_SCRIPTED_RUNS = [
    # all three steps in one round: each distinct probe point is re-refined
    # once, and D, which also wins, comes after the first win and is dropped
    (["A"], _LOSS_THEN_HOME, None, ["C"], ["B", "A", "D", "C"]),
    # A's home probe loses in the round in which D wins; its second home
    # probe shares the first one's re-refine
    (["A"], _HOME_THEN_ACCEPT, None, ["C"], ["A", "D", "B", "C"]),
    # rows keep their own steps and objectives, and share re-refines; A's
    # walk ends at C, which row C's probes re-refined and which cannot beat
    # 2, so it is not re-refined again
    (["A", "C"], _HOME_THEN_ACCEPT, None, ["C", "C"], ["A", "D", "C", "B"]),
    (["A", "A"], _HOME_THEN_ACCEPT, None, ["C", "C"], ["A", "D", "B", "C"]),
    # two steps a round: C's home probe in the last round is known to lose
    (["A"], _LOSS_THEN_HOME, 4, ["C"], ["B", "A", "C"]),
    (["A"], _HOME_THEN_ACCEPT, 4, ["C"], ["A", "D", "B", "C"]),
    # one step a round, the point-by-point walk: a probe point is
    # re-refined once in the call, not once per round
    (["A"], _LOSS_THEN_HOME, 1, ["C"], ["B", "A", "C"]),
    (["A"], _HOME_THEN_ACCEPT, 1, ["C"], ["A", "D", "B", "C"]),
    (["A", "C"], _HOME_THEN_ACCEPT, 1, ["C", "C"], ["A", "C", "D", "B"]),
    (["A", "A"], _HOME_THEN_ACCEPT, 1, ["C", "C"], ["A", "D", "B", "C"]),
]


def test_escape_re_refines_each_distinct_probe_point_once(monkeypatch):
    # a call re-refines each distinct probe point once, unless a later probe
    # of it could win for its row
    for starts, script, cells, finals, at_gamma0 in _SCRIPTED_RUNS:
        with monkeypatch.context() as patch:
            assert _scripted_escape(patch, starts, script, cells) == (finals, at_gamma0), (starts, cells)


_TWO_ACCEPT_C = {  # A wins C through probe D, B through its home probe B
    ("A", 2): "D", ("A", 1): "A", ("A", 0): "A", ("A", 3): "A", ("D", 3): "C",
    ("B", 2): "B", ("B", 1): "B", ("B", 0): "B", ("B", 3): "C",
    ("C", 2): "C", ("C", 1): "C", ("C", 0): "C", ("C", 3): "C",
}
_KNOWN_LOSER = {  # B is probed twice and loses; D wins and then probes itself
    ("A", 2): "B", ("A", 1): "B", ("A", 0): "D", ("B", 3): "A",
    ("D", 2): "D", ("D", 1): "D", ("D", 0): "D", ("D", 3): "D",
}
_KNOWN_WINS_LOWER = {  # A re-refines to D: no gain for C (2), a win for B (1)
    ("C", 2): "A", ("C", 1): "C", ("C", 0): "C", ("C", 3): "C", ("A", 3): "D",
    ("B", 2): "B", ("B", 1): "A", ("B", 3): "B",
    ("D", 2): "D", ("D", 1): "D", ("D", 0): "D", ("D", 3): "D",
}

# (starts, script, probe budget, log of refined rows: names at gamma0, ("probe", name) for probes)
_MERGE_AND_MEMO_RUNS = [
    # duplicate starts walk as one row: 9 probe rows, not 18
    (["A", "A"], _HOME_THEN_ACCEPT, None, [
        *[("probe", "A")] * 3, "A", "D", *[("probe", "B")] * 3, "B", *[("probe", "C")] * 3, "C",
    ]),
    # A and B accept C in the same round, through different probe points,
    # and walk on as one row
    (["A", "B"], _TWO_ACCEPT_C, None, [
        *[("probe", "A")] * 3, *[("probe", "B")] * 3, "D", "A", "B", *[("probe", "C")] * 3, "C",
    ]),
    # the second probe of B and every home probe of D are known to lose
    (["A"], _KNOWN_LOSER, 1, [
        ("probe", "A"), "B", ("probe", "A"), ("probe", "A"), "D", ("probe", "D"), ("probe", "D"), ("probe", "D"),
    ]),
    # A, re-refined for C in round 1, is re-refined again for B in round 2,
    # where it wins; C's last home probe is known to lose
    (["C", "B"], _KNOWN_WINS_LOWER, 1, [
        ("probe", "C"), ("probe", "B"), "A", "B", ("probe", "C"), ("probe", "B"), "C", "A",
        ("probe", "C"), ("probe", "D"), "D", ("probe", "D"), ("probe", "D"),
    ]),
]


def test_escape_merged_rows_and_known_points_match_point_loop(monkeypatch):
    for starts, script, cells, expected_log in _MERGE_AND_MEMO_RUNS:
        with monkeypatch.context() as patch:
            log = _scripted(patch, script, cells)
            stats: dict = {}
            p = _stack([Point(*_SCRIPT_POINTS[name]) for name in starts])
            out = escape(_SCRIPT_INSTANCE, p, gamma_steps=3, stats=stats)
            walked = list(log)
            ref = [_escape_loop(_SCRIPT_INSTANCE, Point(x, y), 3) for x, y in zip(p.x, p.y)]
        assert out.x.tobytes() == np.stack([q.x for q, _ in ref]).tobytes(), starts
        assert out.y.tobytes() == np.stack([q.y for q, _ in ref]).tobytes(), starts
        assert stats["escapes"] == sum(e for _, e in ref), starts
        assert walked == expected_log, starts
        assert stats["probes"] == sum(isinstance(entry, tuple) for entry in walked)


def test_escape_stats_and_determinism():
    inst = default_instance(gnp(15, 0.3, seed=77))
    p = refine(inst, random_fractional_point(inst, np.random.default_rng(1)), inst.gamma0)
    stats: dict = {}
    out1 = escape(inst, p, stats=stats)
    out2 = escape(inst, p)
    assert np.array_equal(out1.x, out2.x) and np.array_equal(out1.y, out2.y)
    assert stats["escapes"] == _escape_loop(inst, p)[1]


# --------------------------------------------------------------- infeasible K4


def test_k4_has_no_partition_under_tight_bounds():
    assert brute_force_vsp(instance_from_graph(complete_graph(4), 1, 2, 1, 2)) is None
