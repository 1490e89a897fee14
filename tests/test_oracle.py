import itertools

import numpy as np
import pytest

from conftest import complete_graph, empty_graph, gnp, path_graph
from vsep.cbp import InfeasibleBoundsError, instance_from_graph, partition_violations, solve_block_lp
from vsep.graphs import Graph
from vsep.multilevel import SolveParams
from vsep.oracle import TooLargeError, brute_force_lp, brute_force_vsp

EPS = 1e-9


# ------------------------------------------------------------ brute_force_vsp


def test_vsp_p5():
    best = brute_force_vsp(instance_from_graph(path_graph(5), 1, 2, 1, 2))
    assert best.separator_weight == 1
    assert best.s == (2,)
    assert best.a == (0, 1)  # lexicographically smallest optimum
    assert best.b == (3, 4)


def test_vsp_k4_infeasible():
    assert brute_force_vsp(instance_from_graph(complete_graph(4), 1, 2, 1, 2)) is None


def test_vsp_two_isolated():
    best = brute_force_vsp(instance_from_graph(empty_graph(2), 1, 1, 1, 1))
    assert best.separator_weight == 0
    assert best.s == ()


def test_vsp_too_large():
    with pytest.raises(TooLargeError):
        brute_force_vsp(instance_from_graph(empty_graph(17), 1, 8, 1, 8))


def test_vsp_respects_costs():
    # the only separator is vertex 1, so its cost is the optimum
    g = Graph.from_edges(3, [(0, 1), (1, 2)], vertex_cost=[1, 7, 1])
    assert brute_force_vsp(instance_from_graph(g, 1, 1, 1, 1)).separator_weight == 7


def test_vsp_witness_always_valid():
    rng = np.random.default_rng(12)
    for trial in range(40):
        n = int(rng.integers(2, 11))
        g = gnp(n, float(rng.choice([0.2, 0.5])), seed=900 + trial)
        la, ua, lb, ub = SolveParams().bounds(n)
        if ua < 1:
            continue
        best = brute_force_vsp(instance_from_graph(g, la, ua, lb, ub))
        if best is not None:
            assert partition_violations(g, best, la, ua, lb, ub) == []


def _vsp_loop(g, la, ua, lb, ub):
    """(weight, digits) of the first optimal assignment in itertools.product
    order (0 = a, 1 = b, 2 = separator), or None: one assignment at a time."""
    edges = [(u, v) for u, v, _ in g.edges()]
    best = None
    for digits in itertools.product(range(3), repeat=g.n):
        if any(digits[u] + digits[v] == 1 for u, v in edges):
            continue
        side = [sum(int(g.vertex_size[i]) for i in range(g.n) if digits[i] == k) for k in (0, 1)]
        if not (la <= side[0] <= ua and lb <= side[1] <= ub):
            continue
        w = sum(int(g.vertex_cost[i]) for i in range(g.n) if digits[i] == 2)
        if best is None or w < best[0]:
            best = (w, digits)
    return best


@pytest.mark.parametrize("low", [3, 11])
def test_vsp_matches_assignment_loop(monkeypatch, low):
    # a table of 3 low digits sends n = 4..8 through the per-prefix sums and
    # the prefix-prefix and prefix-table edge checks
    monkeypatch.setattr("vsep.oracle._LOW_DIGITS", low)
    rng = np.random.default_rng(41)
    feasible = 0
    for trial in range(80):
        n = int(rng.integers(0, 9))
        iu, ju = np.triu_indices(n, 1)
        keep = rng.random(iu.size) < float(rng.choice([0.2, 0.5]))
        size = rng.integers(1, 4, size=n)
        g = Graph.from_edges(n, np.column_stack((iu[keep], ju[keep])), rng.integers(0, 5, size=n), size)
        total = int(size.sum())
        la, lb = (int(rng.integers(0, total // 3 + 2)) for _ in range(2))
        ua, ub = (int(rng.integers(l, total // 2 + 2)) for l in (la, lb))
        if n == 0 and ub + ua > 0:
            # a program cannot hold bounds above its total size, here 0
            with pytest.raises(ValueError, match="bad bounds"):
                instance_from_graph(g, la, ua, lb, ub)
            continue
        best = brute_force_vsp(instance_from_graph(g, la, ua, lb, ub))
        ref = _vsp_loop(g, la, ua, lb, ub)
        if ref is None:
            assert best is None
            continue
        feasible += 1
        w, digits = ref
        assert best.separator_weight == w
        assert (best.a, best.b, best.s) == tuple(
            tuple(i for i in range(n) if digits[i] == k) for k in range(3)
        )
    assert feasible >= 40


# ------------------------------------------------------------- brute_force_lp


def test_lp_oracle_fractional_vertex():
    val, vec = brute_force_lp([5, 4], [2, 3], 0, 4)
    assert abs(val - 23 / 3) <= EPS
    assert np.allclose(vec, [1, 2 / 3])


def test_lp_oracle_binary_vertex():
    val, vec = brute_force_lp([3, 2, 1], [1, 1, 1], 1, 2)
    assert val == 5
    assert np.array_equal(vec, [1, 1, 0])


def test_lp_oracle_pinned_at_zero():
    val, vec = brute_force_lp([1, 1], [1, 1], 0, 0)
    assert val == 0
    assert np.array_equal(vec, [0, 0])


def test_lp_oracle_too_large():
    with pytest.raises(TooLargeError):
        brute_force_lp(np.ones(13), np.ones(13), 0, 4)


def test_lp_oracle_infeasible():
    with pytest.raises(InfeasibleBoundsError):
        brute_force_lp([1, 1], [1, 1], 5, 6)


def test_lp_oracle_agreement_sample():
    rng = np.random.default_rng(21)
    for _ in range(100):
        n = int(rng.integers(1, 13))
        s = rng.integers(1, 4, size=n).astype(float)
        g = np.round(rng.normal(size=n) * 3, 4)
        total = int(s.sum())
        l = int(rng.integers(0, total + 1))
        u = int(rng.integers(l, total + 1))
        val, vec = brute_force_lp(g, s, l, u)
        assert l - EPS <= float(s @ vec) <= u + EPS
        assert np.all(vec >= -EPS) and np.all(vec <= 1 + EPS)
        fast = solve_block_lp(g, s, l, u)
        assert abs(float(g @ fast) - val) <= EPS
