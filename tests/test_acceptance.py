"""Acceptance gate: one test per release criterion, each printing PASS on success.

Run with  pytest tests/test_acceptance.py -v -s  to see one line per criterion.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import brute_force_lp, empty_graph, gnp, path_graph, random_fractional_point
from vsep.cbp import (
    escape,
    feasible,
    instance_from_graph,
    objective,
    partition_violations,
    refine,
    round_to_binary,
    solve_block_lp,
)
from vsep.cli import main
from vsep.graphs import load_matrix_market
from vsep.multilevel import InfeasibleError, SolveParams, build_hierarchy, prolong, solve
from vsep.oracle import brute_force_vsp

EPS = 1e-9

from conftest import complete_graph, default_instance


def ok(name: str, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: PASS {detail}".rstrip())


def _oracle_differential(rng, n_range, seed0, trials):
    """Solve gnp graphs with n in n_range (half-open) and check each against
    the oracle: the same feasibility, a valid partition and a gap of at most
    2.  Returns (optimal, feasible) counts."""
    feasible_count = matched = 0
    for trial in range(trials):
        n = int(rng.integers(*n_range))
        p = float(rng.choice([0.2, 0.4, 0.6]))
        g = gnp(n, p, seed=seed0 + trial)
        bounds = SolveParams().bounds(n)
        ref = brute_force_vsp(instance_from_graph(g, *bounds))
        try:
            part, _ = solve(g)
        except InfeasibleError:
            assert ref is None
            continue
        assert ref is not None
        assert partition_violations(g, part, *bounds) == []
        assert ref.separator_weight <= part.separator_weight <= ref.separator_weight + 2
        feasible_count += 1
        matched += part.separator_weight == ref.separator_weight
    return matched, feasible_count


def test_c1_oracle_equivalence_small_instances():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    matched, feasible_count = _oracle_differential(rng, (4, 11), 20_000, 200)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    assert matched >= 0.8 * feasible_count
    ok("C1", f"({matched}/{feasible_count} optimal, {elapsed:.2f}s)")


def test_c1_holds_past_the_exhaustive_backstop():
    # solve_coarsest runs its exhaustive backstop for n <= 12, which makes
    # C1's graphs exact by construction; at n = 13-14 the multistart answers
    matched, feasible_count = _oracle_differential(np.random.default_rng(13), (13, 15), 21_000, 40)
    assert matched >= 0.8 * feasible_count
    ok("C1 past the backstop", f"({matched}/{feasible_count} optimal)")


def test_c2_lp_exactness():
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    for _ in range(500):
        n = int(rng.integers(1, 13))
        s = rng.integers(1, 4, size=n).astype(float)
        g = np.round(rng.normal(size=n) * 4, 4)
        total = int(s.sum())
        l = int(rng.integers(0, total + 1))
        u = int(rng.integers(l, total + 1))
        v = solve_block_lp(g, s, l, u)
        ref_val, _ = brute_force_lp(g, s, l, u)
        assert abs(float(g @ v) - ref_val) <= EPS
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    ok("C2", f"(500 instances, {elapsed:.2f}s)")


def test_c3_monotone_refine_escape_and_rounding():
    rng = np.random.default_rng(3)
    for trial in range(100):
        n = int(rng.integers(4, 51))
        g = gnp(n, float(rng.choice([0.1, 0.3])), seed=30_000 + trial)
        inst = default_instance(g)
        p = random_fractional_point(inst, rng)

        # refine checks every block step and raises MonotonicityError on a fall
        fixed = refine(inst, p, inst.gamma0)
        assert objective(inst, fixed, inst.gamma0) >= objective(inst, p, inst.gamma0) - EPS

        out = escape(inst, fixed)
        assert objective(inst, out, inst.gamma0) >= objective(inst, fixed, inst.gamma0) - EPS

        f_in = objective(inst, out, inst.gamma0)
        rounded = round_to_binary(inst, out)
        assert objective(inst, rounded, inst.gamma0) >= f_in - EPS
    ok("C3", "(100 instances, per-step at every governing gamma)")


def test_c4_rounding_contract():
    rng = np.random.default_rng(4)
    for trial in range(100):
        n = int(rng.integers(4, 51))
        g = gnp(n, float(rng.choice([0.1, 0.25, 0.5])), seed=40_000 + trial)
        inst = default_instance(g)
        p = random_fractional_point(inst, rng)
        q = round_to_binary(inst, p)
        assert set(np.unique(q.x)) <= {0.0, 1.0}
        assert set(np.unique(q.y)) <= {0.0, 1.0}
        assert feasible(inst, q)
        assert float(q.x @ inst.bdot(q.y)) <= EPS
    ok("C4", "(100 rounded points binary, feasible, orthogonal)")


def test_c5_projection_invariance():
    rng = np.random.default_rng(5)
    for trial in range(50):
        n = int(rng.integers(20, 201))
        g = gnp(n, float(rng.choice([0.02, 0.05, 0.1])), seed=50_000 + trial)
        hier = build_hierarchy(g, SolveParams(coarsest_size=8))
        for fine_lvl, coarse_lvl in zip(hier.levels, hier.levels[1:]):
            for _ in range(10):
                p = random_fractional_point(coarse_lvl.inst, rng)
                q = prolong(coarse_lvl, p)
                for gamma in (0.0, 1.0, coarse_lvl.inst.gamma0):
                    fc = objective(coarse_lvl.inst, p, gamma)
                    ff = objective(fine_lvl.inst, q, gamma)
                    assert abs(fc - ff) <= 1e-9 * max(1.0, abs(fc)), (trial, gamma)
    ok("C5", "(50 graphs, every level pair, gammas 0/1/gamma0)")


BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def _manifest_rows():
    """(name, path, expected_n, reference, threshold) per row of benchmarks/manifest.txt."""
    rows = []
    for ln in (BENCH_DIR / "manifest.txt").read_text(encoding="utf-8").splitlines():
        if ln.strip() and not ln.startswith("#"):
            name, path, expected_n, reference, threshold = ln.split()
            rows.append((name, BENCH_DIR / path, int(expected_n), int(reference), float(threshold)))
    return rows


def test_c6_benchmark_regression():
    rows = _manifest_rows()
    missing = [name for name, path, *_ in rows if not path.exists()]
    if missing:
        pytest.skip(
            "SKIPPED with notice: benchmark graphs not fetched "
            f"(missing {', '.join(missing)}); run scripts/fetch_benchmarks.py"
        )
    for name, path, expected_n, ref_weight, threshold in rows:
        g = load_matrix_market(path)
        assert g.n == expected_n
        start = time.perf_counter()
        part, _ = solve(g)
        elapsed = time.perf_counter() - start
        assert partition_violations(g, part, *SolveParams().bounds(g.n)) == []
        assert part.separator_weight <= threshold * ref_weight, (
            f"{name}: {part.separator_weight} > {threshold} * {ref_weight}"
        )
        assert elapsed < 60.0, f"{name} took {elapsed:.1f}s"
        print(f"  {name}: weight {part.separator_weight} (reference {ref_weight}), {elapsed:.1f}s")
    ok("C6", f"(all {len(rows)} manifest graphs valid, within their thresholds, under 60s)")


def test_c7_determinism_byte_identical_reports(tmp_path, capsys):
    f = tmp_path / "p5.graph"
    f.write_text("5 4\n2\n1 3\n2 4\n3 5\n4\n")
    reports = []
    for _ in range(2):
        code = main(["solve", str(f), "--output", "json", "--seed", "11"])
        assert code == 0
        raw = capsys.readouterr().out
        report = json.loads(raw)
        report.pop("wall_time_sec")
        reports.append(json.dumps(report).encode())
    assert reports[0] == reports[1]
    ok("C7", "(identical JSON bytes excluding wall time)")


def test_c8_known_value_end_to_end(tmp_path, capsys):
    part, _ = solve(path_graph(5))
    assert part.separator_weight == 1
    assert part.s == (2,)  # vertex 3 in file numbering

    k4 = tmp_path / "k4.graph"
    k4.write_text("4 6\n2 3 4\n1 3 4\n1 2 4\n1 2 3\n")
    code = main(["solve", str(k4)])
    capsys.readouterr()
    assert code == 3

    part, _ = solve(empty_graph(10))
    assert part.separator_weight == 0
    assert complete_graph(2).n == 2  # sanity of helper imports
    ok("C8", "(P5 weight 1 at S={3}, K4 infeasible exit, edgeless weight 0)")
