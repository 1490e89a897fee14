import json
import time

import pytest

from vsep.cli import _params, build_parser, main
from vsep.multilevel import SolveParams

P5_METIS = "5 4\n2\n1 3\n2 4\n3 5\n4\n"
K4_METIS = "4 6\n2 3 4\n1 3 4\n1 2 4\n1 2 3\n"
P5_MTX = (
    "%%MatrixMarket matrix coordinate pattern symmetric\n"
    "5 5 4\n2 1\n3 2\n4 3\n5 4\n"
)


def write(tmp_path, name, text):
    f = tmp_path / name
    f.write_text(text)
    return f


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------- solve


def test_solve_plain_p5(tmp_path, capsys):
    f = write(tmp_path, "p5.graph", P5_METIS)
    code, out, _ = run(capsys, "solve", str(f))
    assert code == 0
    assert "separator_weight: 1" in out
    assert "separator: 3" in out


@pytest.mark.parametrize(
    "flags, lines",
    [
        ((), ["trace level 0: n=5 objective_before=None objective_after=4.0 escapes=11 separator_weight=1"]),
        (
            ("--coarsest-size", "3"),
            [
                "trace level 1: n=3 objective_before=None objective_after=4.0 escapes=0 separator_weight=1",
                "trace level 0: n=5 objective_before=4.0 objective_after=4.0 escapes=0 separator_weight=1",
            ],
        ),
    ],
    ids=["one-level", "two-level"],
)
def test_solve_plain_trace_lines(tmp_path, capsys, flags, lines):
    f = write(tmp_path, "p5.graph", P5_METIS)
    code, out, _ = run(capsys, "solve", str(f), *flags)
    assert code == 0
    assert [ln for ln in out.splitlines() if ln.startswith("trace")] == lines


def test_solve_defaults_are_solve_params():
    assert _params(build_parser().parse_args(["solve", "g.graph"])) == SolveParams()


def test_solve_json_fields(tmp_path, capsys):
    f = write(tmp_path, "p5.mtx", P5_MTX)
    code, out, _ = run(capsys, "solve", str(f), "--output", "json")
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 5
    assert report["m"] == 4
    assert report["separator_weight"] == 1
    assert report["separator"] == [3]
    assert report["size_a"] + report["size_b"] + report["size_s"] == 5
    assert report["params"]["seed"] == 0
    assert "wall_time_sec" in report


def test_solve_json_round_trips(tmp_path, capsys):
    f = write(tmp_path, "p5.graph", P5_METIS)
    _, out, _ = run(capsys, "solve", str(f), "--output", "json")
    report = json.loads(out)
    assert json.loads(json.dumps(report)) == report


def test_solve_deterministic_reports(tmp_path, capsys):
    f = write(tmp_path, "p5.graph", P5_METIS)
    outputs = []
    for _ in range(2):
        _, out, _ = run(capsys, "solve", str(f), "--output", "json", "--seed", "7")
        report = json.loads(out)
        report.pop("wall_time_sec")
        outputs.append(json.dumps(report, sort_keys=False))
    assert outputs[0] == outputs[1]


def test_solve_parse_error_exit_2(tmp_path, capsys):
    f = write(tmp_path, "bad.graph", "this is not a graph\n")
    code, _, err = run(capsys, "solve", str(f))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_entry_outside_declared_size_exit_2(tmp_path, capsys, command):
    f = write(tmp_path, "bad.mtx", "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n5 1\n")
    code, _, err = run(capsys, command, str(f))
    assert code == 2
    assert err == "error: entry (5, 1) out of bounds for declared size 3\n"


@pytest.mark.parametrize(
    "name, text, error",
    [
        ("huge.graph", "1000000000000 0\n", "bad header: '1000000000000 0'"),
        (
            "huge.mtx",
            "%%MatrixMarket matrix coordinate pattern symmetric\n1000000000000 1000000000000 0\n",
            "bad size line: '1000000000000 1000000000000 0' declares more vertices than can be allocated",
        ),
    ],
    ids=["metis", "mtx"],
)
def test_solve_header_beyond_memory_exit_2(tmp_path, capsys, name, text, error):
    code, _, err = run(capsys, "solve", str(write(tmp_path, name, text)))
    assert code == 2
    assert err == f"error: {error}\n"


def test_solve_non_utf8_file_exit_2(tmp_path, capsys):
    f = tmp_path / "bad.graph"
    f.write_bytes(b"2 1\n2\n1 \xff\n")
    code, _, err = run(capsys, "solve", str(f))
    assert code == 2
    assert err.startswith("error: line 3 is not UTF-8")


def test_solve_missing_file_exit_2(tmp_path, capsys):
    code, _, _ = run(capsys, "solve", str(tmp_path / "nope.graph"))
    assert code == 2


def test_solve_infeasible_exit_3(tmp_path, capsys):
    f = write(tmp_path, "k4.graph", K4_METIS)
    code, _, err = run(capsys, "solve", str(f))
    assert code == 3


def test_solve_feasible_after_infeasible_coarsening_exit_0(tmp_path, capsys):
    # P5 coarsens to two adjacent aggregates, which no separator splits; the
    # oracle answers on the graph itself
    f = write(tmp_path, "p5.graph", P5_METIS)
    code, out, err = run(capsys, "solve", str(f), "--coarsest-size", "2")
    assert (code, err) == (0, "")
    assert "separator: 3\n" in out and "separator_weight: 1\n" in out
    assert [ln for ln in out.splitlines() if ln.startswith("trace")] == [
        "trace level 0: n=5 objective_before=None objective_after=4.0 escapes=0 separator_weight=1"
    ]


def test_solve_contradictory_bounds_exit_3(tmp_path, capsys):
    f = write(tmp_path, "p5.graph", P5_METIS)
    code, _, _ = run(capsys, "solve", str(f), "--ub-frac", "0.1")
    assert code == 3


def _sized_p5(size):
    """P5 in METIS fmt 100 (a size before each neighbour list), every vertex of ``size``."""
    rows = [" ".join([str(size)] + [str(j + 1) for j in (i - 1, i + 1) if 0 <= j < 5]) for i in range(5)]
    return "5 4 100\n" + "\n".join(rows) + "\n"


def test_solve_bounds_from_total_vertex_size(tmp_path, capsys):
    # total size 15: ua = floor(0.503 * 15) = 7 holds two vertices of size 3 a side
    f = write(tmp_path, "p5.graph", _sized_p5(3))
    code, out, err = run(capsys, "solve", str(f))
    assert (code, err) == (0, "")
    assert "separator: 3\n" in out and "separator_size: 1\n" in out
    assert "size_a: 6\n" in out and "size_b: 6\n" in out and "size_s: 3\n" in out


def test_solve_huge_sizes_fast(tmp_path, capsys):
    # sizes 10^12: the subset-sum proof runs on the sizes divided by their gcd
    f = write(tmp_path, "p5.graph", _sized_p5(10**12))
    start = time.perf_counter()
    code, out, err = run(capsys, "solve", str(f))
    assert time.perf_counter() - start < 0.5
    assert (code, err) == (0, "")
    assert "separator: 3\n" in out and "separator_weight: 1\n" in out


def test_solve_zero_cost_path_exit_0(tmp_path, capsys):
    # P20 with every vertex weight 0 (fmt 10: a cost before each neighbour list)
    rows = [" ".join(["0"] + [str(j + 1) for j in (i - 1, i + 1) if 0 <= j < 20]) for i in range(20)]
    f = write(tmp_path, "p20.graph", "20 19 10\n" + "\n".join(rows) + "\n")
    code, out, err = run(capsys, "solve", str(f))
    assert (code, err) == (0, "")
    assert "separator_weight: 0" in out


def test_solve_negative_seed_exit_2(tmp_path, capsys):
    f = write(tmp_path, "p5.graph", P5_METIS)
    code, out, err = run(capsys, "solve", str(f), "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "seed" in err


def test_solve_format_override(tmp_path, capsys):
    f = write(tmp_path, "p5.txt", P5_METIS)
    code, out, _ = run(capsys, "solve", str(f), "--format", "metis")
    assert code == 0
    code, _, _ = run(capsys, "solve", str(f))
    assert code == 2  # unknown extension without --format


def test_solve_internal_validation_exit_4(tmp_path, capsys, monkeypatch):
    # a solver regression that emits a bogus partition must be caught pre-emission
    from vsep.cbp import Partition
    import vsep.cli as cli

    f = write(tmp_path, "p5.graph", P5_METIS)
    for bogus, problem in (
        (Partition(a=(0, 1, 2), b=(3, 4), s=(), separator_weight=0), "edge between a and b: (2, 3)"),
        (Partition(a=(0, 1), b=(3, 4), s=(), separator_weight=0), "vertex in no set: 2"),
    ):
        monkeypatch.setattr(cli, "solve", lambda g, params: (bogus, []))
        code, _, err = run(capsys, "solve", str(f))
        assert code == 4
        assert "validation" in err and problem in err


# -------------------------------------------------------------------- oracle


def test_oracle_p5(tmp_path, capsys):
    f = write(tmp_path, "p5.graph", P5_METIS)
    code, out, _ = run(capsys, "oracle", str(f))
    assert code == 0
    assert "optimal_weight: 1" in out


def test_oracle_infeasible(tmp_path, capsys):
    f = write(tmp_path, "k4.graph", K4_METIS)
    code, out, _ = run(capsys, "oracle", str(f))
    assert code == 0
    assert "infeasible" in out


def test_oracle_too_large_exit_5(tmp_path, capsys):
    entries = "\n".join(f"{i} {i + 1}" for i in range(1, 18))
    f = write(
        tmp_path,
        "big.mtx",
        f"%%MatrixMarket matrix coordinate pattern general\n18 18 17\n{entries}\n",
    )
    code, _, _ = run(capsys, "oracle", str(f))
    assert code == 5


@pytest.mark.parametrize("command", ["solve", "oracle"])
@pytest.mark.parametrize(
    "flags", [("--ub-frac", "0"), ("--ub-frac", "1.5"), ("--lb", "-1")], ids=["ub0", "ub1.5", "lb-1"]
)
def test_bad_bound_flags_exit_2(tmp_path, capsys, command, flags):
    f = write(tmp_path, "p5.graph", P5_METIS)
    code, out, err = run(capsys, command, str(f), *flags)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_oracle_json(tmp_path, capsys):
    f = write(tmp_path, "p5.graph", P5_METIS)
    code, out, _ = run(capsys, "oracle", str(f), "--output", "json")
    report = json.loads(out)
    assert report["feasible"] is True
    assert report["optimal_weight"] == 1
    assert report["separator"] == [3]


# --------------------------------------------------------------------- bench


def test_bench_empty_manifest(tmp_path, capsys):
    f = write(tmp_path, "empty.txt", "# nothing here\n")
    code, out, _ = run(capsys, "bench", str(f))
    assert code == 0
    assert "problem" in out  # header only


def test_bench_runs_row(tmp_path, capsys):
    write(tmp_path, "p5.graph", P5_METIS)
    manifest = write(tmp_path, "m.txt", "p5 p5.graph 5 1 1.5\n")
    code, out, _ = run(capsys, "bench", str(manifest))
    assert code == 0
    row = [ln for ln in out.splitlines() if ln.startswith("p5")][0]
    assert " ok" in row


def test_bench_threshold_failure(tmp_path, capsys):
    write(tmp_path, "p5.graph", P5_METIS)
    manifest = write(tmp_path, "m.txt", "p5 p5.graph 5 1 0.5\n")
    code, out, _ = run(capsys, "bench", str(manifest))
    assert code == 1
    assert "ABOVE-THRESHOLD" in out


def test_bench_zero_reference_met_by_zero_separator(tmp_path, capsys):
    write(tmp_path, "e4.graph", "4 0\n\n\n\n\n")
    write(tmp_path, "p5.graph", P5_METIS)
    manifest = write(tmp_path, "m.txt", "e4 e4.graph 4 0 1.5\n")
    code, out, _ = run(capsys, "bench", str(manifest))
    assert code == 0
    fields = [ln for ln in out.splitlines() if ln.startswith("e4")][0].split()
    assert fields[3:6] == ["0", "0", "1.00"]  # |S|, ref, ratio
    assert fields[-1] == "ok"

    manifest = write(tmp_path, "m.txt", "p5 p5.graph 5 0 1.5\n")  # weight 1 against 0
    code, out, _ = run(capsys, "bench", str(manifest))
    assert code == 1
    row = [ln for ln in out.splitlines() if ln.startswith("p5")][0]
    assert " inf " in row and "ABOVE-THRESHOLD" in row


def test_bench_infeasible_row_does_not_end_the_table(tmp_path, capsys):
    write(tmp_path, "k4.graph", K4_METIS)
    write(tmp_path, "p5.graph", P5_METIS)
    manifest = write(tmp_path, "m.txt", "k4 k4.graph 4 1 1.5\np5 p5.graph 5 1 1.5\n")
    code, out, err = run(capsys, "bench", str(manifest))
    assert code == 1
    assert err == ""
    rows = {ln.split()[0]: ln.split() for ln in out.splitlines()[1:]}
    assert rows["k4"][1:4] == ["4", "1.0000", "1"]  # n, sparsity, ref; no |S| or ratio
    assert rows["k4"][-1] == "INFEASIBLE"
    assert rows["p5"][-1] == "ok"


def test_bench_unreadable_row_does_not_end_the_table(tmp_path, capsys):
    write(tmp_path, "bad.graph", "this is not a graph\n")
    write(tmp_path, "p5.graph", P5_METIS)
    manifest = write(tmp_path, "m.txt", "bad bad.graph 5 1 1.5\np5 p5.graph 5 1 1.5\n")
    code, out, err = run(capsys, "bench", str(manifest))
    assert code == 2
    rows = {ln.split()[0]: ln.split() for ln in out.splitlines()[1:]}
    assert rows["bad"][1:] == ["1", "UNREADABLE"]  # only the reference is known
    assert rows["p5"][-1] == "ok"
    assert "unreadable benchmark graphs:" in err and "bad.graph" in err


def test_bench_non_utf8_row_does_not_end_the_table(tmp_path, capsys):
    (tmp_path / "bad.graph").write_bytes(b"\xff")
    write(tmp_path, "ok.graph", P5_METIS)
    manifest = write(tmp_path, "m.txt", "bad bad.graph 5 1 1.5\nok ok.graph 5 1 1.5\n")
    code, out, err = run(capsys, "bench", str(manifest))
    assert code == 2
    rows = {ln.split()[0]: ln.split() for ln in out.splitlines()[1:]}
    assert rows["bad"][1:] == ["1", "UNREADABLE"]
    assert rows["ok"][-1] == "ok"
    assert "bad.graph: line 1 is not UTF-8" in err


def test_bench_dimension_mismatch_is_invalid(tmp_path, capsys):
    write(tmp_path, "p5.graph", P5_METIS)
    manifest = write(tmp_path, "m.txt", "p5 p5.graph 99 1 1.5\n")
    code, out, _ = run(capsys, "bench", str(manifest))
    assert code == 1
    assert "INVALID" in out


def test_bench_short_manifest_line_exit_2(tmp_path, capsys):
    write(tmp_path, "p5.graph", P5_METIS)
    manifest = write(tmp_path, "m.txt", "p5 p5.graph 5 1\n")
    code, _, err = run(capsys, "bench", str(manifest))
    assert code == 2
    assert "bad manifest line" in err


def test_bench_missing_file_exit_2(tmp_path, capsys):
    write(tmp_path, "p5.graph", P5_METIS)
    manifest = write(tmp_path, "m.txt", "p5 p5.graph 5 1 1.5\nghost ghost.graph 9 1 1.5\n")
    code, out, err = run(capsys, "bench", str(manifest))
    assert code == 2
    assert "ghost" in err
    assert any(ln.startswith("p5") for ln in out.splitlines())  # others still ran
