"""scripts/compare.py: the digest worker's lines and the pair summary."""

from __future__ import annotations

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from vsep import SolveParams

from test_cli import K4_METIS, P5_METIS

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "compare.py"


def _compare():
    spec = importlib.util.spec_from_file_location("compare", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_worker_prints_one_line_per_graph(tmp_path):
    (tmp_path / "moved").mkdir()
    paths = [tmp_path / "p5.graph", tmp_path / "k4.graph", tmp_path / "moved" / "other.graph"]
    for path, text in zip(paths, [P5_METIS, K4_METIS, P5_METIS]):
        path.write_text(text)
    cases = [(name, str(path), SolveParams.lb) for name, path in zip(["p5", "k4", "p5"], paths)]
    listing = tmp_path / "cases.json"
    listing.write_text(json.dumps(cases))
    proc = subprocess.run(
        [sys.executable, "-B", str(SCRIPT), "--worker", "digest", str(ROOT / "src"), str(listing)],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    assert len(lines) == 3
    for line, (name, code) in zip(lines, [("p5", 0), ("k4", 3), ("p5", 0)]):
        assert re.fullmatch(rf"{name} {code} [0-9a-f]{{64}} [0-9a-f]{{64}}", line)
    empty = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"  # sha256 of ""
    assert lines[0].endswith(empty) and not lines[1].endswith(empty)  # only the infeasible K4 writes stderr
    assert lines[2] == lines[0]  # the input path is not part of the digest


def test_digests_print_each_trees_line_count(tmp_path, monkeypatch, capsys):
    compare = _compare()
    trees = {"base": tmp_path / "base", "head": tmp_path / "head"}
    for tree, files in zip(trees.values(), [{"a.py": "1\n2\n3\n", "b.py": "4\n"}, {"a.py": "1\n2\n"}]):
        (tree / "src" / "vsep").mkdir(parents=True)
        for name, text in files.items():
            (tree / "src" / "vsep" / name).write_text(text)
    (trees["head"] / "src" / "vsep" / "notes.txt").write_text("not\ncounted\n")
    lines = {"base": "g 0 aa bb", "head": "g 0 aa bb"}
    monkeypatch.setattr(compare, "_run", lambda mode, tree, listing: lines[tree.name] + "\n")
    assert compare._digests(trees, tmp_path / "cases.json") == 0
    combined = compare._sha("g 0 aa bb")
    assert capsys.readouterr().out.splitlines() == [
        f"base: combined {combined}  src/vsep 4 lines",
        f"head: combined {combined}  src/vsep 2 lines",
        "outputs: equal",
    ]


def test_pair_summary_on_fixed_numbers():
    base = [1.0, 2.0, 3.0, 4.0]
    head = [0.5, 2.5, 2.0, 3.0]
    assert _compare().pair_summary(base, head) == [
        "head faster in 3 of 4 pairs",
        "base: median 2.5000 s  quartiles 1.7500 / 3.2500  IQR 1.5000",
        "head: median 2.2500 s  quartiles 1.6250 / 2.6250  IQR 1.0000",
        "median head - base -0.2500 s (-10.0%); base IQR 1.5000 s",
        "verdict: within noise",
    ]


_BASE10 = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]  # IQR 0.45


@pytest.mark.parametrize(
    "head, verdict",
    [
        ([b - 0.5 for b in _BASE10[:9]] + [2.0], "faster"),  # 9 of 10, shift -0.5
        ([b + 0.6 for b in _BASE10[:9]] + [1.8], "slower"),  # 9 of 10 the other way, shift +0.5
        ([b - 0.5 for b in _BASE10[:8]] + [1.9, 2.0], "within noise"),  # 8 of 10
        ([b - 0.4 for b in _BASE10[:9]] + [2.0], "within noise"),  # shift within the IQR
    ],
)
def test_pair_summary_verdict(head, verdict):
    assert _compare().pair_summary(_BASE10, head)[-1] == f"verdict: {verdict}"


def test_pairs_exit_1_when_partitions_differ(tmp_path, monkeypatch, capsys):
    compare = _compare()
    listing = tmp_path / "cases.json"
    listing.write_text(json.dumps([["g", "g.graph", 1]]))
    trees = {"base": tmp_path / "base", "head": tmp_path / "head"}

    def stub(digests):
        def run(mode, tree, listing):
            if mode == "trace":
                return json.dumps({"cbp.refine_calls": 7})
            return json.dumps({"solve_s": 1.0, "digest": digests[tree.name], "peak_rss_mb": 100.0})
        return run

    monkeypatch.setattr(compare, "_run", stub({"base": "same", "head": "same"}))
    assert compare._pairs(trees, listing, "nd-batch", 2) == 0
    assert "partitions: equal in every process" in capsys.readouterr().out
    monkeypatch.setattr(compare, "_run", stub({"base": "one", "head": "other"}))
    assert compare._pairs(trees, listing, "nd-batch", 2) == 1
    assert "partitions: DIFFER between trees or runs" in capsys.readouterr().out


def test_pairs_print_the_median_peak_rss(tmp_path, monkeypatch, capsys):
    compare = _compare()
    listing = tmp_path / "cases.json"
    listing.write_text(json.dumps([["g", "g.graph", 1]]))
    trees = {"base": tmp_path / "base", "head": tmp_path / "head"}
    peaks = {"base": iter([100.0, 300.0, 120.0]), "head": iter([90.0, 110.0, 400.0])}

    def run(mode, tree, listing):
        if mode == "trace":
            return json.dumps({"cbp.refine_calls": 7})
        return json.dumps({"solve_s": 1.0, "digest": "same", "peak_rss_mb": next(peaks[tree.name])})

    monkeypatch.setattr(compare, "_run", run)
    assert compare._pairs(trees, listing, "nd-batch", 3) == 0
    assert "peak RSS, median ru_maxrss of the timing processes: base 120.0 MB  head 110.0 MB  head/base 0.917" in (
        capsys.readouterr().out.splitlines()
    )


def test_time_worker_reports_its_peak_rss(tmp_path):
    path = tmp_path / "p5.graph"
    path.write_text(P5_METIS)
    listing = tmp_path / "cases.json"
    listing.write_text(json.dumps([["p5", str(path), SolveParams.lb]]))
    proc = subprocess.run(
        [sys.executable, "-B", str(SCRIPT), "--worker", "time", str(ROOT / "src"), str(listing)],
        capture_output=True, text=True, check=True,
    )
    out = json.loads(proc.stdout)
    assert set(out) == {"solve_s", "digest", "peak_rss_mb"}
    assert 10 < out["peak_rss_mb"] < 4096  # numpy and scipy alone take tens of MB


def test_trace_worker_counts_python_calls_that_repeat(tmp_path):
    # the 12x12 grid takes the multilevel path, P5 the oracle, and K4 fails
    paths = [tmp_path / "p5.graph", tmp_path / "k4.graph", ROOT / "tests" / "data" / "grid12.graph"]
    paths[0].write_text(P5_METIS)
    paths[1].write_text(K4_METIS)
    listing = tmp_path / "cases.json"
    listing.write_text(json.dumps([[path.stem, str(path), SolveParams.lb] for path in paths]))
    counts = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-B", str(SCRIPT), "--worker", "trace", str(ROOT / "src"), str(listing)],
            capture_output=True, text=True, check=True,
        )
        out = json.loads(proc.stdout)
        assert out["cbp.refine_calls"] > 0
        counts.append(out["python.calls_per_pass"])
    assert counts[0] == counts[1] > 0


def test_setup_pairs_print_their_verdict(tmp_path, monkeypatch, capsys):
    compare = _compare()
    listing = tmp_path / "cases.json"
    listing.write_text(json.dumps([["g", "g.graph", 1], ["h", "h.mtx", 1]]))
    trees = {"base": tmp_path / "base", "head": tmp_path / "head"}
    # the first call per tree fills the bytecode cache and is not counted
    times = {"base": iter([9.0, 1.0, 1.1, 1.2]), "head": iter([9.0, 0.5, 0.6, 0.7])}
    monkeypatch.setattr(compare, "_setup", lambda tree, listing: next(times[tree.name]))
    compare._setup_pairs(trees, listing, 3)
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == [
        "set-up: a fresh interpreter imports vsep and loads the 2 files",
        "pair  1 (base first)  base 1.0000 s  head 0.5000 s  head/base 0.500",
        "pair  2 (head first)  base 1.1000 s  head 0.6000 s  head/base 0.545",
        "pair  3 (base first)  base 1.2000 s  head 0.7000 s  head/base 0.583",
    ]
    assert out[4:] == compare.pair_summary([1.0, 1.1, 1.2], [0.5, 0.6, 0.7])
    assert out[-1] == "verdict: faster"


def test_setup_times_a_fresh_interpreter(tmp_path, monkeypatch):
    (tmp_path / "p5.graph").write_text(P5_METIS)
    listing = tmp_path / "cases.json"
    listing.write_text(json.dumps([["p5", str(tmp_path / "p5.graph"), SolveParams.lb]]))
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    seconds = _compare()._setup(ROOT, listing)
    assert 0 < seconds < 60
    assert (tmp_path / "pycache").is_dir()  # bytecode goes beside the listing
    # the caller's environment is inherited, as perfbench's setup_once does
    quiet = tmp_path / "quiet"
    quiet.mkdir()
    (quiet / "cases.json").write_text(listing.read_text())
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert 0 < _compare()._setup(ROOT, quiet / "cases.json") < 60
    assert not (quiet / "pycache").exists()
