"""Check a change: equal solve outputs, and paired timings of two source trees.

Usage, from the repository root:

    python3 scripts/compare.py [--base DIR] [--head DIR] [--workload W [--pairs N]]

``DIR`` holds ``src/vsep``, for example a checkout of the parent commit;
``--head`` defaults to this repository.  The graphs come from this
repository's ``perfbench/workloads.py``, imported read-only.  Each tree runs
in fresh processes: the script starts itself as a worker on the tree.

Without ``--workload`` each tree runs ``vsep solve FILE --lb LB --output
json`` on the 130 perfbench graphs, with the run-dependent
``wall_time_sec`` and ``input_path`` dropped.  One tree prints ``name exit
sha256(stdout) sha256(stderr)`` per graph and a ``combined`` digest last.
With ``--base`` it prints both combined digests, each beside its tree's
``src/vsep`` line count (as ``wc -l src/vsep/*.py`` counts it), every
graph whose line differs, and ``outputs: equal`` or ``outputs: DIFFER``
(exit status 1).

With ``--workload`` (and ``--base``) the trees run in alternating pairs
of processes; each reports the sum of each graph's fastest of three
solves.  The script prints the pairs, the head's wins, both quartiles,
the median shift, a verdict (``faster`` or ``slower`` when nine tenths of
the pairs agree and the shift exceeds the base IQR, else ``within
noise``), whether the partitions agree (exit status 1 when they differ),
each tree's median peak RSS (``ru_maxrss``) over its timing processes,
and the call counters of one pass per tree under
``perfbench/tracing.py``: timing two trees that do different work
compares more than their speed.  Beside them, ``python.calls_per_pass``
is cProfile's ``total_calls`` for one untraced pass after a warm pass: a
count of Python-level calls that repeats exactly, where the timings
carry noise.  It then times set-up the same way:
alternating fresh interpreters of each tree, in the caller's environment,
import vsep and load the workload's files, as perfbench's ``setup_s``
does, and the script prints
their pairs, quartiles and verdict by the same rule.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import hashlib
import io
import json
import os
import pstats
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RUN_DEPENDENT = ("wall_time_sec", "input_path")
REPEATS = 3  # timed solves per graph in one process; the fastest counts

# Runs in a fresh interpreter, as perfbench/run.py's SETUP_SCRIPT does: the
# time to import vsep and load the listed files, which every run pays.
SETUP_SCRIPT = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import vsep
for _, path, _ in json.load(open(sys.argv[2])):
    (vsep.load_metis if path.endswith(".graph") else vsep.load_matrix_market)(path)
print(time.perf_counter() - start)
"""


def _import(name: str, directory: Path):
    """Import module ``name`` from ``directory`` without writing bytecode there."""
    sys.path.insert(0, str(directory))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return __import__(name)
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(directory))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _write_cases(suites: list[str], directory: Path) -> Path:
    """Write every graph of ``suites``; return a listing of [name, path, lb]."""
    workloads = _import("workloads", ROOT / "perfbench")
    cases = []
    for suite in suites:
        for i, case in enumerate(workloads.SUITES[suite]()):
            path = directory / f"{suite}-{i:03d}"
            if case.fmt == "metis":
                path = path.with_suffix(".graph")
                workloads.write_metis(case, path)
            else:
                path = path.with_suffix(".mtx")
                workloads.write_mtx(case, path)
            cases.append((f"{suite}/{i:03d}-{case.name}", str(path), int(case.lb)))
    listing = directory / "cases.json"
    listing.write_text(json.dumps(cases))
    return listing


def _solve(vsep, g, lb: int):
    """The benchmark's solve; a failure's exception name stands for its partition."""
    try:
        return vsep.solve(g, vsep.SolveParams(la=lb, lb=lb))[0]
    except Exception as exc:
        return type(exc).__name__


def worker(mode: str, src: Path, listing: Path) -> None:
    """Run the listed graphs with the ``vsep`` under ``src`` and print the result.

    ``digest``: one digest line per graph.  ``time``: the sum of per-graph
    best-of-REPEATS solve times, a digest of the partitions and the
    process's peak RSS in MB, as JSON.
    ``trace``: the count metrics of one traced pass and
    ``python.calls_per_pass``, as JSON.
    """
    vsep = _import("vsep", src)
    if Path(vsep.__file__).resolve().parent != src / "vsep":
        raise SystemExit(f"error: imported vsep from {vsep.__file__}, not from {src}")
    cases = json.loads(listing.read_text())
    if mode == "digest":
        from vsep import cli

        for name, path, lb in cases:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["solve", path, "--lb", str(lb), "--output", "json"])
            stdout = out.getvalue()
            if code == 0:
                report = json.loads(stdout)
                for key in RUN_DEPENDENT:
                    report.pop(key)
                stdout = json.dumps(report, indent=2)
            print(f"{name} {code} {_sha(stdout)} {_sha(err.getvalue())}", flush=True)
        return

    def load(path: str):
        return (vsep.load_metis if path.endswith(".graph") else vsep.load_matrix_market)(path)

    if mode == "trace":
        tracing = _import("tracing", ROOT / "perfbench")
        with tracing.Tracer() as tracer:
            for _, path, lb in cases:
                _solve(vsep, load(path), lb)
        counts = {k: v for k, (v, unit) in tracer.layer_metrics().items() if unit == "count"}
        counts["python.calls_per_pass"] = _calls_per_pass(vsep, [(load(path), lb) for _, path, lb in cases])
        print(json.dumps(counts))
        return
    graphs = [load(path) for _, path, _ in cases]
    best = [float("inf")] * len(cases)
    digest = hashlib.sha256()
    for rep in range(REPEATS):
        for i, (g, (_, _, lb)) in enumerate(zip(graphs, cases)):
            start = time.perf_counter()
            part = _solve(vsep, g, lb)
            best[i] = min(best[i], time.perf_counter() - start)
            if rep == 0:
                digest.update(repr(part).encode())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB
    print(json.dumps({"solve_s": sum(best), "digest": digest.hexdigest(), "peak_rss_mb": peak_mb}))


def _calls_per_pass(vsep, graphs: list) -> int:
    """cProfile's ``total_calls`` for one untraced pass of the benchmark's
    solves over ``graphs``, (graph, lb) pairs, taken after a warm pass."""
    for g, lb in graphs:
        _solve(vsep, g, lb)
    profile = cProfile.Profile()
    profile.enable()
    for g, lb in graphs:
        _solve(vsep, g, lb)
    profile.disable()
    return pstats.Stats(profile).total_calls


def _run(mode: str, tree: Path, listing: Path) -> str:
    proc = subprocess.run(
        [sys.executable, "-B", __file__, "--worker", mode, str(tree / "src"), str(listing)],
        capture_output=True, text=True,
    )
    if proc.returncode:
        raise SystemExit(f"error: {mode} worker on {tree} exited {proc.returncode}\n{proc.stderr}")
    return proc.stdout


def _setup(tree: Path, listing: Path) -> float:
    """One fresh interpreter's set-up time on ``tree``, in this process's
    environment, as perfbench's ``setup_once`` runs it: under
    ``PYTHONDONTWRITEBYTECODE`` every interpreter compiles vsep again and
    reads its libraries' installed bytecode.  Otherwise the bytecode, vsep's
    and its libraries', is cached beside ``listing``, not in the tree."""
    env = dict(os.environ)
    if not env.get("PYTHONDONTWRITEBYTECODE"):
        env["PYTHONPYCACHEPREFIX"] = str(listing.parent / "pycache")
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SCRIPT, str(tree / "src"), str(listing)], capture_output=True, text=True, env=env
    )
    if proc.returncode:
        raise SystemExit(f"error: set-up on {tree} exited {proc.returncode}\n{proc.stderr}")
    return float(proc.stdout)


def _alternate(trees: dict[str, Path], pairs: int, measure, seconds) -> dict[str, list]:
    """``measure(tree)`` for base and head in ``pairs`` pairs, the order
    flipped every pair; prints each pair's ``seconds(result)``."""
    runs: dict[str, list] = {"base": [], "head": []}
    for pair in range(pairs):
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        for name in order:
            runs[name].append(measure(trees[name]))
        base, head = (seconds(runs[name][-1]) for name in ("base", "head"))
        print(f"pair {pair + 1:2d} ({order[0]} first)  base {base:.4f} s  head {head:.4f} s  head/base {head / base:.3f}", flush=True)
    return runs


def pair_summary(base: list[float], head: list[float]) -> list[str]:
    """The wins, both sides' medians and quartiles, the median shift and a
    verdict: head is faster (slower) when at least nine tenths of the pairs
    go that way and the median shift exceeds the base IQR, else the runs are
    within noise."""

    def spread(values: list[float]) -> str:
        q1, med, q3 = np.percentile(values, [25, 50, 75])
        return f"median {med:.4f} s  quartiles {q1:.4f} / {q3:.4f}  IQR {q3 - q1:.4f}"

    wins = sum(h < b for b, h in zip(base, head))
    losses = sum(h > b for b, h in zip(base, head))
    shift = float(np.median(head) - np.median(base))
    q1, q3 = np.percentile(base, [25, 75])
    verdict = "within noise"
    if 10 * wins >= 9 * len(base) and -shift > q3 - q1:
        verdict = "faster"
    elif 10 * losses >= 9 * len(base) and shift > q3 - q1:
        verdict = "slower"
    return [
        f"head faster in {wins} of {len(base)} pairs",
        f"base: {spread(base)}",
        f"head: {spread(head)}",
        f"median head - base {shift:+.4f} s ({shift / np.median(base):+.1%}); base IQR {q3 - q1:.4f} s",
        f"verdict: {verdict}",
    ]


def _source_lines(tree: Path) -> int:
    """The number of lines in ``tree``'s ``src/vsep/*.py``."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "vsep").glob("*.py"))


def _digests(trees: dict[str, Path], listing: Path) -> int:
    lines = {name: _run("digest", tree, listing).splitlines() for name, tree in trees.items()}
    combined = {name: f"combined {_sha(chr(10).join(tree_lines))}" for name, tree_lines in lines.items()}
    if "base" not in trees:
        print(*lines["head"], combined["head"], sep="\n")
        return 0
    for name, tree in trees.items():
        print(f"{name}: {combined[name]}  src/vsep {_source_lines(tree)} lines")
    for base, head in zip(lines["base"], lines["head"]):
        if base != head:
            print(f"base {base}\nhead {head}")
    same = combined["base"] == combined["head"]
    print("outputs: " + ("equal" if same else "DIFFER"))
    return 0 if same else 1


def _pairs(trees: dict[str, Path], listing: Path, workload: str, pairs: int) -> int:
    count = len(json.loads(listing.read_text()))
    print(f"workload {workload}: {count} graphs, sum of per-graph best-of-{REPEATS} solve times")
    runs = _alternate(trees, pairs, lambda tree: json.loads(_run("time", tree, listing)), lambda out: out["solve_s"])
    times = {name: [out["solve_s"] for out in outs] for name, outs in runs.items()}
    print(*pair_summary(times["base"], times["head"]), sep="\n")
    same = len({out["digest"] for outs in runs.values() for out in outs}) == 1
    print("partitions: " + ("equal in every process" if same else "DIFFER between trees or runs"))
    base_mb, head_mb = (float(np.median([out["peak_rss_mb"] for out in runs[name]])) for name in ("base", "head"))
    print(f"peak RSS, median ru_maxrss of the timing processes: base {base_mb:.1f} MB  head {head_mb:.1f} MB  head/base {head_mb / base_mb:.3f}")

    counters = {name: json.loads(_run("trace", tree, listing)) for name, tree in trees.items()}
    print(f"{'traced counters, one pass per tree':34s} {'base':>16s}  {'head':>16s}")
    for key, head in counters["head"].items():
        base = counters["base"].get(key)
        print(f"  {key:32s} {base:>16.10g}  {head:>16.10g}  {'equal' if base == head else 'differ'}")
    return 0 if same else 1


def _setup_pairs(trees: dict[str, Path], listing: Path, pairs: int) -> None:
    count = len(json.loads(listing.read_text()))
    print(f"set-up: a fresh interpreter imports vsep and loads the {count} files")
    for tree in trees.values():
        _setup(tree, listing)  # fills the bytecode cache, if written; not counted
    times = _alternate(trees, pairs, lambda tree: _setup(tree, listing), float)
    print(*pair_summary(times["base"], times["head"]), sep="\n")


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--worker"]:
        worker(argv[1], Path(argv[2]).resolve(), Path(argv[3]))
        return 0
    suites = list(_import("workloads", ROOT / "perfbench").SUITES)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", type=Path, help="source tree of the baseline (holds src/vsep)")
    ap.add_argument("--head", type=Path, default=ROOT, help="source tree of the change (default: this repository)")
    ap.add_argument("--workload", choices=suites, help="time the trees on this perfbench workload")
    ap.add_argument("--pairs", type=int, default=10, help="number of alternating pairs (with --workload)")
    args = ap.parse_args(argv)
    if args.workload and args.base is None:
        ap.error("--workload needs --base")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    trees = {name: tree.resolve() for name, tree in (("base", args.base), ("head", args.head)) if tree is not None}
    for name, tree in trees.items():
        if not (tree / "src" / "vsep" / "__init__.py").is_file():
            raise SystemExit(f"error: --{name} {tree} holds no src/vsep")
    with tempfile.TemporaryDirectory() as tmp:
        if args.workload:
            listing = _write_cases([args.workload], Path(tmp))
            code = _pairs(trees, listing, args.workload, args.pairs)
            _setup_pairs(trees, listing, args.pairs)
            return code
        return _digests(trees, _write_cases(suites, Path(tmp)))


if __name__ == "__main__":
    sys.exit(main())
