"""Paired timing of two source trees on one perfbench workload.

Usage, from the repository root:

    python3 scripts/ab.py --base DIR --head DIR --workload W [--pairs N]

``DIR`` is a source tree that holds ``src/vsep``, for example a checkout
of the parent commit.  The workload's graphs come from this repository's
``perfbench/workloads.py``, imported read-only, and are written once to a
temporary directory.  Each pair runs one fresh process per tree, the
order flipped every pair; a process loads the graphs, solves each one
three times with the benchmark's parameters and reports the sum over the
graphs of each graph's fastest solve.  The script prints every pair with
its head/base ratio, how many pairs the head won, and both sides' medians
and quartiles.  It also says whether the two trees returned the same
partitions; timing two trees that do different work compares more than
their speed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3  # solves per graph in one process; the fastest counts


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


def worker(src: Path, listing: Path) -> None:
    """Solve every listed graph REPEATS times; print the best-of sum and a partition digest."""
    vsep = _import("vsep", src)
    if Path(vsep.__file__).resolve().parent != src / "vsep":
        raise SystemExit(f"error: imported vsep from {vsep.__file__}, not from {src}")
    cases = json.loads(listing.read_text())
    graphs = [
        (vsep.load_metis if fmt == "metis" else vsep.load_matrix_market)(path) for fmt, path, _ in cases
    ]
    best = [float("inf")] * len(cases)
    digest = hashlib.sha256()
    for rep in range(REPEATS):
        for i, (g, (_, _, lb)) in enumerate(zip(graphs, cases)):
            params = vsep.SolveParams(la=lb, lb=lb)
            start = time.perf_counter()
            try:
                part = vsep.solve(g, params)[0]
            except Exception as exc:  # a failed graph is timed like a solved one
                part = type(exc).__name__
            best[i] = min(best[i], time.perf_counter() - start)
            if rep == 0:
                digest.update(repr(part).encode())
    print(json.dumps({"solve_s": sum(best), "digest": digest.hexdigest()}))


def _run(tree: Path, listing: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, "-B", __file__, "--worker", str(tree / "src"), str(listing)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spread(values: list[float]) -> str:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return f"median {med:.4f} s  quartiles {q1:.4f} / {q3:.4f}  IQR {q3 - q1:.4f}"


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--worker"]:
        worker(Path(argv[1]).resolve(), Path(argv[2]))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", type=Path, required=True, help="source tree of the baseline (holds src/vsep)")
    ap.add_argument("--head", type=Path, required=True, help="source tree of the change (holds src/vsep)")
    ap.add_argument("--workload", required=True, help="perfbench workload: mesh-large, nd-batch or tight-dense")
    ap.add_argument("--pairs", type=int, default=10, help="number of alternating pairs")
    args = ap.parse_args(argv)

    workloads = _import("workloads", ROOT / "perfbench")
    if args.workload not in workloads.SUITES:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.SUITES)}")
    trees = {"base": args.base.resolve(), "head": args.head.resolve()}
    for name, tree in trees.items():
        if not (tree / "src" / "vsep" / "__init__.py").is_file():
            raise SystemExit(f"error: --{name} {tree} holds no src/vsep")

    times: dict[str, list[float]] = {"base": [], "head": []}
    digests: dict[str, set[str]] = {"base": set(), "head": set()}
    with tempfile.TemporaryDirectory() as tmp:
        cases = []
        for i, case in enumerate(workloads.SUITES[args.workload]()):
            path = Path(tmp) / f"{i:03d}"
            if case.fmt == "metis":
                path = path.with_suffix(".graph")
                workloads.write_metis(case, path)
            else:
                path = path.with_suffix(".mtx")
                workloads.write_mtx(case, path)
            cases.append((case.fmt, str(path), int(case.lb)))
        listing = Path(tmp) / "cases.json"
        listing.write_text(json.dumps(cases))

        print(f"workload {args.workload}: {len(cases)} graphs, sum of per-graph best-of-{REPEATS} solve times")
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for name in order:
                out = _run(trees[name], listing)
                times[name].append(out["solve_s"])
                digests[name].add(out["digest"])
            base, head = times["base"][-1], times["head"][-1]
            print(f"pair {pair + 1:2d} ({order[0]} first)  base {base:.4f} s  head {head:.4f} s  head/base {head / base:.3f}", flush=True)

    wins = sum(h < b for b, h in zip(times["base"], times["head"]))
    print(f"head faster in {wins} of {args.pairs} pairs")
    for name in ("base", "head"):
        print(f"{name}: {_spread(times[name])}")
    shift = float(np.median(times["head"]) - np.median(times["base"]))
    q1, q3 = np.percentile(times["base"], [25, 75])
    print(f"median head - base {shift:+.4f} s ({shift / np.median(times['base']):+.1%}); base IQR {q3 - q1:.4f} s")
    same = len(digests["base"] | digests["head"]) == 1
    print("partitions: " + ("equal in every process" if same else "DIFFER between trees or runs"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
