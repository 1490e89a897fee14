"""Command-line front end: solve a graph, run the exact oracle, or benchmark."""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

from .cbp import (
    DegenerateRepairError,
    InfeasibleBoundsError,
    instance_from_graph,
    partition_violations,
)
from .graphs import Graph, ParseError, load_matrix_market, load_metis
from .multilevel import InfeasibleError, SolveParams, solve
from .oracle import TooLargeError, brute_force_vsp

EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_INVALID = 4
EXIT_TOO_LARGE = 5

# what a solve raises for bounds or a hierarchy it cannot satisfy: exit 3
INFEASIBLE_ERRORS = (InfeasibleError, InfeasibleBoundsError, DegenerateRepairError)


def _load_graph(path: str, fmt: str | None) -> Graph:
    p = Path(path)
    if fmt is None:
        ext = p.suffix.lower()
        if ext == ".mtx":
            fmt = "mtx"
        elif ext == ".graph":
            fmt = "metis"
        else:
            raise ParseError(f"cannot infer format from {p.suffix!r}; pass --format")
    try:
        return load_matrix_market(p) if fmt == "mtx" else load_metis(p)
    except IndexError as exc:  # a MatrixMarket entry outside the declared size
        raise ParseError(str(exc)) from exc


def _params(args: argparse.Namespace) -> SolveParams:
    return SolveParams(
        ub_fraction=args.ub_frac,
        la=args.lb,
        lb=args.lb,
        coarsest_size=args.coarsest_size,
        gamma_steps=args.gamma_steps,
        multistarts=args.multistarts,
        seed=args.seed,
    )


def _emit(report: dict, output: str) -> None:
    if output == "json":
        print(json.dumps(report, indent=2))
        return
    for key, value in report.items():
        if key == "trace":
            for t in value:
                fields = " ".join(f"{k}={v}" for k, v in t.items() if k != "level")
                print(f"trace level {t['level']}: {fields}")
        elif isinstance(value, dict):
            for k, v in value.items():
                print(f"{key}.{k}: {v}")
        elif isinstance(value, list):
            print(f"{key}: {' '.join(str(v) for v in value)}")
        else:
            print(f"{key}: {value}")


def cmd_solve(args: argparse.Namespace) -> int:
    g = _load_graph(args.input, args.format)
    params = _params(args)
    start = time.perf_counter()
    part, trace = solve(g, params)
    wall = time.perf_counter() - start

    problems = partition_violations(g, part, *params.bounds(int(g.vertex_size.sum())))
    if problems:
        print(f"internal validation failed: {problems}", file=sys.stderr)
        return EXIT_INVALID

    report = {
        "input_path": str(args.input),
        "n": g.n,
        "m": g.m,
        "params": {
            "ub_frac": params.ub_fraction,
            "lb": params.la,
            "coarsest_size": params.coarsest_size,
            "gamma_steps": params.gamma_steps,
            "multistarts": params.multistarts,
            "seed": params.seed,
        },
        "separator_weight": part.separator_weight,
        "separator_size": len(part.s),
        # total vertex sizes, which the bounds constrain
        "size_a": int(g.vertex_size[list(part.a)].sum()),
        "size_b": int(g.vertex_size[list(part.b)].sum()),
        "size_s": int(g.vertex_size[list(part.s)].sum()),
        "separator": [v + 1 for v in part.s],
        "trace": [asdict(t) for t in trace],
        "wall_time_sec": round(wall, 6),
    }
    _emit(report, args.output)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    g = _load_graph(args.input, args.format)
    params = SolveParams(ub_fraction=args.ub_frac, la=args.lb, lb=args.lb)
    la, ua, lb, ub = params.bounds(int(g.vertex_size.sum()))
    # an instance cannot hold la > ua; no partition meets such bounds
    best = brute_force_vsp(instance_from_graph(g, la, ua, lb, ub)) if la <= ua else None
    report: dict = {"input_path": str(args.input), "n": g.n, "feasible": best is not None}
    if best is not None:
        report.update(
            optimal_weight=best.separator_weight,
            a=[v + 1 for v in best.a],
            b=[v + 1 for v in best.b],
            separator=[v + 1 for v in best.s],
        )
    if best is not None or args.output == "json":
        _emit(report, args.output)
    else:
        print("infeasible")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    manifest = Path(args.manifest)
    base = manifest.parent
    params = SolveParams(seed=args.seed)
    rows = []
    for ln in manifest.read_text(encoding="utf-8").splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        tokens = ln.split()
        if len(tokens) != 5:
            raise ParseError(f"bad manifest line: {ln!r}")
        rows.append(
            (tokens[0], base / tokens[1], int(tokens[2]), int(tokens[3]), float(tokens[4]))
        )

    header = f"{'problem':<12} {'n':>6} {'sparsity':>9} {'|S|':>6} {'ref':>6} {'ratio':>6} {'time_s':>7}  status"
    print(header)
    missing: list[str] = []
    unreadable: list[str] = []
    all_ok = True
    for name, path, expected_n, ref_sep, threshold in rows:
        if not path.exists():
            missing.append(f"{name}: {path}")
            continue
        try:
            g = _load_graph(str(path), None)
        except (ParseError, OSError) as exc:
            unreadable.append(f"{name}: {path}: {exc}")
            print(f"{name:<12} {'':>6} {'':>9} {'':>6} {ref_sep:>6} {'':>6} {'':>7}  UNREADABLE")
            continue
        sparsity = 2 * g.m / (g.n * (g.n - 1)) if g.n > 1 else 0.0
        start = time.perf_counter()
        try:
            part, _ = solve(g, params)
        except INFEASIBLE_ERRORS:
            wall = time.perf_counter() - start
            all_ok = False
            print(
                f"{name:<12} {g.n:>6} {sparsity:>9.4f} {'':>6} "
                f"{ref_sep:>6} {'':>6} {wall:>7.1f}  INFEASIBLE"
            )
            continue
        wall = time.perf_counter() - start
        problems = partition_violations(g, part, *params.bounds(int(g.vertex_size.sum())))
        if ref_sep:
            ratio = part.separator_weight / ref_sep
        else:  # a zero reference is matched only by a zero separator
            ratio = math.inf if part.separator_weight else 1.0
        ok = not problems and g.n == expected_n and ratio <= threshold
        all_ok &= ok
        status = "ok" if ok else ("INVALID" if problems or g.n != expected_n else "ABOVE-THRESHOLD")
        print(
            f"{name:<12} {g.n:>6} {sparsity:>9.4f} {part.separator_weight:>6} "
            f"{ref_sep:>6} {ratio:>6.2f} {wall:>7.1f}  {status}"
        )
    for title, items in (("missing", missing), ("unreadable", unreadable)):
        if items:
            print(f"{title} benchmark graphs:", file=sys.stderr)
            for item in items:
                print(f"  {item}", file=sys.stderr)
    if missing or unreadable:
        return EXIT_PARSE
    return 0 if all_ok else 1


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input", help="graph file (.mtx or .graph)")
    sub.add_argument("--format", choices=("mtx", "metis"), help="override format inference")
    sub.add_argument(
        "--ub-frac",
        type=float,
        default=SolveParams.ub_fraction,
        help="upper bound on both sides, as a fraction of the total vertex size",
    )
    sub.add_argument("--lb", type=int, default=SolveParams.lb, help="lower bound on both side sizes")
    sub.add_argument("--output", choices=("plain", "json"), default="plain")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vsep", description="Multilevel vertex separator solver")
    subs = parser.add_subparsers(dest="command", required=True)

    p_solve = subs.add_parser("solve", help="run the multilevel solver")
    _add_common(p_solve)
    p_solve.add_argument("--coarsest-size", type=int, default=SolveParams.coarsest_size)
    p_solve.add_argument("--gamma-steps", type=int, default=SolveParams.gamma_steps)
    p_solve.add_argument("--multistarts", type=int, default=SolveParams.multistarts)
    p_solve.add_argument("--seed", type=int, default=SolveParams.seed)
    p_solve.set_defaults(func=cmd_solve)

    p_oracle = subs.add_parser("oracle", help="exact answer for tiny graphs (n <= 16)")
    _add_common(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    p_bench = subs.add_parser("bench", help="run a manifest of benchmark graphs")
    p_bench.add_argument("manifest", help="lines: name path expected_n reference_separator ratio_threshold")
    p_bench.add_argument("--seed", type=int, default=SolveParams.seed)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except INFEASIBLE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
