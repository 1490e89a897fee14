"""Span recording around vsep's public functions, from outside the package.

``Tracer.install`` rebinds each traced function in every loaded ``vsep``
module namespace that holds it (``multilevel`` imports the ``cbp``
functions by name, and ``escape`` calls ``cbp.refine`` through its module
globals), plus ``Graph.from_edges`` and ``CbpInstance.bdot`` on their
classes.  ``uninstall`` restores the originals.  Spans are aggregated in
memory by (name, parent name); a span's self time is its duration minus
the time of its child spans.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# public function -> span name; the span name's prefix is the module that owns the layer
FUNCTIONS = {
    "validate": "graphs.validate",
    "load_metis": "graphs.load",
    "load_matrix_market": "graphs.load",
    "heavy_edge_matching": "multilevel.match",
    "contract": "multilevel.contract",
    "build_hierarchy": "multilevel.hierarchy",
    "solve_coarsest": "multilevel.coarsest",
    "prolong": "multilevel.prolong",
    "solve": "solve",
    "refine": "cbp.refine",
    "escape": "cbp.escape",
    "round_to_binary": "cbp.round",
    "solve_block_lp": "cbp.block_lp",
    "extract_partition": "cbp.extract",
    "partition_violations": "cli.check",
    "brute_force_vsp": "oracle.vsp",
}
SMALL_BLOCK_LP = 32  # solve_block_lp takes its list-based path at or below this size
ANY = object()  # matches every parent in the span queries below


class Span:
    __slots__ = ("calls", "total", "self", "errors")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.errors: dict[str, int] = defaultdict(int)


class Tracer:
    def __init__(self):
        self.spans: dict[tuple[str, str | None], Span] = defaultdict(Span)
        self.counts: dict[str, float] = defaultdict(float)
        self.hook_s = 0.0  # time spent in the counters below, inside traced spans
        self._stack: list[list] = []  # open spans: [name, child time]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, kwargs, result)`` runs
        outside the timed call and may update counters."""
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                span = self.spans[(name, parent[0] if parent else None)]
                span.calls += 1
                span.total += elapsed
                span.self += elapsed - frame[1]
                if error:
                    span.errors[error] += 1
                if parent is not None:
                    parent[1] += elapsed
            if after is not None:
                hook_start = perf_counter()
                after(args, kwargs, result)
                hook = perf_counter() - hook_start
                self.hook_s += hook
                if parent is not None:
                    parent[1] += hook
            return result

        return traced

    def _after(self, fname: str):
        counts = self.counts
        if fname == "build_hierarchy":
            def after(args, kwargs, hier):
                counts["hierarchies"] += 1
                counts["levels"] += len(hier.levels)
        elif fname == "contract":
            def after(args, kwargs, coarse):
                counts["contracts"] += 1
                counts["coarsen_ratio_sum"] += coarse.inst.n / args[0].inst.n
        elif fname == "solve_coarsest":
            def after(args, kwargs, point):
                counts["coarsest_calls"] += 1
                counts["coarsest_n_sum"] += args[0].n
        elif fname == "solve_block_lp":
            def after(args, kwargs, v):
                counts["block_lp_small"] += len(args[0]) <= SMALL_BLOCK_LP
        elif fname == "round_to_binary":
            def after(args, kwargs, q):
                inst, p = args
                counts["round_ok"] += 1
                counts["round_obj_delta_sum"] += _objective(inst, q) - _objective(inst, p)
        else:
            return None
        return after

    def _traced_escape(self, fn):
        counts = self.counts
        inner = self.wrap("cbp.escape", fn)

        @functools.wraps(fn)
        def escape(*args, **kwargs):
            stats = kwargs.get("stats")
            if stats is None:
                stats = kwargs["stats"] = {}
            before = stats.get("escapes", 0)
            try:
                return inner(*args, **kwargs)
            finally:
                counts["escape_accepts"] += stats.get("escapes", 0) - before

        return escape

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        import vsep
        from vsep.cbp import CbpInstance
        from vsep.graphs import Graph

        modules = [m for k, m in list(sys.modules.items()) if k == "vsep" or k.startswith("vsep.")]
        for fname, span in FUNCTIONS.items():
            original = getattr(vsep, fname)
            if fname == "escape":
                wrapper = self._traced_escape(original)
            else:
                wrapper = self.wrap(span, original, self._after(fname))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)

        from_edges = Graph.__dict__["from_edges"]
        self._set(Graph, "from_edges", classmethod(self.wrap("graphs.from_edges", from_edges.__func__)))

        counts = self.counts

        def count_matvec(args, kwargs, result):
            inst = args[0]
            counts["matvec_nnz"] += inst.n * inst.n if inst._dense is not None else inst.B.nnz

        self._set(CbpInstance, "bdot", self.wrap("cbp.matvec", CbpInstance.__dict__["bdot"], count_matvec))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- reading -----------------------------------------------------------

    def calls(self, name: str, parent=ANY) -> int:
        return sum(s.calls for (n, p), s in self.spans.items() if n == name and (parent is ANY or p == parent))

    def self_s(self, name: str, exclude_parent=ANY) -> float:
        return sum(s.self for (n, p), s in self.spans.items() if n == name and p != exclude_parent)

    def total_s(self, name: str) -> float:
        """Inclusive time of the outermost spans of ``name`` (recursion-free here)."""
        return sum(s.total for (n, p), s in self.spans.items() if n == name and p != name)

    def errors(self, name: str, error: str, parent=ANY) -> int:
        return sum(
            s.errors.get(error, 0)
            for (n, p), s in self.spans.items()
            if n == name and (parent is ANY or p == parent)
        )

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over everything recorded so far: (value, unit)."""
        c = self.counts
        solve_total = self.total_s("solve")
        solve_self = self.self_s("solve")
        block_calls = self.calls("cbp.block_lp")
        refine_calls = self.calls("cbp.refine")
        probes = self.calls("cbp.refine", "cbp.escape") / 2
        starts = self.calls("cbp.round", "multilevel.coarsest")
        covered = solve_total - solve_self - self.hook_s
        return {
            "graphs.load_s": (self.total_s("graphs.load"), "s"),
            "graphs.validate_s": (self.self_s("graphs.validate"), "s"),
            "graphs.from_edges_s": (self.self_s("graphs.from_edges", "graphs.load"), "s"),
            "graphs.from_edges_calls": (self.calls("graphs.from_edges") - self.calls("graphs.from_edges", "graphs.load"), "count"),
            "multilevel.hierarchy_s": (self.self_s("multilevel.hierarchy"), "s"),
            "multilevel.match_s": (self.self_s("multilevel.match"), "s"),
            "multilevel.contract_s": (self.self_s("multilevel.contract"), "s"),
            "multilevel.prolong_s": (self.self_s("multilevel.prolong"), "s"),
            "multilevel.levels": (_ratio(c["levels"], c["hierarchies"]), "count"),
            "multilevel.coarsen_ratio": (_ratio(c["coarsen_ratio_sum"], c["contracts"]), "ratio"),
            "multilevel.coarsest_n": (_ratio(c["coarsest_n_sum"], c["coarsest_calls"]), "count"),
            "multilevel.coarsest_s": (self.total_s("multilevel.coarsest"), "s"),
            "multilevel.start_fail_ratio": (_ratio(self.errors("cbp.round", "DegenerateRepairError", "multilevel.coarsest"), starts), "ratio"),
            "multilevel.infeasible_raised": (self.errors("solve", "InfeasibleError"), "count"),
            "cbp.refine_s": (self.self_s("cbp.refine"), "s"),
            "cbp.refine_calls": (refine_calls, "count"),
            "cbp.sweeps_per_refine": (_ratio(self.calls("cbp.block_lp", "cbp.refine") / 2, refine_calls), "count"),
            "cbp.block_lp_s": (self.self_s("cbp.block_lp"), "s"),
            "cbp.block_lp_calls": (block_calls, "count"),
            "cbp.block_lp_small_share": (_ratio(c["block_lp_small"], block_calls), "ratio"),
            "cbp.matvec_s": (self.self_s("cbp.matvec"), "s"),
            "cbp.matvec_calls": (self.calls("cbp.matvec"), "count"),
            "cbp.matvec_nnz": (c["matvec_nnz"], "count"),
            "cbp.escape_s": (self.total_s("cbp.escape"), "s"),
            "cbp.escape_probes": (probes, "count"),
            "cbp.escape_accepts": (c["escape_accepts"], "count"),
            "cbp.escape_accept_ratio": (_ratio(c["escape_accepts"], probes), "ratio"),
            "cbp.round_s": (self.self_s("cbp.round"), "s"),
            "cbp.round_fail": (self.errors("cbp.round", "DegenerateRepairError"), "count"),
            "cbp.round_obj_delta": (_ratio(c["round_obj_delta_sum"], c["round_ok"]), "objective"),
            "cbp.extract_s": (self.self_s("cbp.extract"), "s"),
            "oracle.vsp_calls": (self.calls("oracle.vsp"), "count"),
            "oracle.vsp_s": (self.self_s("oracle.vsp"), "s"),
            "cli.check_s": (self.total_s("cli.check"), "s"),
            "trace.solve_s": (solve_total, "s"),
            "trace.coverage": (_ratio(covered, solve_total - self.hook_s), "ratio"),
        }


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def _objective(inst, p) -> float:
    """c.(x + y) - gamma0 * x.B.y, computed without the traced matvec."""
    return float(inst.c @ (p.x + p.y) - inst.gamma0 * (p.x @ (inst.B @ p.y)))
