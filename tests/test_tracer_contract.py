"""The benchmark's tracer (perfbench/tracing.py) must keep finding what it wraps.

The tracer rebinds vsep's public functions by name in every vsep module
namespace.  A rename, a function moved out of a module's globals, or a call
that bypasses them makes its per-layer metrics silently read zero; this
test turns that into a failure.  It imports the tracer read-only.
"""

import sys
from pathlib import Path

import vsep
from conftest import grid_graph
from vsep.cbp import CbpInstance
from vsep.graphs import Graph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
try:
    from tracing import FUNCTIONS, Tracer
finally:
    sys.path.remove(str(PERFBENCH))


def test_traced_functions_are_exported():
    missing = [name for name in FUNCTIONS if not callable(getattr(vsep, name, None))]
    assert missing == []


def _bindings():
    """Every attribute of every loaded vsep module, plus the two traced methods."""
    out = {
        (k, attr): value
        for k, mod in list(sys.modules.items())
        if k == "vsep" or k.startswith("vsep.")
        for attr, value in vars(mod).items()
    }
    out["bdot"] = CbpInstance.__dict__["bdot"]
    out["from_edges"] = Graph.__dict__["from_edges"]
    return out


def test_tracer_sees_every_layer_of_a_solve():
    g = grid_graph(12, 12)
    before = _bindings()

    with Tracer() as trace:
        vsep.solve(g, vsep.SolveParams(coarsest_size=8))

    for span in (
        "multilevel.match",
        "multilevel.contract",
        "multilevel.coarsest",
        "cbp.refine",
        "cbp.escape",
        "cbp.round",
        "cbp.block_lp",
    ):
        assert trace.calls(span) > 0, span
    assert trace.layer_metrics()["trace.coverage"][0] >= 0.95

    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
