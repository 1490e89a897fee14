"""vsep runs on numpy alone; scipy is needed only by the tests and perfbench.

Each check runs in a fresh interpreter, since this one has scipy loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import grid_graph
from vsep.cbp import _DENSE_LIMIT

SRC = Path(__file__).resolve().parent.parent / "src"

# argv: the .mtx file.  Loads it, solves it through a multilevel hierarchy and
# prints the scipy modules that are loaded afterwards.
SOLVE = """
import sys
import vsep
g = vsep.load_matrix_market(sys.argv[1])
part, trace = vsep.solve(g)
assert len(trace) >= 2, trace
assert not vsep.partition_violations(g, part, *vsep.SolveParams().bounds(g.n))
print(sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod is not None))
"""

# argv: the CLI's arguments.  Runs ``python -m vsep`` in this interpreter.
CLI = """
import runpy, sys
sys.argv[0] = "vsep"
runpy.run_module("vsep", run_name="__main__", alter_sys=True)
"""

BLOCK = 'import sys; sys.modules["scipy"] = None  # importing scipy or any submodule now raises ImportError\n'


def _python(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.fixture(scope="module")
def grid_mtx(tmp_path_factory):
    """A 20x20 grid as a MatrixMarket file: past the dense limit, and it coarsens."""
    g = grid_graph(20, 20)
    assert g.n > _DENSE_LIMIT
    path = tmp_path_factory.mktemp("graphs") / "grid20.mtx"
    lines = [f"{v + 1} {u + 1}" for u, v, _ in g.edges()]
    path.write_text(
        "%%MatrixMarket matrix coordinate pattern symmetric\n"
        f"{g.n} {g.n} {len(lines)}\n" + "\n".join(lines) + "\n"
    )
    return path


@pytest.mark.parametrize("blocked", [False, True], ids=["scipy-installed", "scipy-unimportable"])
def test_solve_loads_no_scipy(grid_mtx, blocked):
    proc = _python((BLOCK if blocked else "") + SOLVE, str(grid_mtx))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_cli_solves_with_scipy_unimportable(grid_mtx):
    proc = _python(BLOCK + CLI, "solve", str(grid_mtx))
    assert proc.returncode == 0, proc.stderr
    assert "separator_weight:" in proc.stdout
