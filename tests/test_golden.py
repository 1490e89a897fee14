"""Golden multilevel solves: fixed partitions and traces of deep hierarchies.

Each case coarsens at least three times, so matching, contraction and
prolongation on coarse levels all shape the answer.  The expected values
are the solver's output for the default seed; any change to them is a
change in behaviour, not a refactor.
"""

import numpy as np
import pytest

from conftest import gnp, grid_graph
from vsep.graphs import Graph
from vsep.multilevel import SolveParams, solve


def costed_grid() -> Graph:
    """10x10 grid with vertex costs drawn from 1..5."""
    base = grid_graph(10, 10)
    cost = np.random.default_rng(31).integers(1, 6, size=base.n)
    return Graph.from_edges(base.n, list(base.edges()), vertex_cost=cost)


CASES = {
    "grid12": (lambda: grid_graph(12, 12), SolveParams(coarsest_size=8)),
    "gnp120": (lambda: gnp(120, 0.05, seed=0), SolveParams(la=16, lb=16, coarsest_size=16)),
    "costed": (costed_grid, SolveParams(coarsest_size=8)),
}

# name -> ((a, b, s, separator_weight), trace tuples coarsest first)
EXPECTED = {
    "grid12": (
        (
            (76, 77, 78, 79, 80, 81, 82, 83, 86, 87, 88, 89, 90, 91, 92, 93, 94,
            95, 96, 97, 98, 99, 100, 101, 102, 103, 104, 105, 106, 107, 108,
            109, 110, 111, 112, 113, 114, 115, 116, 117, 118, 119, 120, 121,
            122, 123, 124, 125, 126, 127, 128, 129, 130, 131, 132, 133, 134,
            135, 136, 137, 138, 139, 140, 141, 142, 143),
            (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18,
            19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35,
            36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52,
            53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 72, 73),
            (64, 65, 66, 67, 68, 69, 70, 71, 74, 75, 84, 85),
            12,
        ),
        [
            (5, 5, None, 64.0, 6, 80),
            (4, 9, 64.0, 96.0, 0, 48),
            (3, 18, 96.0, 120.0, 1, 24),
            (2, 36, 120.0, 120.0, 0, 24),
            (1, 72, 120.0, 132.0, 1, 12),
            (0, 144, 132.0, 132.0, 0, 12),
        ],
    ),
    "gnp120": (
        (
            (4, 8, 13, 20, 25, 27, 28, 39, 42, 44, 45, 49, 57, 66, 70, 83, 84,
            100, 103, 108, 109, 113, 114, 119),
            (1, 2, 3, 5, 6, 7, 9, 10, 12, 14, 16, 19, 21, 22, 24, 26, 29, 30,
            31, 32, 33, 34, 35, 36, 38, 40, 41, 43, 46, 48, 50, 51, 52, 55, 56,
            59, 60, 62, 63, 64, 65, 68, 73, 74, 75, 76, 77, 79, 80, 86, 87, 90,
            91, 94, 95, 97, 99, 101, 106, 110),
            (0, 11, 15, 17, 18, 23, 37, 47, 53, 54, 58, 61, 67, 69, 71, 72, 78,
            81, 82, 85, 88, 89, 92, 93, 96, 98, 102, 104, 105, 107, 111, 112,
            115, 116, 117, 118),
            36,
        ),
        [
            (3, 16, None, 32.0, 14, 88),
            (2, 32, 32.0, 45.0, 3, 75),
            (1, 63, 45.0, 68.0, 6, 52),
            (0, 120, 68.0, 84.0, 3, 36),
        ],
    ),
    "costed": (
        (
            (0, 1, 2, 3, 4, 5, 10, 11, 12, 13, 14, 20, 21, 22, 23, 30, 31, 32,
            33, 40, 41, 42, 43, 44, 45, 50, 51, 52, 53, 54, 60, 61, 62, 63, 70,
            71, 72, 73, 74, 75, 80, 81, 82, 83, 84, 85, 90, 92, 93, 94),
            (7, 8, 9, 16, 17, 18, 19, 25, 26, 27, 28, 29, 36, 37, 38, 39, 47,
            48, 49, 56, 57, 58, 59, 66, 67, 68, 69, 77, 78, 79, 87, 88, 89, 96,
            97, 98, 99),
            (6, 15, 24, 34, 35, 46, 55, 64, 65, 76, 86, 91, 95),
            19,
        ),
        [
            (4, 8, None, 248.0, 18, 53),
            (3, 13, 248.0, 248.0, 0, 53),
            (2, 25, 248.0, 252.0, 1, 49),
            (1, 50, 252.0, 264.0, 3, 37),
            (0, 100, 264.0, 282.0, 1, 19),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_solve(name):
    make, params = CASES[name]
    part, trace = solve(make(), params)
    (a, b, s, weight), expected_trace = EXPECTED[name]
    assert len(trace) >= 4  # at least three coarsening steps
    assert (part.a, part.b, part.s, part.separator_weight) == (a, b, s, weight)
    got = [
        (t.level, t.n, t.objective_before, t.objective_after, t.escapes, t.separator_weight)
        for t in trace
    ]
    assert got == expected_trace
