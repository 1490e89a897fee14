"""Exhaustive reference solvers for tests and verification.

Both routines enumerate every candidate without pruning so that their
correctness is self-evident; they are meant for tiny inputs only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cbp import InfeasibleBoundsError, Partition
from .graphs import Graph


class TooLargeError(ValueError):
    """Input exceeds the exhaustive-search size cap."""


@dataclass(frozen=True)
class OracleResult:
    optimal_weight: int | None
    witness: Partition | None

    @property
    def feasible(self) -> bool:
        return self.optimal_weight is not None


VSP_CAP = 16
_LOW_DIGITS = 11  # one chunk enumerates the 3^11 assignments of the last 11 vertices


def brute_force_vsp(graph: Graph, la: int, ua: int, lb: int, ub: int) -> OracleResult:
    """Exact minimum-weight separator by checking all 3^n assignments.

    Every vertex goes to side a, side b, or the separator; assignments with
    an a-b edge or a size bound violation are discarded.  Ties resolve to
    the lexicographically smallest assignment under the digit order
    a < b < separator, vertex 0 most significant.
    """
    n = graph.n
    if n > VSP_CAP:
        raise TooLargeError(f"n={n} exceeds the exhaustive cap {VSP_CAP}")
    cost = graph.vertex_cost.astype(np.int64)
    size = graph.vertex_size.astype(np.int64)
    edge_list = [(u, v) for u, v, _ in graph.edges()]

    # the low digits are one table in lexicographic order; each chunk in
    # turn writes its constant high digits in front of it
    low = min(n, _LOW_DIGITS)
    digits = np.empty((3**low, n), dtype=np.int8, order="F")  # columns read fast
    digits[:, n - low :] = np.indices((3,) * low, dtype=np.int8).reshape(low, 3**low).T
    best_w: int | None = None
    best_digits: np.ndarray | None = None
    for high in np.ndindex(*(3,) * (n - low)):
        digits[:, : n - low] = high
        in_a = digits == 0
        in_b = digits == 1
        size_a = in_a @ size
        size_b = in_b @ size
        ok = (
            (size_a >= la)
            & (size_a <= ua)
            & (size_b >= lb)
            & (size_b <= ub)
        )
        for u, v in edge_list:
            ok &= ~((in_a[:, u] & in_b[:, v]) | (in_b[:, u] & in_a[:, v]))
        if not ok.any():
            continue
        weights = (digits == 2) @ cost
        idx = np.flatnonzero(ok)
        k = idx[np.argmin(weights[idx])]  # first minimum: lexicographic tie-break
        if best_w is None or weights[k] < best_w:
            best_w = int(weights[k])
            best_digits = digits[k].copy()

    if best_w is None:
        return OracleResult(None, None)
    witness = Partition(
        a=tuple(int(i) for i in np.flatnonzero(best_digits == 0)),
        b=tuple(int(i) for i in np.flatnonzero(best_digits == 1)),
        s=tuple(int(i) for i in np.flatnonzero(best_digits == 2)),
        separator_weight=best_w,
    )
    return OracleResult(best_w, witness)


_LP_CAP = 12


def brute_force_lp(g, s, l: int, u: int) -> tuple[float, np.ndarray]:
    """Exact box-and-sum LP maximum by enumerating every polytope vertex.

    Candidates are all binary vectors inside the sum bounds plus, for each
    binary pattern and coordinate, the vector whose free coordinate lands
    the sum exactly on l or u.  Returns (value, maximizer); ties keep the
    first candidate in enumeration order.
    """
    g = np.asarray(g, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    n = g.size
    if n > _LP_CAP:
        raise TooLargeError(f"n={n} exceeds the exhaustive cap {_LP_CAP}")
    if l < 0 or l > u or l > float(s.sum()):
        raise InfeasibleBoundsError(f"bounds l={l} u={u} unreachable")

    patterns = np.arange(2**n, dtype=np.int64)
    bits = ((patterns[:, None] >> np.arange(n)[None, :]) & 1).astype(np.float64)
    sums = bits @ s
    vals = bits @ g

    best_val = -np.inf
    best_vec: np.ndarray | None = None
    inside = (sums >= l) & (sums <= u)
    if inside.any():
        idx = np.flatnonzero(inside)
        k = idx[np.argmax(vals[idx])]
        best_val = float(vals[k])
        best_vec = bits[k].copy()

    for i in range(n):
        base_sum = sums - bits[:, i] * s[i]
        base_val = vals - bits[:, i] * g[i]
        for bound in (l, u):
            vi = (bound - base_sum) / s[i]
            valid = (vi > 0.0) & (vi < 1.0)
            if not valid.any():
                continue
            cand = base_val + g[i] * vi
            idx = np.flatnonzero(valid)
            k = idx[np.argmax(cand[idx])]
            if cand[k] > best_val:
                best_val = float(cand[k])
                best_vec = bits[k].copy()
                best_vec[i] = vi[k]

    if best_vec is None:
        raise InfeasibleBoundsError(f"no vertex satisfies l={l}, u={u}")
    return best_val, best_vec
