"""Exhaustive reference solvers for tests and verification.

Both routines enumerate every candidate without pruning so that their
correctness is self-evident; they are meant for tiny inputs only.
"""

from __future__ import annotations

import numpy as np

from .cbp import CbpInstance, InfeasibleBoundsError, Partition


class TooLargeError(ValueError):
    """Input exceeds the exhaustive-search size cap."""


VSP_CAP = 16
_LOW_DIGITS = 11  # one table enumerates the 3^11 assignments of the last 11 vertices


def brute_force_vsp(inst: CbpInstance) -> Partition | None:
    """Exact minimum-weight separator of a level's program by checking all
    3^n assignments.

    Every vertex goes to side a, side b, or the separator; an edge is an
    off-diagonal nonzero of B, costs are c and sizes s.  Assignments with
    an a-b edge or a violation of the instance's size bounds are
    discarded.  Returns the optimal partition, or None when no assignment
    is valid.  Ties resolve to the lexicographically smallest assignment
    under the digit order a < b < separator, vertex 0 most significant.
    """
    n = inst.n
    if n > VSP_CAP:
        raise TooLargeError(f"n={n} exceeds the exhaustive cap {VSP_CAP}")
    la, ua, lb, ub = inst.la, inst.ua, inst.lb, inst.ub
    cost = inst.c.astype(np.int64)
    size = inst.s.astype(np.int64)
    rows = inst.B.rows
    upper = rows < inst.B.indices
    edges = list(zip(rows[upper].tolist(), inst.B.indices[upper].tolist()))  # u < v

    # The last ``low`` vertices are one table in lexicographic order, with
    # each row's side sizes, separator weight and inner-edge check computed
    # once; each constant prefix of the first ``high`` vertices in turn adds
    # its own sums and checks the edges that reach it.
    low = min(n, _LOW_DIGITS)
    high = n - low
    table = np.indices((3,) * low, dtype=np.int8).reshape(low, 3**low).T  # columns read fast
    size_a = (table == 0) @ size[high:]
    size_b = (table == 1) @ size[high:]
    weight = (table == 2) @ cost[high:]
    inner_ok = np.ones(3**low, dtype=bool)
    for u, v in edges:
        if u >= high:
            inner_ok &= table[:, u - high] + table[:, v - high] != 1  # 0 + 1: an a-b edge
    top = [(u, v) for u, v in edges if v < high]
    cross = [(u, v - high) for u, v in edges if u < high <= v]

    best_w: int | None = None
    best_digits: np.ndarray | None = None
    for prefix in np.ndindex(*(3,) * high):
        if any(prefix[u] + prefix[v] == 1 for u, v in top):
            continue
        head = np.array(prefix, dtype=np.int8)
        head_a = int(size[:high][head == 0].sum())
        head_b = int(size[:high][head == 1].sum())
        ok = (
            inner_ok
            & (size_a >= la - head_a)
            & (size_a <= ua - head_a)
            & (size_b >= lb - head_b)
            & (size_b <= ub - head_b)
        )
        for u, j in cross:
            if prefix[u] != 2:
                ok &= table[:, j] != 1 - prefix[u]  # the low end may not take the other side
        if not ok.any():
            continue
        idx = np.flatnonzero(ok)
        k = idx[np.argmin(weight[idx])]  # first minimum: lexicographic tie-break
        w = int(weight[k]) + int(cost[:high][head == 2].sum())
        if best_w is None or w < best_w:
            best_w = w
            best_digits = np.concatenate((head, table[k]))

    if best_w is None:
        return None
    return Partition(
        a=tuple(int(i) for i in np.flatnonzero(best_digits == 0)),
        b=tuple(int(i) for i in np.flatnonzero(best_digits == 1)),
        s=tuple(int(i) for i in np.flatnonzero(best_digits == 2)),
        separator_weight=best_w,
    )


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
