"""Exhaustive reference solver for tests and verification.

It enumerates every candidate without pruning so that its correctness is
self-evident; it is meant for tiny inputs only.
"""

from __future__ import annotations

import numpy as np

from .cbp import CbpInstance, Partition


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
