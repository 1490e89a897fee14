"""The benchmark's own partition check and partition digests.

The check works on the generator's edge array, not on anything the
solver built, so a loader or solver defect cannot hide from it.
"""

from __future__ import annotations

import hashlib

import numpy as np

from workloads import Case

A, B, S = 0, 1, 2


def side_labels(n: int, a, b, s) -> tuple[np.ndarray | None, list[str]]:
    """Side label per vertex, or None plus the problems when the three
    sets are not disjoint or do not cover 0..n-1."""
    side = np.full(n, -1, dtype=np.int8)
    problems = []
    for label, group in ((A, a), (B, b), (S, s)):
        idx = np.asarray(group, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            problems.append(f"set {label} has a vertex outside 0..{n - 1}")
            continue
        if np.unique(idx).size != idx.size or np.any(side[idx] >= 0):
            problems.append(f"set {label} repeats or shares a vertex")
        side[idx] = label
    if np.any(side < 0):
        problems.append(f"{int((side < 0).sum())} vertices in no set")
    return (None if problems else side), problems


def check_sides(case: Case, side: np.ndarray, weight: int) -> list[str]:
    """No A-B edge, both side sizes in [lb, ub], weight = cost of S."""
    problems = []
    su, sv = side[case.edges[:, 0]], side[case.edges[:, 1]]
    crossing = int(np.count_nonzero(((su == A) & (sv == B)) | ((su == B) & (sv == A))))
    if crossing:
        problems.append(f"{crossing} edges join A and B")
    for label, name in ((A, "A"), (B, "B")):
        size = int(np.count_nonzero(side == label))
        if not case.lb <= size <= case.ub:
            problems.append(f"|{name}| = {size} outside [{case.lb}, {case.ub}]")
    true_weight = int(case.cost[side == S].sum())
    if true_weight != weight:
        problems.append(f"reported weight {weight} != cost of S {true_weight}")
    return problems


def check_partition(case: Case, a, b, s, weight: int) -> list[str]:
    side, problems = side_labels(case.n, a, b, s)
    return problems if side is None else check_sides(case, side, weight)


def reference_weight(case: Case) -> int:
    """Weight of the case's own reference; raises if the reference is invalid."""
    weight = int(case.cost[case.ref.side == S].sum())
    problems = check_sides(case, case.ref.side, weight)
    if problems:
        raise ValueError(f"{case.name}: {case.ref.kind} reference invalid: {problems}")
    return weight


def digest(a, b, weight: int) -> str:
    h = hashlib.sha256()
    h.update(np.asarray(a, dtype=np.int64).tobytes())
    h.update(b"|")
    h.update(np.asarray(b, dtype=np.int64).tobytes())
    h.update(f"|{weight}".encode())
    return h.hexdigest()[:16]
