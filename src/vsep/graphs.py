"""Sparse undirected graph container and MatrixMarket / METIS file I/O."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np


class ParseError(ValueError):
    """A graph file is malformed."""


class AsymmetryError(ParseError):
    """A METIS file lists an edge on only one endpoint's line."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected graph in CSR form, 0-indexed.

    Neighbor lists are sorted and symmetric: ``j`` appears in row ``i``
    with weight ``w`` iff ``i`` appears in row ``j`` with the same weight.
    ``vertex_cost`` is the per-vertex cost a separator pays; ``vertex_size``
    is the cardinality weight counted by the balance constraints (all ones
    for graphs loaded from disk, >= 1 for coarsened graphs).
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    vertex_cost: np.ndarray
    vertex_size: np.ndarray

    def __post_init__(self):
        for name in ("indptr", "indices", "weights", "vertex_cost", "vertex_size"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return self.indices.size // 2

    def neighbors(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Sorted neighbor indices of ``v`` and the matching edge weights."""
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield each undirected edge once as (u, v, w) with u < v."""
        for u in range(self.n):
            nbrs, ws = self.neighbors(u)
            for v, w in zip(nbrs, ws):
                if u < v:
                    yield u, int(v), int(w)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in ("indptr", "indices", "weights", "vertex_cost", "vertex_size")
        )

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, ...]] | np.ndarray,
        vertex_cost: Iterable[int] | None = None,
        vertex_size: Iterable[int] | None = None,
    ) -> "Graph":
        """Build a graph from undirected edges (u, v) or (u, v, w), 0-indexed.

        ``edges`` is an iterable of tuples or an integer array of shape
        (m, 2) or (m, 3). Raises ValueError on self-loops, duplicate edges,
        out-of-range endpoints, or nonpositive weights, naming the first
        offending edge.
        """
        if isinstance(edges, np.ndarray):
            arr = edges.astype(np.int64, copy=False)
            if arr.ndim != 2 or arr.shape[1] not in (2, 3):
                raise ValueError(f"edge array has shape {edges.shape}, expected (m, 2) or (m, 3)")
        else:
            arr = np.array(
                [(e[0], e[1], e[2] if len(e) > 2 else 1) for e in edges], dtype=np.int64
            ).reshape(-1, 3)
        u, v = arr[:, 0], arr[:, 1]
        w = arr[:, 2] if arr.shape[1] == 3 else np.ones(len(arr), dtype=np.int64)

        out_of_range = (u < 0) | (u >= n) | (v < 0) | (v >= n)
        faults = [
            (out_of_range, "edge ({u}, {v}) out of range for n={n}"),
            (u == v, "self-loop at vertex {u}"),
            (w < 1, "edge ({u}, {v}) has weight {w} < 1"),
            (_repeats(np.minimum(u, v) * n + np.maximum(u, v)), "duplicate edge ({u}, {v})"),
        ]
        if (fault := _first_fault(faults)) is not None:
            k, msg = fault
            raise ValueError(msg.format(u=u[k], v=v[k], w=w[k], n=n))

        rows, cols = np.concatenate((u, v)), np.concatenate((v, u))
        order = np.argsort(rows * n + cols)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])

        cost = np.ones(n, dtype=np.int64) if vertex_cost is None else _int_array(vertex_cost)
        size = np.ones(n, dtype=np.int64) if vertex_size is None else _int_array(vertex_size)
        if cost.shape != (n,) or size.shape != (n,):
            raise ValueError("vertex_cost/vertex_size must have length n")
        if np.any(cost < 0):
            raise ValueError("vertex costs must be >= 0")
        if np.any(size < 1):
            raise ValueError("vertex sizes must be >= 1")
        return cls(n, indptr, cols[order], np.concatenate((w, w))[order], cost, size)


def _int_array(values: Iterable[int]) -> np.ndarray:
    if not isinstance(values, np.ndarray):
        values = list(values)
    return np.asarray(values, dtype=np.int64)


def _first_fault(faults: list[tuple[np.ndarray, str]]) -> tuple[int, str] | None:
    """The first entry any mask flags, with the message of the first mask that flags it."""
    k = min((int(np.argmax(mask)) for mask, _ in faults if mask.any()), default=None)
    return None if k is None else (k, next(msg for mask, msg in faults if mask[k]))


def _repeats(keys: np.ndarray) -> np.ndarray:
    """Mask of the entries whose key occurs earlier in ``keys``."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    mask = np.zeros(keys.size, dtype=bool)
    mask[order[1:][sorted_keys[1:] == sorted_keys[:-1]]] = True
    return mask


def _structure_faults(g: Graph) -> list[str]:
    """Records for arrays whose shapes or indices cannot describe a graph."""
    out: list[str] = []
    n, indptr, k = g.n, g.indptr, g.indices.size
    if indptr.shape != (n + 1,):
        out.append(f"indptr-length: {indptr.size} != n + 1 = {n + 1}")
    else:
        if indptr[0] != 0:
            out.append(f"indptr-start: {indptr[0]} != 0")
        out.extend(f"indptr-decreasing: {v}" for v in np.flatnonzero(np.diff(indptr) < 0).tolist())
        if indptr[-1] != k:
            out.append(f"indptr-end: {indptr[-1]} != len(indices) = {k}")
    if g.weights.shape != g.indices.shape:
        out.append(f"weights-length: {g.weights.size} != len(indices) = {k}")
    bad = np.flatnonzero((g.indices < 0) | (g.indices >= n))
    out.extend(f"index-out-of-range: indices[{p}] = {g.indices[p]}" for p in bad.tolist())
    for label, arr in (("vertex-cost", g.vertex_cost), ("vertex-size", g.vertex_size)):
        if arr.shape != (n,):
            out.append(f"{label}-length: {arr.size} != n = {n}")
    return out


def _edge_faults(g: Graph) -> list[str]:
    """Per-entry records, in the order a row-by-row scan meets them.

    Row v first reports each entry's self-loop, repeat and weight faults in
    storage order, then a missing or unequal mirror for each distinct
    neighbour j in order of first appearance. The weight compared is that
    of the last (v, j) entry against that of the first (j, v) entry.
    """
    n, cols, w = g.n, g.indices, g.weights
    if not cols.size:
        return []
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.indptr))
    keys = rows * n + cols
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    first = order[starts]
    last = order[np.r_[starts[1:], keys.size] - 1]
    repeat = np.ones(keys.size, dtype=bool)
    repeat[first] = False

    unique_keys = sorted_keys[starts]
    mirror = cols[first] * n + rows[first]
    hit = np.minimum(np.searchsorted(unique_keys, mirror), unique_keys.size - 1)
    mirrored = (unique_keys[hit] == mirror) & (w[first[hit]] == w[last])
    asymmetric = first[~mirrored & (rows[first] != cols[first])]

    found: list[tuple[int, int, int, int, str]] = []
    for kind, (mask, text) in enumerate(
        (
            (rows == cols, "self-loop: {v}"),
            (repeat, "duplicate-neighbor: ({v}, {j})"),
            (w < 1, "edge-weight < 1: ({v}, {j})"),
        )
    ):
        for p in np.flatnonzero(mask).tolist():
            v, j = int(rows[p]), int(cols[p])
            found.append((v, 0, p, kind, text.format(v=v, j=j)))
    for p in asymmetric.tolist():
        v, j = int(rows[p]), int(cols[p])
        found.append((v, 1, p, 0, f"asymmetry: ({v}, {j})"))
    return [rec[-1] for rec in sorted(found)]


def validate(g: Graph) -> list[str]:
    """Check all Graph invariants and return one record per violation.

    An empty list means the graph is valid. Vertices in the records are
    0-indexed. Malformed arrays (a bad ``indptr``, ``weights`` or vertex
    arrays of the wrong length, indices outside [0, n)) are reported
    instead of the per-edge and per-vertex checks, which need a
    well-formed CSR. The checks are whole-array numpy passes with one sort
    of the m entries.
    """
    out = _structure_faults(g)
    if out:
        return out
    out = _edge_faults(g)
    for v in np.flatnonzero((g.vertex_cost < 0) | (g.vertex_size < 1)).tolist():
        if g.vertex_cost[v] < 0:
            out.append(f"vertex-cost < 0: {v}")
        if g.vertex_size[v] < 1:
            out.append(f"vertex-size < 1: {v}")
    return out


_MM_FIELDS = {"real": 1, "integer": 1, "pattern": 0, "complex": 2}
_MM_SYMMETRIES = {"general", "symmetric", "skew-symmetric", "hermitian"}


def load_matrix_market(path: str | Path) -> Graph:
    """Load the pattern graph of a MatrixMarket coordinate file.

    The matrix must be square. Every off-diagonal entry (i, j) becomes an
    undirected unit-weight edge regardless of its value; diagonal entries
    are dropped and duplicate entries collapse. The result has unit vertex
    costs and sizes.

    Raises ParseError for malformed content and IndexError for entries
    outside the declared dimensions.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty file")

    banner = lines[0].split()
    if len(banner) != 5 or banner[0].lower() != "%%matrixmarket":
        raise ParseError(f"bad MatrixMarket banner: {lines[0]!r}")
    obj, fmt, field, symmetry = (t.lower() for t in banner[1:])
    if obj != "matrix":
        raise ParseError(f"unsupported object {obj!r}")
    if fmt != "coordinate":
        raise ParseError(f"unsupported format {fmt!r} (only coordinate)")
    if field not in _MM_FIELDS:
        raise ParseError(f"unknown field {field!r}")
    if symmetry not in _MM_SYMMETRIES:
        raise ParseError(f"unknown symmetry {symmetry!r}")
    arity = 2 + _MM_FIELDS[field]

    pos = 1
    while pos < len(lines) and (lines[pos].startswith("%") or not lines[pos].strip()):
        pos += 1
    if pos >= len(lines):
        raise ParseError("missing size line")
    size_tokens = lines[pos].split()
    if len(size_tokens) != 3:
        raise ParseError(f"bad size line: {lines[pos]!r}")
    try:
        rows, cols, nnz = (int(t) for t in size_tokens)
    except ValueError as exc:
        raise ParseError(f"bad size line: {lines[pos]!r}") from exc
    if rows != cols:
        raise ParseError(f"matrix is {rows}x{cols}; a graph needs a square matrix")
    if rows < 0 or nnz < 0:
        raise ParseError("negative dimensions")
    n = rows
    pos += 1

    entries = [ln for ln in lines[pos:] if ln.strip()]
    tokens = [ln.split() for ln in entries]
    # The first faulty entry decides the error, as in a line-by-line reader:
    # each check below narrows ``end`` to the first entry it rejects.
    end = min(len(tokens), nnz)
    fault = ParseError("more entries than declared") if len(tokens) > nnz else None
    bad = np.flatnonzero(np.fromiter(map(len, tokens[:end]), np.int64, end) != arity)
    if bad.size:
        end = int(bad[0])
        fault = ParseError(f"entry has {len(tokens[end])} tokens, expected {arity}: {entries[end]!r}")

    def out_of_bounds(i: int, j: int) -> IndexError:
        return IndexError(f"entry ({i}, {j}) out of bounds for declared size {n}")

    try:
        ij = _mm_indices(tokens[:end], arity)
    except (ValueError, OverflowError):
        # rescan entry by entry for the first token that does not parse;
        # an index too large for int64 is out of bounds
        for k, t in enumerate(tokens[:end]):
            try:
                i, j = int(t[0]), int(t[1])
                for x in t[2:]:
                    float(x)
            except ValueError:
                end, fault = k, ParseError(f"malformed entry: {entries[k]!r}")
                break
            if not (1 <= i <= n and 1 <= j <= n):
                raise out_of_bounds(i, j) from None
        ij = _mm_indices(tokens[:end], arity)
    bad = np.flatnonzero(((ij < 1) | (ij > n)).any(axis=1))
    if bad.size:
        raise out_of_bounds(*ij[bad[0]])
    if fault is not None:
        raise fault
    if len(tokens) < nnz:
        raise ParseError(f"declared {nnz} entries, found {len(tokens)}")

    lo, hi = ij.min(axis=1) - 1, ij.max(axis=1) - 1
    pairs = np.unique((lo * n + hi)[lo != hi])
    return Graph.from_edges(n, np.column_stack(np.divmod(pairs, max(n, 1))))


def _mm_indices(tokens: list[list[str]], arity: int) -> np.ndarray:
    """The 1-based (i, j) of entries of ``arity`` tokens each.

    Raises ValueError if a token does not parse, OverflowError if an index
    does not fit in int64.
    """
    flat = list(chain.from_iterable(tokens))
    for col in range(2, arity):
        np.fromiter(map(float, flat[col::arity]), np.float64)
    return np.column_stack([np.fromiter(map(int, flat[col::arity]), np.int64, len(tokens)) for col in (0, 1)])


def _int_tokens(tokens: list[list[str]]) -> np.ndarray:
    """The tokens of all lines, in order, as one int64 array.

    Raises ValueError if a token is not an integer, OverflowError if one
    does not fit in int64.
    """
    return np.fromiter(map(int, chain.from_iterable(tokens)), np.int64, sum(map(len, tokens)))


def load_metis(path: str | Path) -> Graph:
    """Load a graph in METIS format.

    The header is ``n m [fmt [ncon]]``; ``fmt`` is up to three binary
    digits flagging (from the left) vertex sizes, vertex weights, and edge
    weights. Each of the following n lines lists one vertex: optional size,
    optional weight, then 1-based neighbors (each followed by its weight
    when edge weights are flagged). Lines starting with '%' are comments.

    Vertex weights populate vertex_cost and vertex sizes vertex_size; both
    default to 1. Raises ParseError for malformed content and
    AsymmetryError when an edge appears on only one endpoint's line or
    with inconsistent weights.
    """
    with open(path, "r", encoding="utf-8") as fh:
        rows = [ln for ln in fh.read().splitlines() if not ln.startswith("%")]
    if not rows or not rows[0].strip():
        raise ParseError("empty file")

    header = rows[0].split()
    if not 2 <= len(header) <= 4:
        raise ParseError(f"bad header: {rows[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ParseError(f"bad header: {rows[0]!r}") from exc
    if n < 0 or m < 0:
        raise ParseError(f"bad header: {rows[0]!r}")
    fmt = header[2] if len(header) > 2 else "0"
    if len(fmt) > 3 or any(ch not in "01" for ch in fmt):
        raise ParseError(f"bad fmt field: {fmt!r}")
    has_size, has_weight, has_eweight = (ch == "1" for ch in fmt.zfill(3))
    if len(header) > 3:
        try:
            ncon = int(header[3])
        except ValueError as exc:
            raise ParseError(f"bad ncon field: {header[3]!r}") from exc
        if not has_weight:
            raise ParseError("ncon given without the vertex-weight flag")
        if ncon != 1:
            raise ParseError(f"ncon={ncon} unsupported (exactly one vertex weight)")

    # absent trailing lines stand for isolated vertices
    vertex_lines = rows[1:] + [""] * (n - (len(rows) - 1))
    if len(vertex_lines) > n:
        if any(ln.strip() for ln in vertex_lines[n:]):
            raise ParseError(f"expected {n} vertex lines, found {len(rows) - 1}")
        vertex_lines = vertex_lines[:n]

    # The first faulty line decides the error, as in a line-by-line reader:
    # lines past one that does not parse are not checked.
    tokens = [ln.split() for ln in vertex_lines]
    end, parse_fault = n, None
    try:
        flat = _int_tokens(tokens)
    except (ValueError, OverflowError):
        for end, t in enumerate(tokens):
            try:
                _int_tokens([t])
            except ValueError:
                parse_fault = ParseError(f"non-integer token on vertex line {end + 1}")
                break
            except OverflowError:
                parse_fault = ParseError(f"token too large on vertex line {end + 1}")
                break
        tokens = tokens[:end]
        flat = _int_tokens(tokens)
    counts = np.fromiter(map(len, tokens), np.int64, end)
    starts = np.cumsum(counts) - counts
    head = int(has_size) + int(has_weight)
    step = 2 if has_eweight else 1
    padded = np.concatenate((flat, np.zeros(2, dtype=np.int64)))  # reads on short lines stay in range
    size = padded[starts] if has_size else np.ones(end, dtype=np.int64)
    cost = padded[starts + head - 1] if has_weight else np.ones(end, dtype=np.int64)
    full = counts >= head
    no = np.zeros(end, dtype=bool)
    line_fault = _first_fault(
        [
            (counts < 1 if has_size else no, "vertex line {u} missing size"),
            ((counts >= 1) & (size < 1) if has_size else no, "vertex {u} has size {size} < 1"),
            (~full if has_weight else no, "vertex line {u} missing weight"),
            (full & (cost < 0) if has_weight else no, "vertex {u} has weight {cost} < 0"),
            (full & ((counts - head) % step != 0), "vertex line {u}: dangling edge weight"),
        ]
    )

    # one (u, v, w) per neighbour token of the lines without a fault above; v is 0-based
    line = np.repeat(np.arange(end, dtype=np.int64), counts)
    offset = np.arange(flat.size) - starts[line] - head
    at = np.flatnonzero((offset >= 0) & (offset % step == 0))
    if line_fault is not None:
        at = at[line[at] < line_fault[0]]
    u, v = line[at], flat[at] - 1
    w = flat[at + 1] if has_eweight else np.ones(at.size, dtype=np.int64)
    entry_fault = _first_fault(
        [
            ((v < 0) | (v >= n), "vertex line {u}: neighbor {v} out of range"),
            (u == v, "vertex line {u}: self-loop"),
            (_repeats(u * n + v), "vertex line {u}: duplicate neighbor {v}"),
            (w < 1, "vertex line {u}: edge weight {w} < 1"),
        ]
    )
    if entry_fault is not None:
        k, msg = entry_fault
        raise ParseError(msg.format(u=u[k] + 1, v=v[k] + 1, w=w[k]))
    if line_fault is not None:
        k, msg = line_fault
        raise ParseError(msg.format(u=k + 1, size=size[k], cost=cost[k]))
    if parse_fault is not None:
        raise parse_fault

    # neighbours are distinct, so the lines mirror each other iff the sorted
    # (u, v, w) and (v, u, w) records agree
    keys, mirror = u * n + v, v * n + u
    order, mirror_order = np.argsort(keys), np.argsort(mirror)
    if not (np.array_equal(keys[order], mirror[mirror_order]) and np.array_equal(w[order], w[mirror_order])):
        hit = order[np.minimum(np.searchsorted(keys, mirror, sorter=order), keys.size - 1)]
        k = int(np.argmax((keys[hit] != mirror) | (w[hit] != w)))
        raise AsymmetryError(f"edge ({u[k] + 1}, {v[k] + 1}) not mirrored on vertex {v[k] + 1}")
    if keys.size // 2 != m:
        raise ParseError(f"header declares {m} edges, found {keys.size // 2}")

    forward = u < v
    return Graph.from_edges(
        n, np.column_stack((u[forward], v[forward], w[forward])), vertex_cost=cost, vertex_size=size
    )


def save_metis(g: Graph, path: str | Path) -> None:
    """Write ``g`` in METIS format, emitting only the fields it needs.

    A graph written by this function and reloaded with load_metis compares
    equal to the original.
    """
    has_size = bool(np.any(g.vertex_size != 1))
    has_weight = bool(np.any(g.vertex_cost != 1))
    has_eweight = bool(np.any(g.weights != 1))
    fmt = f"{int(has_size)}{int(has_weight)}{int(has_eweight)}".lstrip("0")

    header = f"{g.n} {g.m}"
    if fmt:
        header += f" {fmt}"
        if has_weight:
            header += " 1"
    out = [header]
    for u in range(g.n):
        tokens: list[str] = []
        if has_size:
            tokens.append(str(g.vertex_size[u]))
        if has_weight:
            tokens.append(str(g.vertex_cost[u]))
        nbrs, ws = g.neighbors(u)
        for v, w in zip(nbrs, ws):
            tokens.append(str(v + 1))
            if has_eweight:
                tokens.append(str(w))
        out.append(" ".join(tokens))
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")
