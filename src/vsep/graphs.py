"""Sparse undirected graph container and MatrixMarket / METIS file I/O."""

from __future__ import annotations

from dataclasses import dataclass
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
        edges: Iterable[tuple[int, ...]],
        vertex_cost: Iterable[int] | None = None,
        vertex_size: Iterable[int] | None = None,
    ) -> "Graph":
        """Build a graph from undirected edges (u, v) or (u, v, w), 0-indexed.

        Raises ValueError on self-loops, duplicate edges, out-of-range
        endpoints, or nonpositive weights.
        """
        seen: dict[tuple[int, int], int] = {}
        for e in edges:
            u, v = int(e[0]), int(e[1])
            w = int(e[2]) if len(e) > 2 else 1
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if w < 1:
                raise ValueError(f"edge ({u}, {v}) has weight {w} < 1")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen[key] = w

        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for (u, v), w in seen.items():
            adj[u].append((v, w))
            adj[v].append((u, w))
        indptr = np.zeros(n + 1, dtype=np.int64)
        indices = []
        weights = []
        for u in range(n):
            adj[u].sort()
            indptr[u + 1] = indptr[u] + len(adj[u])
            indices.extend(j for j, _ in adj[u])
            weights.extend(w for _, w in adj[u])

        cost = np.ones(n, dtype=np.int64) if vertex_cost is None else np.asarray(list(vertex_cost), dtype=np.int64)
        size = np.ones(n, dtype=np.int64) if vertex_size is None else np.asarray(list(vertex_size), dtype=np.int64)
        if cost.shape != (n,) or size.shape != (n,):
            raise ValueError("vertex_cost/vertex_size must have length n")
        if np.any(cost < 0):
            raise ValueError("vertex costs must be >= 0")
        if np.any(size < 1):
            raise ValueError("vertex sizes must be >= 1")
        return cls(n, indptr, np.asarray(indices, dtype=np.int64), np.asarray(weights, dtype=np.int64), cost, size)


def validate(g: Graph) -> list[str]:
    """Check all Graph invariants and return one record per violation.

    An empty list means the graph is valid. Vertices in the records are
    0-indexed.
    """
    out: list[str] = []
    for v in range(g.n):
        nbrs, ws = g.neighbors(v)
        seen: dict[int, int] = {}
        for j, w in zip(nbrs, ws):
            j = int(j)
            if j == v:
                out.append(f"self-loop: {v}")
            if j in seen:
                out.append(f"duplicate-neighbor: ({v}, {j})")
            seen[j] = int(w)
            if w < 1:
                out.append(f"edge-weight < 1: ({v}, {j})")
        for j, w in seen.items():
            if j == v:
                continue
            back, back_ws = g.neighbors(j)
            hits = np.flatnonzero(back == v)
            if hits.size == 0 or int(back_ws[hits[0]]) != w:
                out.append(f"asymmetry: ({v}, {j})")
    for v in range(g.n):
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

    pairs: set[tuple[int, int]] = set()
    count = 0
    for line in lines[pos:]:
        if not line.strip():
            continue
        if count >= nnz:
            raise ParseError("more entries than declared")
        tokens = line.split()
        if len(tokens) != arity:
            raise ParseError(f"entry has {len(tokens)} tokens, expected {arity}: {line!r}")
        try:
            i, j = int(tokens[0]), int(tokens[1])
            for t in tokens[2:]:
                float(t)
        except ValueError as exc:
            raise ParseError(f"malformed entry: {line!r}") from exc
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexError(f"entry ({i}, {j}) out of bounds for declared size {n}")
        count += 1
        if i != j:
            pairs.add((i - 1, j - 1) if i < j else (j - 1, i - 1))
    if count < nnz:
        raise ParseError(f"declared {nnz} entries, found {count}")

    return Graph.from_edges(n, sorted(pairs))


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

    cost = np.ones(n, dtype=np.int64)
    size = np.ones(n, dtype=np.int64)
    adj: list[dict[int, int]] = [dict() for _ in range(n)]
    for u in range(n):
        try:
            tokens = [int(t) for t in vertex_lines[u].split()]
        except ValueError as exc:
            raise ParseError(f"non-integer token on vertex line {u + 1}") from exc
        k = 0
        if has_size:
            if k >= len(tokens):
                raise ParseError(f"vertex line {u + 1} missing size")
            size[u] = tokens[k]
            if size[u] < 1:
                raise ParseError(f"vertex {u + 1} has size {size[u]} < 1")
            k += 1
        if has_weight:
            if k >= len(tokens):
                raise ParseError(f"vertex line {u + 1} missing weight")
            cost[u] = tokens[k]
            if cost[u] < 0:
                raise ParseError(f"vertex {u + 1} has weight {cost[u]} < 0")
            k += 1
        rest = tokens[k:]
        step = 2 if has_eweight else 1
        if len(rest) % step:
            raise ParseError(f"vertex line {u + 1}: dangling edge weight")
        for t in range(0, len(rest), step):
            v = rest[t]
            w = rest[t + 1] if has_eweight else 1
            if not (1 <= v <= n):
                raise ParseError(f"vertex line {u + 1}: neighbor {v} out of range")
            if v - 1 == u:
                raise ParseError(f"vertex line {u + 1}: self-loop")
            if v - 1 in adj[u]:
                raise ParseError(f"vertex line {u + 1}: duplicate neighbor {v}")
            if w < 1:
                raise ParseError(f"vertex line {u + 1}: edge weight {w} < 1")
            adj[u][v - 1] = w

    for u in range(n):
        for v, w in adj[u].items():
            if adj[v].get(u) != w:
                raise AsymmetryError(f"edge ({u + 1}, {v + 1}) not mirrored on vertex {v + 1}")
    found = sum(len(a) for a in adj) // 2
    if found != m:
        raise ParseError(f"header declares {m} edges, found {found}")

    edges = [(u, v, w) for u in range(n) for v, w in adj[u].items() if u < v]
    return Graph.from_edges(n, edges, vertex_cost=cost, vertex_size=size)


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
