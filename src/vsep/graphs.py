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

    The constructor stores read-only int64 copies of the arrays it is given
    and checks nothing: ``validate`` reports what is wrong, and ``solve`` and
    ``instance_from_graph`` run it once per graph.  ``from_edges``,
    ``load_metis`` and ``load_matrix_market`` reject every fault
    ``validate`` looks for, and build through ``_built``, which takes their
    fresh arrays and sets the graph's ``_checked`` mark.  Every array is a
    read-only copy over immutable ``bytes`` (``_sealed``): neither it nor
    its base can be unlocked by ``setflags(write=True)``, so the mark stays
    true of the graph.
    ``dataclasses.replace``, ``copy`` and pickling go through the
    constructor and give an unmarked graph.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    vertex_cost: np.ndarray
    vertex_size: np.ndarray

    def __post_init__(self):
        for name in ("indptr", "indices", "weights", "vertex_cost", "vertex_size"):
            object.__setattr__(self, name, _sealed(np.asarray(getattr(self, name), dtype=np.int64)))
        object.__setattr__(self, "_checked", False)

    @classmethod
    def _built(cls, n, indptr, indices, weights, vertex_cost, vertex_size) -> "Graph":
        """A checked graph over sealed copies of int64 arrays that this
        module built; they must satisfy every invariant ``validate``
        checks."""
        arrays = dict(indptr=indptr, indices=indices, weights=weights, vertex_cost=vertex_cost, vertex_size=vertex_size)
        g = cls.__new__(cls)
        # frozen: bypass __setattr__, as __init__ does
        g.__dict__.update(n=n, _checked=True, **{name: _sealed(arr) for name, arr in arrays.items()})
        return g

    def __reduce__(self):
        """Copies and unpickled graphs are rebuilt by the constructor, unmarked."""
        return type(self), (self.n, self.indptr, self.indices, self.weights, self.vertex_cost, self.vertex_size)

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
        out-of-range endpoints, nonpositive weights or non-integral values,
        naming the first offending edge or value.
        """
        if isinstance(edges, np.ndarray):
            if edges.ndim != 2 or edges.shape[1] not in (2, 3):
                raise ValueError(f"edge array has shape {edges.shape}, expected (m, 2) or (m, 3)")
            arr = _int_array(edges, "edges")
        else:
            arr = _int_array([(e[0], e[1], e[2] if len(e) > 2 else 1) for e in edges], "edges").reshape(-1, 3)
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

        cost = np.ones(n, dtype=np.int64) if vertex_cost is None else _int_array(vertex_cost, "vertex_cost")
        size = np.ones(n, dtype=np.int64) if vertex_size is None else _int_array(vertex_size, "vertex_size")
        if cost.shape != (n,) or size.shape != (n,):
            raise ValueError("vertex_cost/vertex_size must have length n")
        if np.any(cost < 0):
            raise ValueError("vertex costs must be >= 0")
        if np.any(size < 1):
            raise ValueError("vertex sizes must be >= 1")
        return cls._built(n, indptr, cols[order], np.concatenate((w, w))[order], cost, size)


def _sealed(arr: np.ndarray) -> np.ndarray:
    """A read-only copy of ``arr`` over immutable ``bytes``, which numpy
    cannot make writable again, unlike an array that owns its memory."""
    return np.frombuffer(arr.tobytes(), dtype=arr.dtype).reshape(arr.shape)


def _int_array(values: Iterable, name: str) -> np.ndarray:
    """``values`` as an int64 array; ValueError naming the first entry (a
    row of a matrix) that holds a float an int64 cannot equal."""
    arr = np.asarray(values if isinstance(values, np.ndarray) else list(values))
    if arr.dtype.kind == "f":
        bad = ~(np.abs(arr) < 2.0**63) | (np.floor(arr) != arr)
        if bad.any():
            k = int(np.argwhere(bad)[0, 0])
            raise ValueError(f"{name}[{k}] = {arr[k].tolist()} is not integral")
    return arr.astype(np.int64, copy=False)


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
    by_mirror = np.argsort(mirror)  # searching in sorted order is ~3x faster than in random order
    hit = np.empty_like(by_mirror)
    hit[by_mirror] = np.minimum(np.searchsorted(unique_keys, mirror[by_mirror]), unique_keys.size - 1)
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


def _ensure_valid(g: Graph) -> None:
    """Mark ``g`` checked once ``validate`` finds nothing; else ValueError names its first three faults."""
    if not g._checked:
        problems = validate(g)
        if problems:
            raise ValueError(f"invalid graph: {problems[:3]}")
        object.__setattr__(g, "_checked", True)


_MAX_DIGITS = 18  # every token of at most 18 digits fits in int64
_OTHER_BREAKS = b"\r\x0b\x0c\x1c\x1d\x1e"  # ASCII bytes besides "\n" that str.splitlines breaks at
_INT64 = range(-(2**63), 2**63)


class _Lines:
    """The lines of a UTF-8 text file as ``str.splitlines`` splits them.

    The file's bytes are read once, and whole-array passes split every line
    into tokens at spaces and tabs. That is how ``str.split`` splits a line
    of printable ASCII (``exact``). A line is ``plain`` when it holds only
    ASCII digits, spaces and tabs, in tokens of at most 18 digits, which
    ``ints`` converts to int64; ``digits`` finds such tokens on other
    lines, and ``floats`` asks ``float()`` whether it reads a set of
    tokens. Other lines are read as ``str`` by ``line`` and ``tokens``.
    """

    def __init__(self, path: str | Path):
        data = Path(path).read_bytes()
        if not data.isascii() or any(c in data for c in _OTHER_BREAKS):
            data = _one_break_per_line(data)
        self.data = data
        self.bytes = b = np.frombuffer(data, dtype=np.uint8)
        newline = b == ord("\n")
        solid = ~(newline | (b == ord(" ")) | (b == ord("\t")))
        ends = np.flatnonzero(newline)
        if data and data[-1:] != b"\n":
            ends = np.append(ends, len(data))
        self.size = ends.size
        self.starts, self.ends = np.concatenate(([0], ends[:-1] + 1))[: ends.size], ends
        edges = np.flatnonzero(np.diff(solid, prepend=False, append=False))
        self.tok_start, self.tok_end = edges[0::2], edges[1::2]
        self.first = np.searchsorted(self.tok_start, self.starts)
        self.counts = np.diff(self.first, append=self.tok_start.size)
        long = self.tok_start[self.tok_end - self.tok_start > _MAX_DIGITS]
        self.exact = self._without(np.flatnonzero(solid & (b - ord("!") > ord("~") - ord("!"))))
        self.plain = self._without(np.flatnonzero(solid & (b - ord("0") > 9))) & self._without(long)

    def _without(self, positions: np.ndarray) -> np.ndarray:
        """Mask of the lines that hold none of the byte ``positions``."""
        out = np.ones(self.size, dtype=bool)
        out[np.searchsorted(self.ends, positions)] = False
        return out

    def line(self, k: int) -> str:
        return self.data[self.starts[k] : self.ends[k]].decode("utf-8")

    def tokens(self, k: int) -> list[str]:
        return self.line(k).split()

    def count(self, lines: np.ndarray) -> np.ndarray:
        """The number of tokens on each of ``lines``."""
        out = self.counts[lines]
        for i in np.flatnonzero(~self.exact[lines]).tolist():
            out[i] = len(self.tokens(int(lines[i])))
        return out

    def token_index(self, lines: np.ndarray) -> np.ndarray:
        """The tokens of the exact ``lines``, in order."""
        return _ranges(self.first[lines], self.counts[lines])

    def ints(self, at: np.ndarray) -> np.ndarray:
        """The tokens ``at``, each at most 18 ASCII digits, as int64."""
        start, length = self.tok_start[at], self.tok_end[at] - self.tok_start[at]
        value = np.zeros(at.shape, dtype=np.int64)
        for d in range(int(length.max(initial=0))):  # bytes past a token's end are read and dropped
            digit = self.bytes.take(start + d, mode="clip") - ord("0")
            value = np.where(length > d, value * 10 + digit, value)
        return value

    def digits(self, at: np.ndarray) -> np.ndarray:
        """Mask of the tokens ``at`` that are at most 18 ASCII digits."""
        start, length = self.tok_start[at], self.tok_end[at] - self.tok_start[at]
        out = length <= _MAX_DIGITS
        for d in range(int(length[out].max(initial=0))):
            out &= (length <= d) | (self.bytes.take(start + d, mode="clip") - ord("0") <= 9)
        return out

    def floats(self, at: np.ndarray) -> bool:
        """Whether ``float()`` reads every token ``at``."""
        try:
            for start, end in zip(self.tok_start[at].tolist(), self.tok_end[at].tolist()):
                float(self.data[start:end])
        except ValueError:
            return False
        return True


def _one_break_per_line(data: bytes) -> bytes:
    """``data`` decoded as UTF-8, with each line ``str.splitlines`` finds ended by one "\\n"."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"line {line} is not UTF-8: byte {exc.start} ({exc.reason})") from None
    return "".join(ln + "\n" for ln in text.splitlines()).encode("utf-8")


def _ranges(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges [first[k], first[k] + counts[k]), concatenated."""
    return np.repeat(first - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())


def _int64(tokens: list[str]) -> list[int]:
    """``tokens`` as ints; ValueError names the first that is no int64."""
    out = []
    for t in tokens:
        try:
            x = int(t)
        except ValueError:
            raise ValueError("non-integer token") from None
        if x not in _INT64:
            raise ValueError("token too large")
        out.append(x)
    return out


def _allocatable(n: int) -> bool:
    """Whether n vertices keep the int64 keys u * n + v exact and their indptr, costs and sizes fit in memory."""
    try:
        return n * n < 2**63 and np.empty((3, n + 1), dtype=np.int64).size > 0  # never written
    except MemoryError:
        return False


_MM_FIELDS = {"real": 1, "integer": 1, "pattern": 0, "complex": 2}
_MM_SYMMETRIES = {"general", "symmetric", "skew-symmetric", "hermitian"}


def load_matrix_market(path: str | Path) -> Graph:
    """Load the pattern graph of a MatrixMarket coordinate file.

    The matrix must be square. Every off-diagonal entry (i, j) becomes an
    undirected unit-weight edge regardless of its value; diagonal entries
    are dropped and duplicate entries collapse. The result has unit vertex
    costs and sizes. Indices are read as by ``int()`` and every value must
    be one that ``float()`` reads.

    Raises ParseError for malformed content and IndexError for entries
    outside the declared dimensions.
    """
    text = _Lines(path)
    if not text.size:
        raise ParseError("empty file")

    banner_line = text.line(0)
    banner = banner_line.split()
    if len(banner) != 5 or banner[0].lower() != "%%matrixmarket":
        raise ParseError(f"bad MatrixMarket banner: {banner_line!r}")
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
    while pos < text.size and (text.line(pos).startswith("%") or not text.line(pos).strip()):
        pos += 1
    if pos >= text.size:
        raise ParseError("missing size line")
    size_line = text.line(pos)
    size_tokens = size_line.split()
    if len(size_tokens) != 3:
        raise ParseError(f"bad size line: {size_line!r}")
    try:
        rows, cols, nnz = (int(t) for t in size_tokens)
    except ValueError as exc:
        raise ParseError(f"bad size line: {size_line!r}") from exc
    if rows != cols:
        raise ParseError(f"matrix is {rows}x{cols}; a graph needs a square matrix")
    if rows < 0 or nnz < 0:
        raise ParseError("negative dimensions")
    if not _allocatable(rows):
        raise ParseError(f"bad size line: {size_line!r} declares more vertices than can be allocated")
    n = rows

    lines = np.arange(pos + 1, text.size)
    counts = text.count(lines)
    entries, counts = lines[counts > 0], counts[counts > 0]
    # The first faulty entry decides the error, as in a line-by-line reader:
    # each check below narrows ``end`` to the first entry it rejects, and an
    # entry outside the declared size before ``end`` comes first.
    end = min(entries.size, nnz)
    fault = ParseError("more entries than declared") if entries.size > nnz else None
    bad = np.flatnonzero(counts[:end] != arity)
    if bad.size:
        end = int(bad[0])
        fault = ParseError(f"entry has {counts[end]} tokens, expected {arity}: {text.line(entries[end])!r}")
    # An entry of printable ASCII whose indices are plain ints is read by
    # whole-array passes when float() reads every value of those entries;
    # any other entry goes through int() and float() one by one. Only the
    # entries that are not plain (values, signs, long tokens) are checked.
    exact = np.flatnonzero(text.exact[entries[:end]])
    at = text.token_index(entries[exact]).reshape(-1, arity)
    read = text.plain[entries[exact]]
    check = np.flatnonzero(~read)
    check = check[text.digits(at[check, :2]).all(axis=1)]
    read[check] = text.floats(at[check, 2:].ravel())
    fast = np.zeros(end, dtype=bool)
    fast[exact[read]] = True
    ij = np.empty((end, 2), dtype=np.int64)
    ij[fast] = text.ints(at[read, :2])
    special: dict[int, tuple[int, int]] = {}
    for k in np.flatnonzero(~fast).tolist():
        t = text.tokens(int(entries[k]))
        try:
            i, j = int(t[0]), int(t[1])
            for x in t[2:]:
                float(x)
        except ValueError:
            end, fault = k, ParseError(f"malformed entry: {text.line(entries[k])!r}")
            break
        special[k] = i, j

    ij, fast = ij[:end], fast[:end]
    outside = [(k, i, j) for k, (i, j) in special.items() if not (1 <= i <= n and 1 <= j <= n)][:1]
    bad = np.flatnonzero(fast & ((ij < 1) | (ij > n)).any(axis=1))
    if bad.size:
        outside.append((bad[0], *ij[bad[0]]))
    if outside:
        _, i, j = min(outside)
        raise IndexError(f"entry ({i}, {j}) out of bounds for declared size {n}")
    if fault is not None:
        raise fault
    if entries.size < nnz:
        raise ParseError(f"declared {nnz} entries, found {entries.size}")

    for k, (i, j) in special.items():
        ij[k] = i, j
    u, v = ij[:, 0] - 1, ij[:, 1] - 1
    off = u != v
    keys = np.sort(np.concatenate((u[off] * n + v[off], v[off] * n + u[off])))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    row, col = np.divmod(keys, max(n, 1))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    unit = np.ones(n, dtype=np.int64)
    return Graph._built(n, indptr, col, np.ones(keys.size, dtype=np.int64), unit, unit)


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
    text = _Lines(path)
    rows = np.flatnonzero(text.bytes[text.starts] != ord("%"))  # an empty line starts at its "\n"
    if not rows.size or not text.line(rows[0]).strip():
        raise ParseError("empty file")

    header_line = text.line(rows[0])
    header = header_line.split()
    if not 2 <= len(header) <= 4:
        raise ParseError(f"bad header: {header_line!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ParseError(f"bad header: {header_line!r}") from exc
    if n < 0 or m < 0 or not _allocatable(n):
        raise ParseError(f"bad header: {header_line!r}")
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
    vertex_lines = rows[1 : n + 1]
    if rows.size > n + 1 and text.count(rows[n + 1 :]).any():
        raise ParseError(f"expected {n} vertex lines, found {rows.size - 1}")

    # The first faulty line decides the error, as in a line-by-line reader:
    # lines past one that does not parse are not checked.
    end, parse_fault = n, None
    special: dict[int, list[int]] = {}
    for k in np.flatnonzero(~text.plain[vertex_lines]).tolist():
        try:
            special[k] = _int64(text.tokens(int(vertex_lines[k])))
        except ValueError as exc:
            end, parse_fault = k, ParseError(f"{exc} on vertex line {k + 1}")
            break
    present = vertex_lines[:end]
    counts = np.zeros(end, dtype=np.int64)
    counts[: present.size] = text.counts[present]
    for k, values in special.items():
        counts[k] = len(values)
    starts = np.cumsum(counts) - counts
    if special:
        plain = np.flatnonzero(text.plain[present])
        flat = np.empty(counts.sum(), dtype=np.int64)
        flat[_ranges(starts[plain], counts[plain])] = text.ints(text.token_index(present[plain]))
        for k, values in special.items():
            flat[starts[k] : starts[k] + counts[k]] = values
    else:
        flat = text.ints(text.token_index(present))

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

    # one (u, v, w) per neighbour token of the lines before the first faulty
    # one, in file order; v is 0-based
    ok = end if line_fault is None else line_fault[0]
    degree = (counts[:ok] - head) // step
    u = np.repeat(np.arange(ok, dtype=np.int64), degree)
    at = _ranges(starts[:ok] + head, degree * step)[::step]
    v = flat[at] - 1
    w = flat[at + 1] if has_eweight else np.ones(at.size, dtype=np.int64)
    # one sort puts the entries in CSR order and finds repeats; files that
    # list each line's neighbours in ascending order skip it
    keys = u * n + v
    order = None if np.all(keys[1:] > keys[:-1]) else np.argsort(keys, kind="stable")
    repeat = np.zeros(keys.size, dtype=bool)
    if order is not None:
        repeat[order[1:][keys[order[1:]] == keys[order[:-1]]]] = True
    entry_fault = _first_fault(
        [
            ((v < 0) | (v >= n), "vertex line {u}: neighbor {v} out of range"),
            (u == v, "vertex line {u}: self-loop"),
            (repeat, "vertex line {u}: duplicate neighbor {v}"),
            (w < 1, "vertex line {u}: edge weight {w} < 1"),
        ]
    )
    if entry_fault is not None:
        k, msg = entry_fault
        raise ParseError(msg.format(u=u[k] + 1, v=flat[at[k]], w=w[k]))  # v + 1 can wrap
    if line_fault is not None:
        k, msg = line_fault
        raise ParseError(msg.format(u=k + 1, size=size[k], cost=cost[k]))
    if parse_fault is not None:
        raise parse_fault

    # neighbours are distinct, so the lines mirror each other iff the sorted
    # (u, v, w) and (v, u, w) records agree
    if order is not None:
        keys, u, v, w = keys[order], u[order], v[order], w[order]
    mirror = v * n + u
    if has_eweight:
        mirror_order = np.argsort(mirror)
        mirrored = np.array_equal(keys, mirror[mirror_order]) and np.array_equal(w, w[mirror_order])
    else:
        mirrored = np.array_equal(keys, np.sort(mirror))
    if not mirrored:
        hit = np.minimum(np.searchsorted(keys, mirror), keys.size - 1)
        unmirrored = np.flatnonzero((keys[hit] != mirror) | (w[hit] != w))
        k = int(unmirrored[0] if order is None else unmirrored[np.argmin(order[unmirrored])])  # first in the file
        raise AsymmetryError(f"edge ({u[k] + 1}, {v[k] + 1}) not mirrored on vertex {v[k] + 1}")
    if keys.size // 2 != m:
        raise ParseError(f"header declares {m} edges, found {keys.size // 2}")

    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(u, minlength=n), out=indptr[1:])
    return Graph._built(n, indptr, v, w, cost, size)


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
