"""Bilinear separator program at one level of the hierarchy.

The program maximizes  c.(x + y) - gamma * x.B.y  over the box [0,1]^n
with sum constraints  la <= s.x <= ua  and  lb <= s.y <= ub.  At the
finest level B is the adjacency matrix plus the identity and s is all
ones; coarse levels aggregate both.  With gamma at its initial value
(the largest cost, or 1 when every cost is 0), binary points with
x.B.y = 0 encode vertex separators: A = {x_i = 1}, B = {y_i = 1}, S =
the rest.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from itertools import compress
from typing import Sequence

import numpy as np

from .graphs import Graph, _ensure_valid, _ranges, _sealed

EPS = 1e-9

# below this dimension a dense copy of B makes matvecs noticeably cheaper
_DENSE_LIMIT = 128

# escape probes a row max(1, _PROBE_CELLS // (live rows * n)) gamma steps ahead
_PROBE_CELLS = 4096

# from this many entries of B on, bdot keeps the products of the last _RECENT
# vectors and patches one when at most 1/_PATCH_SHARE of B's entries are re-added;
# below it the plain product costs less than the bookkeeping
_RECENT_NNZ = 4096
_RECENT = 4
_PATCH_SHARE = 4


class DimensionMismatchError(ValueError):
    """Vector length does not match the instance dimension."""


class InfeasibleBoundsError(ValueError):
    """No point in the box can satisfy the sum bounds."""


class DegenerateRepairError(RuntimeError):
    """Rounding cannot reach a binary orthogonal point without breaking a lower bound."""


class NotBinaryError(ValueError):
    """Operation requires a binary point."""


class NotOrthogonalError(ValueError):
    """Operation requires x.B.y = 0."""


class MonotonicityError(RuntimeError):
    """Internal check failed: a block update decreased the objective."""


class CsrMatrix:
    """A float64 matrix in compressed sparse row form.

    Row i holds the entries ``data[indptr[i]:indptr[i + 1]]`` in the columns
    ``indices[indptr[i]:indptr[i + 1]]``, which ascend without repeats;
    the index arrays are int64.  ``B @ v`` adds each row's products
    ``data[e] * v[indices[e]]`` in storage order, starting from 0, as
    scipy's CSR product does, so the two give the same bits.

    The constructor checks that form in O(nnz); ``from_entries`` builds it
    from unordered entries.  Every array is a read-only copy over immutable
    ``bytes`` (``graphs._sealed``): neither it nor its base can be unlocked
    by ``setflags(write=True)``, so a ``_symmetric`` mark stays true of the
    matrix.
    """

    __slots__ = ("data", "indices", "indptr", "shape", "rows", "_symmetric")

    def __init__(self, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, shape: tuple[int, int]):
        data = np.asarray(data, dtype=np.float64)
        indices = np.asarray(indices, dtype=np.int64)
        indptr = np.asarray(indptr, dtype=np.int64)
        shape = (int(shape[0]), int(shape[1]))
        if indptr.shape != (shape[0] + 1,) or indptr[0] != 0 or np.any(np.diff(indptr) < 0):
            raise ValueError(f"indptr must rise from 0 in {shape[0] + 1} steps")
        if data.shape != (indptr[-1],) or indices.shape != (indptr[-1],):
            raise ValueError(f"data and indices must hold indptr[-1] = {indptr[-1]} entries")
        if indices.size and (indices.min() < 0 or indices.max() >= shape[1]):
            raise ValueError(f"column indices must lie in [0, {shape[1]})")
        self._own(data, indices, indptr, shape, symmetric=False)
        keys = self.rows * shape[1] + indices
        if np.any(keys[1:] <= keys[:-1]):
            e = int(np.flatnonzero(keys[1:] <= keys[:-1])[0]) + 1
            raise ValueError(f"the columns of row {self.rows[e]} must ascend without repeats")

    def _own(self, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, shape: tuple[int, int], symmetric: bool) -> None:
        """Take sealed copies of arrays already in the canonical form, unchecked."""
        self.data, self.indices, self.indptr = _sealed(data), _sealed(indices), _sealed(indptr)
        self.shape = shape
        self.rows = _sealed(np.repeat(np.arange(shape[0]), np.diff(indptr)))  # the row of each entry
        self._symmetric = symmetric  # set once a CbpInstance has checked it, or when built symmetric

    @classmethod
    def _built(cls, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, shape: tuple[int, int], symmetric: bool = False) -> "CsrMatrix":
        """A matrix over arrays that this module built in canonical form."""
        B = cls.__new__(cls)
        B._own(data, indices, indptr, shape, symmetric)
        return B

    @classmethod
    def from_entries(cls, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape: tuple[int, int]) -> "CsrMatrix":
        """The matrix whose entry (i, j) is the sum of the values at (i, j):
        one sort of the keys i * ncols + j, then a sum of each run of equal
        keys (exact for integers while the sums stay below 2**53).

        Where int64 has room, each key carries its entry's index in its low
        bits, and sorting those values costs less than an argsort."""
        keys = np.multiply(rows, shape[1], dtype=np.int64)
        keys += cols
        bits = keys.size.bit_length()
        if (shape[0] * shape[1]).bit_length() + bits < 64:
            keys <<= bits
            keys |= np.arange(keys.size)
            keys.sort()
            order = keys & ((1 << bits) - 1)
            keys >>= bits
        else:
            order = np.argsort(keys)
            keys = keys[order]
        first = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        data = np.add.reduceat(np.asarray(vals, dtype=np.float64)[order], starts)
        keys = keys[starts]
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // max(shape[1], 1), minlength=shape[0]), out=indptr[1:])
        return cls._built(data, keys % max(shape[1], 1), indptr, shape)

    def contracted(self, cmap: np.ndarray, nc: int) -> "CsrMatrix":
        """P^T B P for the 0/1 aggregation matrix P with P[i, cmap[i]] = 1:
        one sum of entries, exact for integers below 2**53, and symmetric
        when B is."""
        C = CsrMatrix.from_entries(cmap[self.rows], cmap[self.indices], self.data, (nc, nc))
        C._symmetric = self._symmetric
        return C

    @property
    def nnz(self) -> int:
        return self.data.size

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        dense[self.rows, self.indices] = self.data
        return dense

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """B @ v for a vector, or B @ each column of an (ncols, k) array."""
        v = np.asarray(v, dtype=np.float64)
        if v.ndim not in (1, 2) or v.shape[0] != self.shape[1]:
            raise DimensionMismatchError(f"cannot multiply a {self.shape} matrix by shape {v.shape}")
        return self._product(v.T).T

    def _product(self, v: np.ndarray) -> np.ndarray:
        """B @ v for a vector, or B @ each row of a (rows, ncols) stack, in one
        sum whose bins each add one row's terms in storage order."""
        terms = v.take(self.indices, axis=-1)
        terms *= self.data
        if v.ndim == 1:
            return np.bincount(self.rows, terms, minlength=self.shape[0])
        m, k = self.shape[0], len(v)
        bins = (self.rows + m * np.arange(k)[:, None]).ravel()  # each stack row's bins after the last's
        return np.bincount(bins, terms.ravel(), minlength=k * m).reshape(k, m)

    def _row_products(self, rows: np.ndarray, v: np.ndarray) -> np.ndarray:
        """(B @ v)[rows], each row summed as ``B @ v`` sums it."""
        counts = self.indptr[rows + 1] - self.indptr[rows]
        at = _ranges(self.indptr[rows], counts)
        terms = self.data[at] * v[self.indices[at]]
        return np.bincount(np.repeat(np.arange(rows.size), counts), terms, minlength=rows.size)


def _as_csr(B) -> CsrMatrix:
    """B as a CsrMatrix: B itself if it is one (its constructor checked its
    form), else from a dense array or from anything with ``tocsr()`` (a
    scipy sparse matrix).  Repeated entries add up, stored zeros stay."""
    if isinstance(B, CsrMatrix):
        return B
    if hasattr(B, "tocsr"):
        m = B.tocsr()
        indptr = np.asarray(m.indptr, dtype=np.int64)
        rows, cols, vals = np.repeat(np.arange(m.shape[0]), np.diff(indptr)), m.indices, m.data
    else:
        m = np.asarray(B, dtype=np.float64)
        if m.ndim != 2:
            raise DimensionMismatchError(f"B has shape {m.shape}, expected a matrix")
        rows, cols = np.nonzero(m)
        vals = m[rows, cols]
    return CsrMatrix.from_entries(rows, cols, vals, tuple(int(d) for d in m.shape))


def _check_symmetric(B: CsrMatrix) -> None:
    """ValueError naming the first entry, in storage order, whose mirror differs."""
    n = B.shape[0]
    keys = B.rows * n + B.indices  # ascending
    mirror = B.indices * n + B.rows
    at = np.minimum(np.searchsorted(keys, mirror), keys.size - 1)
    mirrored = np.where(keys[at] == mirror, B.data[at], 0.0)
    bad = np.flatnonzero(mirrored != B.data)
    if bad.size:
        e = bad[0]
        i, j = int(B.rows[e]), int(B.indices[e])
        raise ValueError(f"B is not symmetric: B[{i}, {j}] = {B.data[e]:g} but B[{j}, {i}] = {mirrored[e]:g}")


class _RecentProducts:
    """B @ v for float64 vectors, patched from the product of a recent vector.

    When v differs from a recent vector u only on the coordinates D, B @ v
    differs from B @ u only on the rows next to D, which for a symmetric B
    are the columns of B's rows D.  Those rows are summed again, each as
    ``B @ v`` sums it, and every other row keeps u's bits: the result is
    ``B @ v`` bit for bit, whatever the values.  v is compared with the
    last _RECENT vectors, most recent first, and stops at an equal one;
    else it is patched from the nearest one when the entries to re-add,
    bounded by the two-hop entry counts of D, are at most 1/_PATCH_SHARE
    of B's, and takes the full product otherwise.

    A lock serialises the calls, so threads sharing an instance never see
    a vector kept without its product.
    """

    def __init__(self, B: CsrMatrix):
        self.B = B
        self.lock = threading.Lock()
        self.vecs = np.empty((_RECENT, B.shape[0]))
        self.prods = np.empty((_RECENT, B.shape[0]))
        self.slots: list[int] = []  # the filled slots, most recently used first
        lengths = np.diff(B.indptr).astype(np.float64)
        # the entries in the rows next to each vertex: its two-hop entry count
        self.two_hop = np.bincount(B.rows, lengths[B.indices], minlength=B.shape[0])

    def __call__(self, v: np.ndarray) -> np.ndarray:
        with self.lock:
            return self._recent_or_product(v)

    def _recent_or_product(self, v: np.ndarray) -> np.ndarray:
        B = self.B
        nearest = None
        for k in self.slots:
            differ = v != self.vecs[k]
            count = np.count_nonzero(differ)
            if not count:
                self.slots.remove(k)
                self.slots.insert(0, k)
                return self.prods[k].copy()
            if nearest is None or count < nearest[0]:
                nearest = count, k, differ
        if nearest is not None:
            _, k, differ = nearest
            changed = np.flatnonzero(differ)
            if self.two_hop[changed].sum() * _PATCH_SHARE <= B.nnz:
                out = self.prods[k].copy()
                counts = B.indptr[changed + 1] - B.indptr[changed]
                rows = np.unique(B.indices[_ranges(B.indptr[changed], counts)])
                out[rows] = B._row_products(rows, v)
                self._keep(v, out)
                return out
        out = B._product(v)
        self._keep(v, out)
        return out

    def _keep(self, v: np.ndarray, prod: np.ndarray) -> None:
        """Keep v and its product in a free slot, or in the least recently used one."""
        k = self.slots.pop() if len(self.slots) == _RECENT else len(self.slots)
        self.vecs[k], self.prods[k] = v, prod
        self.slots.insert(0, k)


@dataclass(frozen=True, eq=False)
class CbpInstance:
    """One level's bilinear program data.

    Costs are integers >= 0 and sizes integers >= 1, kept as sealed
    float64 copies (``graphs._sealed``).  ``B`` is symmetric with integer
    entries >= 1 on its diagonal and on exactly the interaction
    (edge/aggregate) structure; it may be given as a ``CsrMatrix``, a dense
    array or a scipy sparse matrix, and is kept as a ``CsrMatrix``.  The
    costs, the sizes and the entries of ``B`` each sum below 2**53, so
    float64 adds them exactly on every level.  ``gamma0`` is max(c), or 1
    when every cost is 0: the penalty must stay positive to keep x and y
    apart.
    """

    n: int
    B: CsrMatrix
    c: np.ndarray
    s: np.ndarray
    la: int
    ua: int
    lb: int
    ub: int
    gamma0: float = field(init=False)

    def __post_init__(self):
        B = _as_csr(self.B)
        object.__setattr__(self, "B", B)
        c, s = _sealed(np.asarray(self.c, dtype=np.float64)), _sealed(np.asarray(self.s, dtype=np.float64))
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "s", s)
        if B.shape != (self.n, self.n):
            raise DimensionMismatchError(f"B is {B.shape}, expected ({self.n}, {self.n})")
        if c.shape != (self.n,) or s.shape != (self.n,):
            raise DimensionMismatchError("c and s must have length n")
        if np.any(c < 0) or np.any(np.floor(c) != c):
            raise ValueError("costs must be integers >= 0")
        if np.any(s < 1) or np.any(np.floor(s) != s):
            raise ValueError("sizes must be integers >= 1")
        if np.any(B.data < 1) or np.any(np.floor(B.data) != B.data):
            raise ValueError("B entries must be integers >= 1")
        for name, arr in (("costs", c), ("sizes", s), ("B entries", B.data)):
            if arr.sum() >= 2.0**53:  # else every sum of them, on any level, is exact
                raise ValueError(f"{name} must sum below 2**53")
        if np.count_nonzero(B.rows == B.indices) != self.n:
            raise ValueError("B diagonal must be >= 1")
        if not B._symmetric:
            _check_symmetric(B)
            B._symmetric = True
        total = float(s.sum())
        if not (0 <= self.la <= self.ua <= total and 0 <= self.lb <= self.ub <= total):
            raise ValueError(f"bad bounds la={self.la} ua={self.ua} lb={self.lb} ub={self.ub} (s total {total})")
        object.__setattr__(self, "gamma0", max(float(c.max()), 1.0) if self.n else 0.0)
        dense = B.toarray() if self.n <= _DENSE_LIMIT else None
        object.__setattr__(self, "_dense", dense)
        recent = _RecentProducts(B) if dense is None and B.nnz >= _RECENT_NNZ else None
        object.__setattr__(self, "_recent", recent)

    def bdot(self, v: np.ndarray) -> np.ndarray:
        """B @ v for a vector, or B @ each row of a (rows, n) stack.

        Each row of a stack gets the same bits as the product with that row
        alone.  The dense copy therefore multiplies the stack as a batch of
        matrix-vector products: one matrix-matrix product (v @ B) sums in
        another order and differs in the last bits, which changes
        tie-breaks in the block LP.  A sparse product may be patched from
        a recent one (see ``_RecentProducts``) and has the bits of
        ``B @ v``.
        """
        if self._dense is not None:
            if v.ndim == 1:
                return self._dense @ v
            return (self._dense @ v[:, :, None])[:, :, 0]
        v = np.asarray(v, dtype=np.float64)
        if v.shape[-1:] != (self.n,) or self._recent is None:
            return (self.B @ v.T).T
        if v.ndim == 1:
            return self._recent(v)
        out = np.empty(v.shape)
        for r, row in enumerate(v):
            out[r] = self._recent(row)
        return out


@dataclass
class Point:
    """A pair of relaxed indicator vectors in [0,1]^n."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)


@dataclass(frozen=True)
class Partition:
    """A separator solution: disjoint sides a, b and the separator s."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    s: tuple[int, ...]
    separator_weight: int


def instance_from_graph(g: Graph, la: int, ua: int, lb: int, ub: int) -> CbpInstance:
    """Finest-level instance: B = adjacency + identity, c and s from the graph.

    ``g`` is validated first unless it is marked checked (ValueError
    "invalid graph: ..." otherwise).  Then each row's diagonal entry goes
    in after its lower neighbours, and the mirrored neighbour lists make B
    symmetric, which is not checked again."""
    _ensure_valid(g)
    n, ids = g.n, np.arange(g.n)
    rows = np.repeat(ids, np.diff(g.indptr))
    indptr = g.indptr + np.arange(n + 1)  # one more entry per row
    diagonal = indptr[:-1] + np.bincount(rows[g.indices < rows], minlength=n)
    off = np.ones(indptr[-1], dtype=bool)
    off[diagonal] = False
    indices, data = np.empty(indptr[-1], dtype=np.int64), np.ones(indptr[-1])
    indices[diagonal], indices[off], data[off] = ids, g.indices, g.weights
    B = CsrMatrix._built(data, indices, indptr, (n, n), symmetric=True)
    return CbpInstance(n, B, g.vertex_cost, g.vertex_size, la, ua, lb, ub)


def _point_arrays(inst: CbpInstance, p: Point) -> tuple[np.ndarray, np.ndarray]:
    if p.x.shape != (inst.n,) or p.y.shape != (inst.n,):
        raise DimensionMismatchError(
            f"point has shapes {p.x.shape}/{p.y.shape}, instance needs ({inst.n},)"
        )
    return p.x, p.y


def _stacked_arrays(inst: CbpInstance, p: Point) -> tuple[np.ndarray, np.ndarray]:
    """x and y of a single point or of a stack, as (rows, n) arrays."""
    if p.x.ndim == 1:
        x, y = _point_arrays(inst, p)
        return x[None], y[None]
    if p.x.ndim != 2 or p.x.shape != p.y.shape or p.x.shape[1] != inst.n or not len(p.x):
        raise DimensionMismatchError(
            f"point has shapes {p.x.shape}/{p.y.shape}, instance needs (rows >= 1, {inst.n})"
        )
    return p.x, p.y


def _shaped_like(p: Point, x: np.ndarray, y: np.ndarray) -> Point:
    """The (rows, n) result as a stack, or as one point if p was one."""
    return Point(x[0], y[0]) if p.x.ndim == 1 else Point(x, y)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of a with the same row of b, or with the vector b.

    Each row is summed on its own, so its value does not depend on how many
    rows the stack has; a BLAS matrix-vector product gives no such promise.
    ``np.add.reduce`` runs the loop of ``.sum(axis=1)`` without its wrappers."""
    return np.add.reduce(a * b, axis=1)


def objective(inst: CbpInstance, p: Point, gamma: float) -> float | np.ndarray:
    """c.(x + y) - gamma * x.B.y: a float for a single point, one value per
    row for a (rows, n) stack."""
    x, y = _stacked_arrays(inst, p)
    f = _rowdot(x + y, inst.c) - gamma * _rowdot(x, inst.bdot(y))
    return float(f[0]) if p.x.ndim == 1 else f


def feasible(inst: CbpInstance, p: Point) -> bool:
    """Box bounds plus both sum constraints, to within EPS; x/y overlap is allowed.

    ``p`` may also be a (rows, n) stack, which is feasible when every row is."""
    x, y = _stacked_arrays(inst, p)
    lo = min(np.minimum.reduce(x, axis=None, initial=0.0), np.minimum.reduce(y, axis=None, initial=0.0))
    hi = max(np.maximum.reduce(x, axis=None, initial=1.0), np.maximum.reduce(y, axis=None, initial=1.0))
    if lo < -EPS or hi > 1 + EPS:
        return False
    sx, sy = _rowdot(x, inst.s), _rowdot(y, inst.s)
    return bool(
        inst.la - EPS <= np.minimum.reduce(sx) and np.maximum.reduce(sx) <= inst.ua + EPS
        and inst.lb - EPS <= np.minimum.reduce(sy) and np.maximum.reduce(sy) <= inst.ub + EPS
    )


def solve_block_lp(g: Sequence[float], s: Sequence[float], l: int, u: int) -> np.ndarray:
    """Maximize g.v over 0 <= v <= 1 with l <= s.v <= u, for integer sizes s >= 1.

    ``g`` is one gain vector of shape (n,) or a stack of shape (rows, n);
    each row is solved on its own and the result has the shape of ``g``.

    Greedy on the ratio g_i/s_i, ties broken toward the lower index.  The
    positive-gain items lead that order and have total size P; the greedy
    fills the order up to clip(P, l, u): every item whose cumulative size
    fits is 1, the next one takes the rest fractionally, and all later
    items are 0.  The result is a vertex of the polytope with at most one
    fractional coordinate.

    A row sorts only what its answer depends on.  Integer sizes make P
    exact in any summation order, and each row falls in one of two
    classes:

    - l <= P <= u: the answer is 1 on the positive items and 0 elsewhere;
      no sort;
    - P outside [l, u]: the fill ends on the far side of P, among the
      positive items when P > u and among the others when P < l; when the
      row is the only one of its stack outside the bounds, it sorts only
      the items on that side.

    When two or more rows of a stack lie outside the bounds, those rows
    are sorted in one batch and the rows within the bounds are left out:
    for the small stacks that occur, one batched sort costs less than
    sorting the rows one by one.  Sizes other than integers >= 1 raise ValueError.
    """
    g = np.asarray(g, dtype=np.float64)
    s = np.ascontiguousarray(s, dtype=np.float64)
    if s.ndim != 1 or g.ndim not in (1, 2) or g.shape[-1:] != s.shape:
        raise DimensionMismatchError(f"g has shape {g.shape}, s has shape {s.shape}")
    if not np.logical_and.reduce((s >= 1) & (np.floor(s) == s)):
        raise ValueError("sizes must be integers >= 1")
    total = float(np.add.reduce(s))
    if l < 0 or l > u or l > total:
        raise InfeasibleBoundsError(f"bounds l={l} u={u} unreachable with s total {total}")

    G = g if g.ndim == 2 else g[None]
    pos = G > 0
    P = np.dot(pos, s)  # summed in index order
    hard = ((P < l) | (P > u)).nonzero()[0]
    v = pos.astype(np.float64)  # the rows within the bounds are done
    if hard.size > 1:
        v[hard] = _sorted_fill(G[hard], P[hard], s, l, u)
    elif hard.size:
        i = int(hard[0])
        _far_fill(v[i], G[i], pos[i], s, float(P[i]), l, u)
    return v if g.ndim == 2 else v[0]


def _sorted_fill(G: np.ndarray, P: np.ndarray, s: np.ndarray, l: int, u: int) -> np.ndarray:
    """The greedy fill of every row of G to clip(P, l, u) from a full sort of
    the row, where P holds each row's size of positive items.  Each item
    takes (fill - size ahead of it) / its size, bounded to [0, 1]: integer
    sizes make the subtraction exact, and x - x gives +0.0, never -0.0."""
    order = np.argsort(G / -s, axis=1, kind="stable")  # ratio descending, ties by index
    sized = s[order]
    before = sized.cumsum(axis=1)
    before -= sized
    share = (np.minimum(np.maximum(P, l), u)[:, None] - before) / sized
    v = np.empty(G.shape)
    v[np.arange(len(G))[:, None], order] = np.maximum(np.minimum(share, 1.0), 0.0)
    return v


def _far_fill(row: np.ndarray, g: np.ndarray, pos: np.ndarray, s: np.ndarray, P: float, l: int, u: int) -> None:
    """Write into ``row`` (1 on the positive items ``pos``, 0 elsewhere) the
    greedy fill of one gain vector whose positive items' size P lies outside
    [l, u].  The fill ends on the far side of P: among the positive items,
    filled to u from none, when P > u; among the others, filled to l on top
    of the positive items, when P < l.  Only the items on that side are
    sorted."""
    over = P > u
    items = np.flatnonzero(pos if over else ~pos)
    left = u if over else l - P  # the size to fill from ``items``
    order = items[np.argsort(g[items] / -s[items], kind="stable")]
    cums = np.cumsum(s[order])
    full = int(np.searchsorted(cums, left, side="right"))  # < len(order) unless left is the whole side
    if over:
        row[items] = 0.0
    row[order[:full]] = 1.0
    rest = left - cums[full - 1] if full else float(left)
    if rest:
        row[order[full]] = rest / s[order[full]]


def refine(inst: CbpInstance, p: Point, gamma: float | np.ndarray) -> Point:
    """Alternate exact block-LP updates of x and y to a blockwise fixed point.

    A sweep updates x, then y.  A row stops when its sweep gains <= EPS, or
    as soon as its next step is known to return the point it has: when
    the new y equals the y it replaces (the next x-update would then
    return this sweep's x, and the sweep after it would gain exactly 0),
    or, from the second sweep on, when the new x equals the last sweep's
    x (the y-update would then return the y the row has).  This rests on
    ``bdot`` and ``solve_block_lp`` giving each row the same bits whatever
    stack it sits in; the returned point is the one the sweeps would stop
    at, bit for bit.

    The start must be feasible (see ``feasible``); a ValueError says it is
    not.  Every update then maximizes the objective over its block, so the
    objective is nondecreasing at each step; every step taken is verified
    and a MonotonicityError is raised on any violation.

    ``p`` may also be a stack, x and y of shape (rows, n), with ``gamma``
    one value or one per row.  Each row is refined as it would be on its
    own, to the same bits: a finished row stops changing while the rows
    still live sweep on.
    """
    x, y = _stacked_arrays(inst, p)
    if not feasible(inst, p):
        raise ValueError("refine requires a feasible starting point")
    rows = x.shape[0]
    gammas = np.empty((rows, 1))
    gammas[:, 0] = gamma
    c, s = inst.c, inst.s
    out_x, out_y = np.empty_like(x), np.empty_like(y)
    live = np.arange(rows)
    by = inst.bdot(y)
    f_prev = _rowdot(x + y, c) - gammas[:, 0] * _rowdot(x, by)
    first = True
    while True:
        gx = c - gammas * by
        x_new = solve_block_lp(gx, s, inst.la, inst.ua)
        f_x = _rowdot(gx, x_new) + _rowdot(y, c)
        _check_step(f_prev, f_x)
        if not first:  # y already answers an x equal to the last sweep's
            done = np.logical_and.reduce(x_new == x, axis=1)
            if np.logical_or.reduce(done):
                out_x[live[done]], out_y[live[done]] = x_new[done], y[done]
                if np.logical_and.reduce(done):
                    break
                keep = (~done).nonzero()[0]
                live, x_new, y, gammas, f_prev, f_x = (
                    a.take(keep, axis=0) for a in (live, x_new, y, gammas, f_prev, f_x)
                )
        first = False
        x = x_new

        gy = c - gammas * inst.bdot(x)
        y_new = solve_block_lp(gy, s, inst.lb, inst.ub)
        f_y = _rowdot(gy, y_new) + _rowdot(x, c)
        _check_step(f_x, f_y)

        done = (f_y - f_prev <= EPS) | np.logical_and.reduce(y_new == y, axis=1)
        y = y_new
        if np.logical_or.reduce(done):
            out_x[live[done]], out_y[live[done]] = x[done], y[done]
            if np.logical_and.reduce(done):
                break
            keep = (~done).nonzero()[0]
            live, x, y, gammas, f_y = (a.take(keep, axis=0) for a in (live, x, y, gammas, f_y))
        f_prev = f_y
        by = inst.bdot(y)
    return _shaped_like(p, out_x, out_y)


def _check_step(before: np.ndarray, after: np.ndarray) -> None:
    """Raise MonotonicityError unless after >= before - EPS on every row."""
    fell = after < before - EPS
    if np.logical_or.reduce(fell):
        i = int(np.argmax(fell))
        raise MonotonicityError(f"objective fell from {before[i]!r} to {after[i]!r}")


def round_to_binary(inst: CbpInstance, p: Point) -> Point:
    """Move to a feasible binary point with x.B.y = 0.

    Three phases: x is made binary with y fixed, then y with x fixed, then
    every remaining interaction with x_i = y_j = 1 is cleared by zeroing
    one endpoint.  A block with several fractional coordinates first moves
    to its block-LP optimum at gamma0, which has at most one; the points
    that refine and escape return are such vertices already.  The last
    fractional coordinate is driven toward the side its gain prefers; if
    that try gets stuck on a sum bound, the other side is tried from where
    the first try stopped, its moves kept.  The objective never decreases
    unless it sits pinned on a sum bound where a lossless binary
    completion of its block does not exist.  Raises DegenerateRepairError
    when neither side can be reached, or when clearing an interaction
    would push both sides below their lower bounds.
    """
    if not feasible(inst, p):
        raise ValueError("round_to_binary requires a feasible point")
    x, y = p.x.copy(), p.y.copy()
    _snap(x, inst.s)
    _snap(y, inst.s)

    gx = inst.c - inst.gamma0 * inst.bdot(y)
    _defractionalize(x, gx, inst.s, inst.la, inst.ua)
    gy = inst.c - inst.gamma0 * inst.bdot(x)
    _defractionalize(y, gy, inst.s, inst.lb, inst.ub)
    _orthogonality_repair(inst, x, y)
    return Point(x, y)


def _snap(v: np.ndarray, s: np.ndarray) -> None:
    """Snap to 0 or 1 each value within EPS of it in size-weighted terms, so
    that a true fraction of a huge vertex keeps its share of the sum."""
    v[v * s <= EPS] = 0.0
    v[(1.0 - v) * s <= EPS] = 1.0


def _defractionalize(v: np.ndarray, grad: np.ndarray, s: np.ndarray, l: int, u: int) -> None:
    """Drive v to binary in place, keeping l <= s.v <= u and grad.v nondecreasing
    wherever a nondecreasing completion exists.

    A block with two or more fractional coordinates first moves to its
    block-LP optimum, which raises grad.v and leaves at most one fractional
    coordinate.  That one is finished toward its preferred side (1 when its
    gain is positive).  A try that fails leaves its moves in v, and the
    try toward the other side starts from there; DegenerateRepairError
    when that one fails too."""
    frac = np.flatnonzero((v > 0.0) & (v < 1.0))
    if frac.size >= 2:
        v[:] = solve_block_lp(grad, s, l, u)
        frac = np.flatnonzero((v > 0.0) & (v < 1.0))
    if not frac.size:
        return
    i = frac[0]
    preferred = 1 if grad[i] > 0 else 0  # ties go toward 0
    if not _finish_single(v, grad, s, l, u, i, preferred):
        if not _finish_single(v, grad, s, l, u, i, 1 - preferred):
            raise DegenerateRepairError(f"no move can finish coordinate {i}")


def _finish_single(
    v: np.ndarray, grad: np.ndarray, s: np.ndarray, l: int, u: int, i: int, toward: int
) -> bool:
    """Try to drive the single fractional v_i to ``toward`` (0 or 1).

    One walk serves both directions, with d = 1 toward 1 and d = -1 toward
    0.  v_i moves directly as far as the sum bound ahead allows; once
    pinned there, its remaining mass |toward - v_i| * s_i goes to partners
    k with v_k = toward along sum-preserving directions.  A partner whose
    size matches the mass finishes the move; else the best smaller partner
    flips to 1 - toward and v_i moves by s_k / s_i.  The best slope
    d * (grad_i * s_k - s_i * grad_k) wins, ties toward the lower index.
    Returns False when no partner fits; v then keeps the walk's moves
    (v_i on the sum bound, nearer ``toward``, and the flipped partners).
    """
    d = 1.0 if toward else -1.0
    sv = float(s @ v)
    slack = u - sv if toward else sv - l
    room = max(slack / s[i], 0.0)
    if abs(toward - v[i]) <= room:
        v[i] = float(toward)
        return True
    v[i] += d * room  # now pinned on the sum bound

    scores = d * (grad[i] * s - s[i] * grad)
    while True:
        mass = abs(toward - v[i]) * s[i]
        if mass <= EPS:
            v[i] = float(toward)
            return True
        candidates = np.flatnonzero(v == toward)
        candidates = candidates[candidates != i]
        if candidates.size == 0:
            return False

        exact = candidates[np.abs(s[candidates] - mass) <= EPS]
        if exact.size:
            k = int(exact[np.argmax(scores[exact])])
            v[i] = float(toward)
            v[k] = 1.0 - toward
            return True
        smaller = candidates[s[candidates] < mass]
        if not smaller.size:
            return False
        k = int(smaller[np.argmax(scores[smaller])])
        v[k] = 1.0 - toward
        v[i] += d * s[k] / s[i]


def _orthogonality_repair(inst: CbpInstance, x: np.ndarray, y: np.ndarray) -> None:
    """Zero one endpoint of every interacting pair with x_i = y_j = 1.

    Prefers the side whose sum stays above its lower bound; when both
    qualify, the endpoint with the smaller cost goes (ties clear y).  Each
    zeroing changes the objective by gamma0 * interaction - cost >= 0.
    """
    c, s = inst.c, inst.s
    indptr, indices = inst.B.indptr, inst.B.indices
    sx = float(s @ x)
    sy = float(s @ y)
    # y only falls: an x_i = 1 with no y = 1 interaction now never gains one
    for i in np.flatnonzero((x == 1.0) & (inst.B @ y > 0)).tolist():
        for j in indices[indptr[i] : indptr[i + 1]].tolist():
            if y[j] != 1.0:
                continue
            x_ok = sx - s[i] >= inst.la - EPS
            y_ok = sy - s[j] >= inst.lb - EPS
            if x_ok and (not y_ok or c[i] < c[j]):
                x[i] = 0.0
                sx -= s[i]
                break
            if not y_ok:
                raise DegenerateRepairError(
                    f"cannot clear interaction ({i}, {j}) without breaking a lower bound"
                )
            y[j] = 0.0
            sy -= s[j]


def extract_partition(inst: CbpInstance, p: Point) -> Partition:
    """Read the separator off a binary orthogonal point: S = {x_i = y_i = 0}."""
    x, y = _point_arrays(inst, p)
    if np.any(np.minimum(np.abs(x), np.abs(x - 1)) > EPS) or np.any(
        np.minimum(np.abs(y), np.abs(y - 1)) > EPS
    ):
        raise NotBinaryError("point is not binary")
    xb = x > 0.5
    yb = y > 0.5
    if float(xb @ inst.bdot(yb.astype(np.float64))) > EPS:
        raise NotOrthogonalError("x.B.y != 0")
    if not feasible(inst, p):
        raise ValueError("point violates the sum bounds")
    sep = ~xb & ~yb
    return Partition(
        a=tuple(np.flatnonzero(xb).tolist()),
        b=tuple(np.flatnonzero(yb).tolist()),
        s=tuple(np.flatnonzero(sep).tolist()),
        separator_weight=int(inst.c[sep].sum()),
    )


def escape(
    inst: CbpInstance, p: Point, gamma_steps: int = 10, stats: dict | None = None
) -> Point:
    """Leave local maxima by refining at reduced penalties.

    Walks gamma down the schedule gamma0 * (1 - k/K) for k = 1..K, refining
    from the current point at each value and re-refining the result at
    gamma0.  A strict improvement restarts the schedule from the improved
    point; a full pass down to gamma = 0 without improvement terminates.
    The objective at gamma0 never decreases.  The start must be feasible,
    as for ``refine``.

    ``p`` may be a stack of points, as for ``refine``: each row keeps its
    own k, current point and objective, and gets the result it would get
    on its own.  ``stats["escapes"]`` grows by the accepted improvements
    of all rows, ``stats["probes"]`` by the probe rows refined and
    ``stats["rerefines"]`` by the re-refine rows refined; rows the call
    leaves out, as below, are not counted.

    Until a row accepts, every probe starts from its current point, so a
    round refines each live row's next w steps as one stack, w =
    max(1, _PROBE_CELLS // (live rows * n)) or the steps left, and takes
    the first winning step; the results after it are dropped.  Each
    point that a row sits at, walking or finished, has one holder: a row
    that starts at or accepts a held point joins its holder whatever the
    holder's k, copies its result and stops, and the holder counts an
    escape for each row it stands for.  A row that accepts leaves its
    point's holder; a finished holder stays.  This is exact: the holder
    has lost steps 1..k-1 from the point, and the newcomer, with the same
    point and objective bits, would lose them too and then walk as the
    holder does.  A call with one row keeps no holders: its row meets no
    other row, and never returns to a point it left, as every accept
    raises its objective.  Within a round each distinct probe point, keyed
    by its x and y bytes (read for the whole round from one array), is
    re-refined once, from its first probe, and the call remembers the
    objective at gamma0 of every point it re-refined: a known point that
    cannot beat its rows' objectives is not re-refined again.  This rests
    on ``refine`` and ``objective`` giving each row the same bits in any
    stack.
    """
    K = int(gamma_steps)
    x, y = _stacked_arrays(inst, p)
    rows = x.shape[0]
    gamma0 = inst.gamma0
    x, y = x.copy(), y.copy()
    f_curr = objective(inst, Point(x, y), gamma0)
    escapes = probes = rerefines = 0
    k = np.ones(rows, dtype=np.int64)
    alias = np.arange(rows)  # the row whose result each row copies
    weight = np.ones(rows, dtype=np.int64)  # the rows each walking row stands for
    known: dict[bytes, float] = {}  # objective at gamma0 of each re-refined probe point
    holder: dict[bytes, int] = {}  # the row at each point, walking or finished
    shared = rows > 1  # else no holders: see the docstring
    while True:
        if shared:
            for r in np.flatnonzero(k == 1).tolist():  # at the start, or this round's accepts
                keep = holder.setdefault(x[r].tobytes() + y[r].tobytes(), r)
                if keep != r:
                    alias[alias == r] = keep
                    weight[keep] += weight[r]
                    k[r] = K + 1
        live = np.flatnonzero(k <= K)
        if not live.size:
            break
        width = np.minimum(K + 1 - k[live], max(1, _PROBE_CELLS // (live.size * max(inst.n, 1))))
        src = np.repeat(live, width)  # each probe's row; a row's steps follow in order
        step = k[src] + np.arange(src.size) - np.repeat(np.cumsum(width) - width, width)
        probe = refine(inst, Point(x[src], y[src]), gamma0 * (1.0 - step / K))
        probes += src.size
        k[live] += width
        both = np.concatenate((probe.x, probe.y), axis=1)  # row i's bytes: x.tobytes() + y.tobytes()
        # one void item per row, whose tolist() is those bytes; at n = 0 there is none to view
        keys = both.view(np.dtype((np.void, both.itemsize * inst.n * 2))).ravel().tolist() if inst.n else [b""] * len(both)
        seen: dict[bytes, int] = {}  # each distinct probe point's slot, numbered as first met
        slot = np.array([seen.setdefault(key, len(seen)) for key in keys])
        f_slot = np.array([known.get(key, np.inf) for key in seen])  # inf: not yet known
        bar = f_curr[src] + EPS
        redo = np.zeros(len(seen), dtype=bool)
        redo[slot[f_slot[slot] > bar]] = True  # unknown, or known to win for a row
        if redo.any():
            # slot j's first probe is where slot's running maximum first reaches j
            picked = np.maximum.accumulate(slot).searchsorted(redo.nonzero()[0])
            back = refine(inst, Point(probe.x[picked], probe.y[picked]), gamma0)
            rerefines += picked.size
            f_slot[redo] = objective(inst, back, gamma0)
            known.update(zip(compress(seen, redo.tolist()), f_slot[redo].tolist()))
        at = (f_slot[slot] > bar).nonzero()[0]
        hit = src[at]  # ascending, as src is
        first = at[hit.searchsorted(hit) == np.arange(at.size)]  # each row's first win
        if first.size:
            won = src[first]
            for r in won.tolist() if shared else []:
                del holder[x[r].tobytes() + y[r].tobytes()]
            b = slot[first]
            back_row = redo.cumsum()[b] - 1
            x[won], y[won], f_curr[won] = back.x[back_row], back.y[back_row], f_slot[b]
            escapes += int(weight[won].sum())
            k[won] = 1
    if stats is not None:
        for key, value in (("escapes", escapes), ("probes", probes), ("rerefines", rerefines)):
            stats[key] = stats.get(key, 0) + value
    return _shaped_like(p, x[alias], y[alias])


def partition_violations(
    g: Graph, part: Partition, la: int, ua: int, lb: int, ub: int
) -> list[str]:
    """Check a Partition against the graph itself (not against B).

    Verifies the three sets partition the vertices, no edge joins a and b,
    both size bounds hold, and the recorded weight matches the separator's
    cost sum.  Returns one record per violation.
    """
    groups = (part.a, part.b, part.s)
    members = np.concatenate([np.asarray(grp, dtype=np.int64).reshape(-1) for grp in groups])
    labels = np.repeat(np.arange(1, 4, dtype=np.int8), [len(grp) for grp in groups])
    in_range = (members >= 0) & (members < g.n)
    # the first occurrence of a vertex sets its side; a later one is a fault
    _, first = np.unique(np.where(in_range, members, -1), return_index=True)
    first = first[in_range[first]]
    side = np.zeros(g.n, dtype=np.int8)  # 1 = a, 2 = b, 3 = s
    side[members[first]] = labels[first]
    repeated = in_range.copy()
    repeated[first] = False
    out = [
        f"vertex in two sets: {members[p]}" if in_range[p] else f"vertex out of range: {members[p]}"
        for p in np.flatnonzero(~in_range | repeated).tolist()
    ]
    out.extend(f"vertex in no set: {v}" for v in np.flatnonzero(side == 0).tolist())
    if out:
        return out

    # A-B edges in the order of part.a, each row's neighbours ascending
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    hits = np.flatnonzero((side[rows] == 1) & (side[g.indices] == 2))
    rank = np.empty(g.n, dtype=np.int64)
    rank[members[: len(part.a)]] = np.arange(len(part.a))
    hits = hits[np.argsort(rank[rows[hits]], kind="stable")]
    out.extend(f"edge between a and b: ({u}, {v})" for u, v in zip(rows[hits].tolist(), g.indices[hits].tolist()))
    size_a = int(g.vertex_size[side == 1].sum())
    size_b = int(g.vertex_size[side == 2].sum())
    if not la <= size_a <= ua:
        out.append(f"size of a = {size_a} outside [{la}, {ua}]")
    if not lb <= size_b <= ub:
        out.append(f"size of b = {size_b} outside [{lb}, {ub}]")
    weight = int(g.vertex_cost[side == 3].sum())
    if weight != part.separator_weight:
        out.append(f"separator weight {part.separator_weight} != {weight}")
    return out
