"""A small compressed-sparse-row matrix, built with numpy only.

A pipeline run's sparse objects are the coupling M, the network form
assembled from it (`composition.network_form`), each abstraction's Markov
kernel and any non-diagonal block map of the simulator (`model.block_diag`).
`CSR` gives them only the operations the run uses: sparse products, sums and
transposes (by expanding to coordinates and coalescing) and products with
dense vectors and matrices.  Reductions read `data`, the stored entries.
Every row keeps its columns strictly increasing, so there are no duplicates
and no unsorted rows to account for.

A product with a dense operand sums each row's terms left to right from
+0.0, in stored order, as scipy's `csr_matrix @ x` does, so the two agree
bit for bit; `CSR.apply` takes the product along any axis of the operand
with the same sums.  Objects with a `tocsr()` method (scipy sparse matrices) are
converted by duck typing; this module never imports scipy.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DimensionMismatch


class CSR:
    """Float64 matrix in compressed sparse row form, rows sorted by column.

    Row i holds `data[indptr[i]:indptr[i + 1]]` at columns
    `indices[indptr[i]:indptr[i + 1]]`, which must increase strictly.
    `indices` keeps its integer type (a kernel stores int32).
    """

    def __init__(self, data, indices, indptr, shape):
        self.data = np.asarray(data, dtype=float)
        self.indices = np.asarray(indices)
        self.indptr = np.asarray(indptr)
        self.shape = (int(shape[0]), int(shape[1]))
        nnz = self.data.size
        if (self.data.ndim != 1 or self.indices.shape != (nnz,)
                or self.indptr.shape != (self.shape[0] + 1,)
                or self.indices.dtype.kind not in "iu" or self.indptr.dtype.kind not in "iu"):
            raise DimensionMismatch("csr", f"arrays do not describe a {self.shape} matrix")
        lens = np.diff(self.indptr)
        if self.indptr[0] != 0 or self.indptr[-1] != nnz or (lens < 0).any():
            raise DimensionMismatch("indptr", f"expected row offsets from 0 to {nnz}")
        if nnz and not (0 <= self.indices.min() and self.indices.max() < self.shape[1]):
            raise DimensionMismatch("indices", f"columns outside 0 .. {self.shape[1] - 1}")
        rising = self.indices[1:] > self.indices[:-1]
        cut = self.indptr[1:-1]
        rising[cut[(cut > 0) & (cut < nnz)] - 1] = True  # where one row ends and the next starts
        if not rising.all():
            raise DimensionMismatch("indices", "columns must increase strictly within each row")

    @classmethod
    def from_coo(cls, rows, cols, vals, shape) -> "CSR":
        """Entries (rows[k], cols[k], vals[k]) with duplicates summed and zeros dropped."""
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        n_cols = max(int(shape[1]), 1)
        key = rows * n_cols + cols
        order = np.argsort(key, kind="stable")  # stable: no SIMD sort kernels to page in
        key, vals = key[order], vals[order]
        first = np.flatnonzero(np.diff(key, prepend=-1))  # keys are >= 0
        vals = np.add.reduceat(vals, first) if vals.size else vals
        key = key[first]
        keep = vals != 0.0
        rows, cols = np.divmod(key[keep], n_cols)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=shape[0]))])
        return cls(vals[keep], cols, indptr, shape)

    @classmethod
    def from_dense(cls, a) -> "CSR":
        a = np.asarray(a, dtype=float)
        if a.ndim != 2:
            raise DimensionMismatch("matrix", f"expected 2 axes, got {a.ndim}")
        rows, cols = np.nonzero(a)
        indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(a, axis=1))])
        return cls(a[rows, cols], cols, indptr, a.shape)

    def tocsr(self) -> "CSR":
        return self

    @property
    def nnz(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def row_index(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.row_index(), self.indices] = self.data
        return out

    @property
    def T(self) -> "CSR":
        return CSR.from_coo(self.indices, self.row_index(), self.data, self.shape[::-1])

    def __abs__(self) -> "CSR":
        return CSR(np.abs(self.data), self.indices, self.indptr, self.shape)

    def __mul__(self, scalar) -> "CSR":
        return CSR(self.data * float(scalar), self.indices, self.indptr, self.shape)

    __rmul__ = __mul__

    def __add__(self, other: "CSR") -> "CSR":
        if other.shape != self.shape:
            raise DimensionMismatch("csr", f"{self.shape} + {other.shape}")
        return CSR.from_coo(np.concatenate([self.row_index(), other.row_index()]),
                            np.concatenate([self.indices, other.indices]),
                            np.concatenate([self.data, other.data]), self.shape)

    def __matmul__(self, other):
        """Product with a CSR (a CSR) or with a dense vector or matrix (an array)."""
        if not isinstance(other, CSR):
            return self.apply(other)
        if self.shape[1] != other.shape[0]:
            raise DimensionMismatch("csr", f"{self.shape} @ {other.shape}")
        return self._sparse_product(other)

    def _sparse_product(self, other: "CSR") -> "CSR":
        # each entry (i, j, a) of self meets every entry (j, l, b) of other's row j
        lens = np.diff(other.indptr)[self.indices]
        entry = np.repeat(np.arange(self.nnz), lens)
        pos = _ranges(other.indptr[self.indices], lens)
        return CSR.from_coo(self.row_index()[entry], other.indices[pos],
                            self.data[entry] * other.data[pos],
                            (self.shape[0], other.shape[1]))

    @cached_property
    def _slots(self):
        """The entries in slot order, for products with dense operands.

        Rows are taken longest first (`order[i]` is the i-th, None when
        that is the stored order); slot k holds the k-th entry of each row
        that has one, so its `counts[k]` rows are a prefix of `order`.
        Every slot is one slice add, with no tail: a row much longer than
        the rest costs one slice add per entry.  `data` and `indices` are in
        slot order: the stored arrays when no row has two entries, else
        copies, with indices as np.intp, which numpy gathers fastest.
        `data` is None when every entry is 1 (a 0/1 coupling): x * 1 is x.
        """
        lens = np.diff(self.indptr)
        order = np.argsort(-lens, kind="stable")
        longest = int(lens.max()) if lens.size else 0
        counts = np.cumsum(np.bincount(lens, minlength=longest + 1)[::-1])[::-1][1:].tolist()
        data, indices = self.data, self.indices
        if longest > 1:  # else this is stored order
            first = self.indptr[:-1][order]  # where each row starts, longest first
            at = np.concatenate([first[:c] + k for k, c in enumerate(counts)])
            data, indices = data[at], indices[at].astype(np.intp)
        if np.array_equal(order, np.arange(order.size)):
            order = None
        if np.all(data == 1.0):
            data = None
        return order, counts, data, indices

    def apply(self, x, axis: int = 0) -> np.ndarray:
        """self applied to `axis` of the dense array x: the entry at index i
        of that axis is sum_j self[i, j] x[..., j, ...].

        Each entry sums the same terms in the same order whichever axis is
        taken, so `apply(z, 1)` is `(self @ z.T).T` bit for bit; the slots
        are added as slices of that axis.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[axis] != self.shape[1]:
            raise DimensionMismatch("csr", f"{self.shape} applied to axis {axis} of {x.shape}")
        order, counts, data, indices = self._slots
        terms = np.take(x, indices, axis=axis)
        shape = list(terms.shape)
        shape[axis] = self.shape[0]
        acc = np.zeros(shape)
        # views with the product's axis first
        terms_, acc_ = np.moveaxis(terms, axis, 0), np.moveaxis(acc, axis, 0)
        if data is not None:
            terms_ *= data.reshape((-1,) + (1,) * (x.ndim - 1))
        start = 0
        for count in counts:  # each row's sum runs over its entries in stored order
            acc_[:count] += terms_[start:start + count]
            start += count
        if order is None:
            return acc
        out = np.empty_like(acc)
        np.moveaxis(out, axis, 0)[order] = acc_
        return out


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The positions starts[i], ..., starts[i] + lens[i] - 1 for each i, concatenated."""
    skip = np.repeat(np.cumsum(lens) - lens, lens)
    return np.arange(skip.size) - skip + np.repeat(starts, lens)


def as_csr(m) -> CSR:
    """`m` itself if it is a CSR, else one from its `tocsr()` or from a dense 2-D array."""
    if isinstance(m, CSR):
        return m
    if hasattr(m, "tocsr"):
        m = m.tocsr()  # scipy: any order, duplicates and explicit zeros allowed
        rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
        return CSR.from_coo(rows, m.indices, m.data, m.shape)
    return CSR.from_dense(m)
