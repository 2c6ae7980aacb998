"""Grid quantization and finite abstractions of the sampled-data dynamics.

A uniform grid covers each box with half-open cells [lo, lo+w); cell centers
are the representative points, which minimize the worst-case quantization
radius.  The abstraction's transition structure is either a deterministic
successor table (noise-free sampled model) or a finite Markov kernel whose
rows are Gaussian cell masses; everything leaving the grid is collected in a
single absorbing sink state, which synthesis treats as unsafe.

Stochastic kernels use a block-wise array build: the per-axis Gaussian cell
masses of a block of (state, input, internal) rows are computed at once, and
the CSV export is formatted and written one block of rows at a time.  A
finished abstraction is immutable and shareable.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.special import ndtr

from .errors import (
    DimensionMismatch,
    GridTooCoarse,
    NonDiagonalNoise,
    RowMassError,
)
from .model import AffineSystem, Box, DiscretizationSpec, as_matrix, as_vector

#: tolerated row-mass drift before renormalizing a kernel row
_ROW_TOL = 1e-9
#: fp dust absorbed at the outer grid edges when locating points
_EDGE_RTOL = 1e-9
#: dense kernel entries, rows x (S+1), computed per block in build_stochastic
_BLOCK_ENTRIES = 1 << 16
#: CSV rows formatted and written per block in export_abstraction
_EXPORT_ENTRIES = 1 << 13


def _cell_count(span: float, width: float) -> int:
    k = span / width
    r = round(k)
    if abs(k - r) <= 1e-9 * max(1.0, abs(k)) and r >= 1:
        return int(r)
    return max(1, int(math.ceil(k - 1e-12)))


@dataclass(frozen=True, eq=False)
class UniformGrid:
    """Uniform half-open cells covering a box; representatives are cell centers."""

    lower: np.ndarray
    widths: np.ndarray
    cells: tuple

    def __post_init__(self):
        object.__setattr__(self, "lower", as_vector(self.lower))
        object.__setattr__(self, "widths", as_vector(self.widths))
        object.__setattr__(self, "cells", tuple(int(c) for c in self.cells))
        if np.any(self.widths <= 0):
            raise DimensionMismatch("widths", "cell widths must be positive")
        if len(self.cells) != self.lower.size:
            raise DimensionMismatch("cells", "one cell count per dimension")

    @classmethod
    def cover(cls, box: Box, widths) -> "UniformGrid":
        widths = as_vector(widths)
        if widths.size != box.dim:
            raise DimensionMismatch("widths", f"expected {box.dim} widths")
        if not np.all(np.isfinite(widths) & (widths > 0)):
            raise DimensionMismatch("widths", "each width must be finite and positive")
        cells = tuple(
            _cell_count(float(hi - lo), float(w))
            for lo, hi, w in zip(box.lower, box.upper, widths)
        )
        return cls(lower=box.lower.copy(), widths=widths, cells=cells)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def upper(self) -> np.ndarray:
        return self.lower + np.asarray(self.cells) * self.widths

    @property
    def n_points(self) -> int:
        return int(np.prod(self.cells)) if self.cells else 1

    @property
    def delta(self) -> float:
        """Worst-case distance between two points of one cell: ||widths||."""
        return float(np.linalg.norm(self.widths))

    def as_box(self) -> Box:
        return Box(self.lower, self.upper)

    def axis_edges(self, d: int) -> np.ndarray:
        return self.lower[d] + self.widths[d] * np.arange(self.cells[d] + 1)

    def axis_centers(self, d: int) -> np.ndarray:
        return self.lower[d] + self.widths[d] * (np.arange(self.cells[d]) + 0.5)

    def center(self, flat: int) -> np.ndarray:
        multi = np.unravel_index(flat, self.cells)
        return self.lower + self.widths * (np.asarray(multi, dtype=float) + 0.5)

    def centers(self) -> np.ndarray:
        """All representative points, ordered by flat index; shape (n_points, dim)."""
        cached = getattr(self, "_centers", None)
        if cached is None:
            if self.dim == 0:
                cached = np.zeros((1, 0))
            else:
                axes = [self.axis_centers(d) for d in range(self.dim)]
                mesh = np.meshgrid(*axes, indexing="ij")
                cached = np.stack([m.reshape(-1) for m in mesh], axis=1)
            cached.setflags(write=False)
            object.__setattr__(self, "_centers", cached)
        return cached

    def locate_many(self, x: np.ndarray) -> np.ndarray:
        """Flat cell indices for points of shape (..., dim); outside maps to n_points."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise DimensionMismatch("x", f"expected last axis {self.dim}")
        edge = _EDGE_RTOL * self.widths
        upper = self.upper
        inside = np.all((x >= self.lower - edge) & (x <= upper + edge), axis=-1)
        rel = (x - self.lower) / self.widths
        idx = np.floor(rel).astype(np.int64)
        idx = np.clip(idx, 0, np.asarray(self.cells) - 1)
        flat = np.ravel_multi_index(
            tuple(np.moveaxis(idx, -1, 0)), self.cells, mode="clip"
        )
        return np.where(inside, flat, self.n_points)

    def locate(self, x) -> int:
        return int(self.locate_many(as_vector(x)))


@dataclass(frozen=True)
class QuantizeResult:
    index: int
    representative: np.ndarray | None  # None when the point left the grid

    @property
    def outside(self) -> bool:
        return self.representative is None


def quantize(grid: UniformGrid, x) -> QuantizeResult:
    """Representative point and flat index of the cell containing x.

    Cells are half-open, so a point exactly on an interior boundary belongs
    to the cell whose lower edge it is; points outside the grid map to the
    sink index n_points.
    """
    idx = grid.locate(x)
    if idx == grid.n_points:
        return QuantizeResult(index=idx, representative=None)
    return QuantizeResult(index=idx, representative=grid.center(idx))


@dataclass(frozen=True, eq=False)
class AbstractionGrid:
    state: UniformGrid
    input: UniformGrid
    internal: UniformGrid | None = None

    @property
    def n_internal(self) -> int:
        return self.internal.n_points if self.internal is not None else 1

    def internal_shift(self, d_tilde: np.ndarray, w_idx: int) -> np.ndarray:
        if self.internal is None or d_tilde.size == 0:
            return np.zeros(self.state.dim)
        return d_tilde @ self.internal.center(w_idx)


@dataclass(eq=False)
class FiniteAbstraction:
    """Finite transition structure over grid representatives.

    `successors` has shape (S, U, W) with the sink encoded as index S for
    deterministic abstractions; `kernel` holds sparse probability rows over
    S+1 targets (last column = sink) indexed by flat (s, u, w) otherwise.
    """

    grid: AbstractionGrid
    kind: str  # "deterministic" | "stochastic"
    disc: DiscretizationSpec
    P_map: np.ndarray
    output_map: np.ndarray           # C1 P, applied to representatives
    internal_output_map: np.ndarray  # C2 P
    successors: np.ndarray | None = None
    kernel: scipy.sparse.csr_matrix | None = None

    @property
    def sink(self) -> int:
        return self.grid.state.n_points

    @property
    def n_states(self) -> int:
        return self.grid.state.n_points

    @property
    def n_inputs(self) -> int:
        return self.grid.input.n_points

    @property
    def n_internal(self) -> int:
        return self.grid.n_internal

    def row(self, s: int, u: int, w: int = 0) -> np.ndarray:
        """Dense probability row over S+1 targets (stochastic abstractions)."""
        if self.kernel is None:
            raise DimensionMismatch("kernel", "abstraction is deterministic")
        flat = (s * self.n_inputs + u) * self.n_internal + w
        return np.asarray(self.kernel.getrow(flat).todense()).reshape(-1)


def _shift_table(sys: AffineSystem, disc: DiscretizationSpec, grid: AbstractionGrid):
    """Per-(input, internal) state-space shifts nu + D_tilde w."""
    if grid.state.dim != sys.n:
        raise DimensionMismatch("grid.state", f"expected dim {sys.n}")
    if grid.input.dim != sys.n:
        raise DimensionMismatch(
            "grid.input",
            "abstract inputs add to the state, so the input grid lives in state space",
        )
    if sys.p and (grid.internal is None or grid.internal.dim != sys.p):
        raise DimensionMismatch("grid.internal", f"expected dim {sys.p}")
    shifts = []
    for u in range(grid.input.n_points):
        nu = grid.input.center(u)
        for w in range(grid.n_internal):
            shifts.append(nu + grid.internal_shift(disc.D_tilde, w))
    return np.asarray(shifts).reshape(grid.input.n_points, grid.n_internal, sys.n)


def _warn_if_coarse(grid: AbstractionGrid, shifts: np.ndarray) -> None:
    span = grid.state.upper - grid.state.lower
    if np.any(np.abs(shifts).max(axis=(0, 1)) > span):
        warnings.warn(
            "an abstract input shift exceeds the state grid span; "
            "those transitions all collapse to the sink",
            GridTooCoarse,
        )


def build_deterministic(
    sys: AffineSystem, disc: DiscretizationSpec, grid: AbstractionGrid, P=None
) -> FiniteAbstraction:
    """Successor-table abstraction of the noise-free sampled model (R_tilde = 0).

    P is the matrix relating concrete and abstract coordinates (identity by
    default); the abstraction's output maps are C1 P and C2 P.
    """
    if np.any(disc.R_tilde):
        raise DimensionMismatch("R_tilde", "deterministic abstraction needs R_tilde = 0")
    P = np.eye(sys.n) if P is None else as_matrix(P)
    shifts = _shift_table(sys, disc, grid)
    _warn_if_coarse(grid, shifts)
    centers = grid.state.centers()
    S, U, W = grid.state.n_points, grid.input.n_points, grid.n_internal
    succ = np.empty((S, U, W), dtype=np.int64)
    for u in range(U):
        for w in range(W):
            succ[:, u, w] = grid.state.locate_many(centers + shifts[u, w])
    return FiniteAbstraction(
        grid=grid, kind="deterministic", disc=disc, P_map=P,
        output_map=sys.C1 @ P, internal_output_map=sys.C2 @ P,
        successors=succ,
    )


def _axis_masses(edges: np.ndarray, means: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian interval masses of one axis for a block of means; shape (rows, cells)."""
    if sigma > 0.0:
        cdf = ndtr((edges - means[:, None]) / sigma)
        return np.diff(cdf, axis=1)
    masses = np.zeros((means.size, edges.size - 1))
    j = np.searchsorted(edges, means, side="right") - 1
    hit = np.flatnonzero((j >= 0) & (j < masses.shape[1]))
    masses[hit, j[hit]] = 1.0
    return masses


def build_stochastic(
    sys: AffineSystem, disc: DiscretizationSpec, grid: AbstractionGrid, P=None
) -> FiniteAbstraction:
    """Finite Markov kernel for the sampled model with Gaussian noise R_tilde s(k).

    Requires an axis-aligned noise covariance (R_tilde R_tilde^T diagonal).
    Each row factors into per-dimension Gaussian interval masses; whatever
    mass falls off the grid goes to the sink, and rows are renormalized only
    when their drift from unit mass is below 1e-9.  Rows are computed in
    blocks of about `_BLOCK_ENTRIES` dense entries.
    """
    P = np.eye(sys.n) if P is None else as_matrix(P)
    cov = disc.R_tilde @ disc.R_tilde.T
    off = cov - np.diag(np.diag(cov))
    if np.any(np.abs(off) > 1e-12 * (1.0 + np.abs(cov).max())):
        raise NonDiagonalNoise("R_tilde R_tilde^T must be diagonal")
    sigma = np.sqrt(np.maximum(np.diag(cov), 0.0))
    shifts = _shift_table(sys, disc, grid)
    _warn_if_coarse(grid, shifts)
    sgrid = grid.state
    S, U, W = sgrid.n_points, grid.input.n_points, grid.n_internal
    edges = [sgrid.axis_edges(d) for d in range(sgrid.dim)]
    centers = sgrid.centers()
    shifts = shifts.reshape(U * W, sgrid.dim)

    n_rows = S * U * W
    step = max(1, _BLOCK_ENTRIES // (S + 1))
    data, indices, counts = [], [], []
    for r0 in range(0, n_rows, step):
        rows = np.arange(r0, min(r0 + step, n_rows))
        s_idx, uw_idx = np.divmod(rows, U * W)
        means = centers[s_idx] + shifts[uw_idx]
        probs = _axis_masses(edges[0], means[:, 0], sigma[0])
        for d in range(1, sgrid.dim):
            axis = _axis_masses(edges[d], means[:, d], sigma[d])
            probs = (probs[:, :, None] * axis[:, None, :]).reshape(rows.size, -1)
        inside = probs.sum(axis=1)
        sink = 1.0 - inside
        bad = np.flatnonzero(sink < -_ROW_TOL)
        if bad.size:
            u, w = divmod(int(uw_idx[bad[0]]), W)
            raise RowMassError((int(s_idx[bad[0]]), u, w), float(sink[bad[0]]))
        sink = np.maximum(sink, 0.0)
        full = np.concatenate([probs, sink[:, None]], axis=1)
        nz_row, nz_col = np.nonzero(full)
        data.append(full[nz_row, nz_col] / (inside + sink)[nz_row])
        indices.append(nz_col.astype(np.int32))  # as the CSR stores them; half the memory
        counts.append(np.bincount(nz_row, minlength=rows.size))
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    kernel = scipy.sparse.csr_matrix(
        (np.concatenate(data), np.concatenate(indices), indptr),
        shape=(n_rows, S + 1),
    )
    return FiniteAbstraction(
        grid=grid, kind="stochastic", disc=disc, P_map=P,
        output_map=sys.C1 @ P, internal_output_map=sys.C2 @ P,
        kernel=kernel,
    )


def export_abstraction(abs_: FiniteAbstraction, json_path, csv_path) -> None:
    """Write a header JSON (grid, kind, dims) and a row CSV (state,input,internal,target,prob).

    CSV rows come in (state, input, internal, target) order, formatted and
    written about `_EXPORT_ENTRIES` at a time; probabilities are the shortest
    round-trip `repr` of each float.  The abstraction is not modified.
    """
    header = {
        "kind": abs_.kind,
        "n_states": abs_.n_states,
        "n_inputs": abs_.n_inputs,
        "n_internal": abs_.n_internal,
        "sink": abs_.sink,
        "tau": abs_.disc.tau,
        "state_grid": {
            "lower": abs_.grid.state.lower.tolist(),
            "widths": abs_.grid.state.widths.tolist(),
            "cells": list(abs_.grid.state.cells),
        },
        "input_grid": {
            "lower": abs_.grid.input.lower.tolist(),
            "widths": abs_.grid.input.widths.tolist(),
            "cells": list(abs_.grid.input.cells),
        },
        "internal_grid": None if abs_.grid.internal is None else {
            "lower": abs_.grid.internal.lower.tolist(),
            "widths": abs_.grid.internal.widths.tolist(),
            "cells": list(abs_.grid.internal.cells),
        },
    }
    with open(json_path, "w", newline="\n") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")
    U, W = abs_.n_inputs, abs_.n_internal
    with open(csv_path, "w", newline="") as fh:
        fh.write("state,input,internal,target,prob\n")
        if abs_.kind == "deterministic":
            targets = abs_.successors.reshape(-1)
            for e0 in range(0, targets.size, _EXPORT_ENTRIES):
                rows = np.arange(e0, min(e0 + _EXPORT_ENTRIES, targets.size))
                s, rem = np.divmod(rows, U * W)
                u, w = np.divmod(rem, W)
                fh.write("".join(map("%d,%d,%d,%d,1.0\n".__mod__, zip(
                    s.tolist(), u.tolist(), w.tolist(), targets[rows].tolist()))))
            return
        kernel = abs_.kernel.tocsr()
        indptr, cols = kernel.indptr, kernel.indices
        # each distinct probability (bit pattern) is formatted once, as repr
        bits = np.asarray(kernel.data, dtype=np.float64).view(np.int64)
        keys = np.unique(bits)
        texts = np.array([repr(p) + "\n" for p in keys.view(np.float64).tolist()],
                         dtype=object)
        in_order = kernel.has_sorted_indices
        r0, n_rows = 0, kernel.shape[0]
        while r0 < n_rows:
            # a block holds whole rows, so each row can be put in target
            # order within it, without sorting the shared kernel
            r1 = int(np.searchsorted(indptr, indptr[r0] + _EXPORT_ENTRIES, side="right"))
            r1 = min(max(r1 - 1, r0 + 1), n_rows)
            counts = np.diff(indptr[r0:r1 + 1])
            take = np.arange(indptr[r0], indptr[r1])
            if not in_order:
                row_of = np.repeat(np.arange(r0, r1), counts)
                take = take[np.lexsort((cols[take], row_of))]
            # each row label and each distinct target is formatted once
            s, rem = np.divmod(np.arange(r0, r1), U * W)
            u, w = np.divmod(rem, W)
            labels = list(map("%d,%d,%d,".__mod__, zip(s.tolist(), u.tolist(), w.tolist())))
            targets, target_of = np.unique(cols[take], return_inverse=True)
            targets = np.array(["%d," % t for t in targets.tolist()], dtype=object)
            parts = np.empty((take.size, 3), dtype=object)
            parts[:, 0] = np.repeat(np.array(labels, dtype=object), counts)
            parts[:, 1] = targets[target_of]
            parts[:, 2] = texts[np.searchsorted(keys, bits[take])]
            fh.write("".join(parts.reshape(-1).tolist()))
            r0 = r1
