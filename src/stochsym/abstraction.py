"""Grid quantization and finite abstractions of the sampled-data dynamics.

A uniform grid covers each box with equal cells; cell centers are the
representative points, which minimize the worst-case quantization radius.
Every abstraction is a finite Markov kernel over the cells plus one
absorbing sink (everything leaving the grid), which synthesis treats as
unsafe.  A noise-free model's rows are point masses; they, and every
noise-free axis of a Gaussian row, use `UniformGrid.locate_many`'s cell rule.

Gaussian rows are built block-wise from per-axis cell masses, and the CSV
export is written one block of rows at a time.  Each Gaussian axis is cut
6 sqrt(2) sigma below its mean, the mirror image of where the normal CDF
rounds to 1 above it: cells wholly below the cut get no mass, and the
1.08e-17 per axis below it goes to the sink.  Moving mass to the unsafe sink
can only lower a safety value, and a cut row differs from the uncut one by
at most dim x 1.08e-17 in total variation.  A finished abstraction is
immutable and shareable.  The normal CDF is `ndtr`, Cephes' (Moshier,
"Methods and Programs for Mathematical Functions", 1989) in numpy: erf and
erfc by Cody's rational Chebyshev approximations (Math. Comp. 23, 1969).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .csr import CSR, as_csr
from .errors import (
    DimensionMismatch,
    GridTooCoarse,
    NonDiagonalNoise,
    RowMassError,
    write_json,
)
from .model import AffineSystem, Box, DiscretizationSpec, as_matrix, as_vector

#: tolerated row-mass drift before renormalizing a kernel row
_ROW_TOL = 1e-9
#: fp dust absorbed at the outer grid edges when locating points
_EDGE_RTOL = 1e-9
#: dense kernel entries, rows x (S+1), computed per block in build_stochastic
_BLOCK_ENTRIES = 1 << 16
#: CSV rows formatted and written per block in export_abstraction; point-mass
#: rows hold one entry each, so a block holds this many row labels.
#: runtime.write_trajectories_csv writes about this many fields at a time
_EXPORT_ENTRIES = 1 << 12

# Cephes ndtr's coefficients: erf(x) = x T(x^2) / U(x^2) for |x| <= 1, and
# erfc(z) = exp(-z^2) P(z) / Q(z) for 1 <= z < 8, exp(-z^2) R(z) / S(z) from
# 8 on; U, Q and S have an implicit leading 1
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_SQRTH = 7.07106781186547524401E-1  # 1 / sqrt(2)
_MAXLOG = 7.09782712893383996843E2  # log of the largest double
#: from x / sqrt(2) = 6 on, erfc(6) / 2 = 1.1e-17 is below half an ulp of 1,
#: so ndtr(x) = 1 - erfc / 2 rounds to exactly 1
_NDTR_ONE = 6.0
#: a Gaussian axis's standardized edges are cut from below at -_TAIL_SIGMAS,
#: the mirror image of `_NDTR_ONE`; the at most _TAIL_MASS below the cut goes
#: to the sink
_TAIL_SIGMAS = _NDTR_ONE / _SQRTH
#: ndtr(-_TAIL_SIGMAS), written out so that importing evaluates no ndtr (the
#: tests check that the two agree)
_TAIL_MASS = 1.0759868356249455e-17


def _horner(z: np.ndarray, coeffs, monic: bool = False) -> np.ndarray:
    """coeffs[0] z^n + ... + coeffs[n] (Cephes polevl), or with a leading 1 (p1evl)."""
    acc = z + coeffs[0] if monic else np.full_like(z, coeffs[0])
    for c in coeffs[1:]:
        acc *= z
        acc += c
    return acc


def _erf(x: np.ndarray) -> np.ndarray:
    """erf(x) for |x| <= 1."""
    z = x * x
    return x * _horner(z, _ERF_T) / _horner(z, _ERF_U, monic=True)


def _erfc(z: np.ndarray) -> np.ndarray:
    """erfc(z) for 1 / sqrt(2) <= z <= sqrt(_MAXLOG)."""
    out = np.empty_like(z)
    mid = z < 1.0
    out[mid] = 1.0 - _erf(z[mid])
    for part, p, q in ((~mid & (z < 8.0), _ERFC_P, _ERFC_Q), (z >= 8.0, _ERFC_R, _ERFC_S)):
        t = z[part]
        # exp(-t^2) as exp(-m^2) exp(-(2 m f + f^2)), m = t to the nearest
        # 1/128 and f = t - m, so that m^2 is exact (Cephes expx2)
        m = np.floor(128.0 * t + 0.5) / 128.0
        f = t - m
        e = np.exp(-(m * m)) * np.exp(-(2.0 * m * f + f * f))
        out[part] = e * _horner(t, p) / _horner(t, q, monic=True)
    return out


def ndtr(a) -> np.ndarray:
    """Standard normal CDF, elementwise, as Cephes' ndtr computes it.

    With x = a / sqrt(2): 1/2 + erf(x) / 2 for |x| < 1 / sqrt(2), else
    erfc(|x|) / 2 (or 1 minus it, for x > 0).  Only arguments whose value is
    neither exactly 0 nor exactly 1 are evaluated: 0 where x^2 exceeds
    `_MAXLOG` (Cephes' underflow), 1 from x = `_NDTR_ONE` on.  NaN stays NaN.
    The result has the shape of `a`, a 0-d array for a scalar.
    """
    if np.ndim(a) == 0:
        return ndtr(np.reshape(a, 1)).reshape(())
    x = np.asarray(a, dtype=float) * _SQRTH
    z = np.abs(x)
    y = np.heaviside(x, 0.5)  # the 0s and 1s, and NaN
    near = z < _SQRTH
    y[near] = 0.5 + 0.5 * _erf(x[near])
    far = ~near & (z * z <= _MAXLOG) & (x < _NDTR_ONE)
    half = 0.5 * _erfc(z[far])
    y[far] = np.where(x[far] > 0.0, 1.0 - half, half)
    return y


def _cell_count(span: float, width: float) -> int:
    k = span / width
    r = round(k)
    if abs(k - r) <= 1e-9 * max(1.0, abs(k)) and r >= 1:
        return int(r)
    return max(1, int(math.ceil(k - 1e-12)))


@dataclass(frozen=True, eq=False)
class UniformGrid:
    """Uniform cells covering a box; representatives are cell centers."""

    lower: np.ndarray
    widths: np.ndarray
    cells: tuple

    def __post_init__(self):
        object.__setattr__(self, "lower", as_vector(self.lower))
        object.__setattr__(self, "widths", as_vector(self.widths))
        object.__setattr__(self, "cells", tuple(int(c) for c in self.cells))
        if (self.widths <= 0).any():
            raise DimensionMismatch("widths", "cell widths must be positive")
        if len(self.cells) != self.lower.size:
            raise DimensionMismatch("cells", "one cell count per dimension")

    @classmethod
    def cover(cls, box: Box, widths) -> "UniformGrid":
        widths = as_vector(widths)
        if widths.size != box.dim:
            raise DimensionMismatch("widths", f"expected {box.dim} widths")
        if not (np.isfinite(widths) & (widths > 0)).all():
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
        return math.prod(self.cells)

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
        """Flat cell indices for points of shape (..., dim); outside maps to n_points.

        Per axis the cell is floor((x - lower) / width) in floating point,
        clipped to the axis; 1e-9 widths of slack keep the outer edges inside.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise DimensionMismatch("x", f"expected last axis {self.dim}")
        edge = _EDGE_RTOL * self.widths
        upper = self.upper
        inside = np.all((x >= self.lower - edge) & (x <= upper + edge), axis=-1)
        idx = np.floor((x - self.lower) / self.widths).astype(np.int64)
        flat = np.ravel_multi_index(
            tuple(idx[..., d] for d in range(self.dim)), self.cells, mode="clip"
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

    The cell is `UniformGrid.locate_many`'s, so a point on an interior edge
    lands on the side its rounded quotient does: edge 20.005 of a 0.005-wide
    axis from 20.0 gives 0.999999999999801, cell 0.  Points outside the grid
    map to the sink index n_points.
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


@dataclass(eq=False)
class FiniteAbstraction:
    """Finite Markov kernel over grid representatives.

    `kernel` holds sparse probability rows over S+1 targets (last column =
    sink), row (s * U + u) * W + w for state s, input u and internal cell w,
    as this package's `CSR`, so each row's targets are sorted.  Any other
    kernel given (a scipy sparse matrix, a dense array) is converted to one;
    scipy is never imported for it.  A noise-free model's rows are point
    masses (one entry, 1.0).
    """

    grid: AbstractionGrid
    disc: DiscretizationSpec
    output_map: np.ndarray  # C1 P, applied to representatives
    kernel: CSR

    def __post_init__(self):
        self.kernel = as_csr(self.kernel)

    @property
    def kind(self) -> str:  # "deterministic" (point-mass rows) | "stochastic"
        return "deterministic" if self.disc.noise_free else "stochastic"

    @property
    def successors(self) -> np.ndarray:
        """(S, U, W) targets of a point-mass kernel; only perfbench/spans.py reads it."""
        if self.kind != "deterministic":
            raise DimensionMismatch("kernel", "abstraction is stochastic")
        table = self.kernel.indices.reshape(self.n_states, self.n_inputs, self.n_internal)
        table.flags.writeable = False  # a view of the shared kernel
        return table

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
        """Dense probability row over S+1 targets."""
        flat = (s * self.n_inputs + u) * self.n_internal + w
        k = self.kernel
        take = slice(k.indptr[flat], k.indptr[flat + 1])
        row = np.zeros(k.shape[1])
        row[k.indices[take]] = k.data[take]
        return row


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
    internal = (np.zeros((1, sys.n)) if grid.internal is None
                else grid.internal.centers() @ disc.D_tilde.T)
    return grid.input.centers()[:, None] + internal[None]


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
    """Point-mass abstraction of the noise-free sampled model (R_tilde = 0).

    P is the matrix relating concrete and abstract coordinates (identity by
    default); the abstraction's output maps are C1 P and C2 P.
    """
    if np.any(disc.R_tilde):
        raise DimensionMismatch("R_tilde", "deterministic abstraction needs R_tilde = 0")
    return _build(sys, disc, grid, P)


def build_stochastic(
    sys: AffineSystem, disc: DiscretizationSpec, grid: AbstractionGrid, P=None
) -> FiniteAbstraction:
    """Finite Markov kernel for the sampled model with Gaussian noise R_tilde s(k).

    Requires an axis-aligned noise covariance (R_tilde R_tilde^T diagonal).
    Each row factors into per-dimension Gaussian interval masses (a point
    mass on a noise-free axis); whatever mass falls off the grid goes to
    the sink, and so does each Gaussian axis's mass more than
    `_TAIL_SIGMAS` = 6 sqrt(2) standard deviations below its mean (at most
    `_TAIL_MASS` = 1.08e-17 per axis), so no row stores cells wholly below
    that cut.  Rows are renormalized only when their drift from unit mass
    is below 1e-9.  Rows are computed in blocks of about
    `_BLOCK_ENTRIES` dense entries, or all at once when every row is a point mass.
    """
    return _build(sys, disc, grid, P)


def _axis_masses(axis: UniformGrid, means: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian cell masses on the 1-D grid `axis` for a block of means; shape (rows, cells).

    The CDF at each edge is ndtr(max(z, -_TAIL_SIGMAS)) for the standardized
    edge z, with ndtr evaluated only above the cut.
    """
    if sigma > 0.0:
        z = (axis.axis_edges(0) - means[:, None]) / sigma
        cdf = np.full_like(z, _TAIL_MASS)
        above = ~(z <= -_TAIL_SIGMAS)  # NaN stays NaN
        cdf[above] = ndtr(z[above])
        return np.diff(cdf, axis=1)
    masses = np.zeros((means.size, axis.n_points))
    j = axis.locate_many(means[:, None])
    hit = np.flatnonzero(j < axis.n_points)
    masses[hit, j[hit]] = 1.0
    return masses


def _build(sys, disc, grid, P) -> FiniteAbstraction:
    """The kernel of `build_deterministic` and `build_stochastic`."""
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
    centers = sgrid.centers()
    shifts = shifts.reshape(U * W, sgrid.dim)
    n_rows = S * U * W

    if not np.any(sigma):
        targets = sgrid.locate_many(centers[:, None, :] + shifts[None, :, :]).reshape(-1)
        data, indices, indptr = np.ones(n_rows), targets.astype(np.int32), np.arange(n_rows + 1)
    else:
        axes = [UniformGrid(sgrid.lower[d:d + 1], sgrid.widths[d:d + 1], sgrid.cells[d:d + 1])
                for d in range(sgrid.dim)]
        step = max(1, _BLOCK_ENTRIES // (S + 1))
        data, indices, counts = [], [], []
        for r0 in range(0, n_rows, step):
            rows = np.arange(r0, min(r0 + step, n_rows))
            s_idx, uw_idx = np.divmod(rows, U * W)
            means = centers[s_idx] + shifts[uw_idx]
            probs = _axis_masses(axes[0], means[:, 0], sigma[0])
            for d in range(1, sgrid.dim):
                axis = _axis_masses(axes[d], means[:, d], sigma[d])
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
        data, indices = np.concatenate(data), np.concatenate(indices)
        indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    return FiniteAbstraction(
        grid=grid, disc=disc, output_map=sys.C1 @ P,
        kernel=CSR(data, indices, indptr, (n_rows, S + 1)),
    )


def export_abstraction(abs_: FiniteAbstraction, json_path, csv_path) -> None:
    """Write a header JSON (grid, kind, dims) and a row CSV (state,input,internal,target,prob).

    A stochastic header also records the Gaussian tail cut: `tail_sigmas`,
    the cut in standard deviations below each row's mean, and
    `tail_mass_per_axis`, the mass below it that each noisy axis sends to
    the sink.

    CSV rows come in (state, input, internal, target) order, written about
    `_EXPORT_ENTRIES` at a time.  Each state, (input, internal) pair and
    target is formatted once into a text table that a block's lines are
    assembled from; probabilities are the shortest round-trip `repr` of each
    float (a point mass is `1.0`), formatted once per distinct value, by the
    first block that meets it.  The kernel's rows are sorted by target, as
    every `CSR` is.
    """
    header = {
        "kind": abs_.kind,
        "n_states": abs_.n_states,
        "n_inputs": abs_.n_inputs,
        "n_internal": abs_.n_internal,
        "sink": abs_.sink,
        "tau": abs_.disc.tau,
        **{f"{name}_grid": None if g is None else {
            "lower": g.lower.tolist(), "widths": g.widths.tolist(), "cells": list(g.cells)}
           for name, g in (("state", abs_.grid.state), ("input", abs_.grid.input),
                           ("internal", abs_.grid.internal))},
    }
    if abs_.kind == "stochastic":
        header.update(tail_sigmas=_TAIL_SIGMAS, tail_mass_per_axis=_TAIL_MASS)
    write_json(json_path, header)
    S, U, W = abs_.n_states, abs_.n_inputs, abs_.n_internal
    kernel = abs_.kernel
    indptr, cols = kernel.indptr, kernel.indices
    bits = np.asarray(kernel.data, dtype=np.float64).view(np.int64)
    # each state, (input, internal) pair and target is formatted once
    states = np.array(["%d," % s for s in range(S)], dtype=object)
    pairs = np.array(["%d,%d," % uw for uw in itertools.product(range(U), range(W))],
                     dtype=object)
    targets = np.array(["%d," % t for t in range(S + 1)], dtype=object)
    made: dict[int, str] = {}  # repr of each probability (bit pattern) met so far
    with open(csv_path, "w", newline="") as fh:
        fh.write("state,input,internal,target,prob\n")
        r0, n_rows = 0, kernel.shape[0]
        while r0 < n_rows:
            # a block holds whole rows, at least one
            r1 = int(np.searchsorted(indptr, indptr[r0] + _EXPORT_ENTRIES, side="right"))
            r1 = min(max(r1 - 1, r0 + 1), n_rows)
            take = slice(indptr[r0], indptr[r1])
            s, uw = np.divmod(np.repeat(np.arange(r0, r1), np.diff(indptr[r0:r1 + 1])), U * W)
            parts = np.empty((take.stop - take.start, 4), dtype=object)
            parts[:, 0] = states[s]
            parts[:, 1] = pairs[uw]
            parts[:, 2] = targets[cols[take]]
            # each distinct probability of the block is looked up, and only
            # those not met before are formatted
            keys, key_of = np.unique(bits[take], return_inverse=True)
            texts = np.array(list(map(made.get, keys.tolist())), dtype=object)
            miss = np.flatnonzero(np.equal(texts, None))
            new = [repr(p) + "\n" for p in keys[miss].view(np.float64).tolist()]
            made.update(zip(keys[miss].tolist(), new))
            texts[miss] = new
            parts[:, 3] = texts[key_of]
            fh.write("".join(parts.reshape(-1).tolist()))
            r0 = r1
