"""Stochastic affine subsystems, time discretization, and interconnections.

A subsystem couples to the rest of a network through an internal input
(dimension p) and an internal output C2 x (dimension q2); properties of
interest live on the external output C1 x.  All input/output sets are
axis-aligned boxes: the only set operation needed anywhere is the
interval-arithmetic image of a box under a linear map, and boxes are
closed under it.

All types are immutable values after construction and every operation is
pure, so instances can be shared freely across threads.  A network holds
one object per group of equal subsystems; subsystem i is in group group_of[i].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CSR, as_csr
from .errors import (
    DimensionMismatch,
    EmptyBox,
    NonFiniteEntry,
    NotWellPosed,
    WeightNotPositive,
)

CONDITION_WELL_POSED = "well-posedness"

# Relative slack for box containment; absorbs float dust from grid covers.
_CONTAIN_RTOL = 1e-12


def as_matrix(x) -> np.ndarray:
    """Coerce to a 2-D float array (scalars become 1x1)."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(-1, 1)
    elif a.ndim != 2:
        raise DimensionMismatch("matrix", f"expected at most 2 axes, got {a.ndim}")
    return a


def as_coupling(m) -> CSR:
    """Coerce a coupling matrix to this package's float64 CSR with finite entries.

    Accepts nested lists and arrays (shaped as by `as_matrix`), a CSR, and
    any object with a `tocsr()` method, such as a scipy sparse matrix, by
    duck typing: scipy is never imported for it.
    """
    m = as_csr(m if hasattr(m, "tocsr") else as_matrix(m))
    if not np.isfinite(m.data).all():
        raise NonFiniteEntry("M")
    return m


def as_vector(x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1)
    elif a.ndim != 1:
        raise DimensionMismatch("vector", f"expected 1 axis, got {a.ndim}")
    return a


def positive_weights(mu) -> np.ndarray:
    """Coerce subsystem weights to a vector; each must be finite and positive."""
    mu = as_vector(mu)
    bad = np.flatnonzero(~(np.isfinite(mu) & (mu > 0)))
    if bad.size:
        raise WeightNotPositive(int(bad[0]))
    return mu


def group_index(group_of, n_groups: int) -> np.ndarray:
    """`group_of` (every subsystem its own group if None) as integers naming
    each of groups 0 .. n_groups - 1 at least once."""
    group_of = np.arange(n_groups) if group_of is None else np.asarray(group_of)
    if not (group_of.ndim == 1 and group_of.dtype.kind in "iu"
            and ((group_of >= 0) & (group_of < n_groups)).all()
            and np.bincount(group_of, minlength=n_groups).all()):
        raise DimensionMismatch("group_of", f"expected indices naming each of groups 0 .. "
                                            f"{n_groups - 1} at least once")
    return group_of.astype(np.intp, copy=False)


def group_members(group_of) -> list:
    """The subsystems of each group, ascending, as one index array per group."""
    order = np.argsort(group_of, kind="stable")
    return np.split(order, np.cumsum(np.bincount(group_of))[:-1])


def member_starts(sizes, group_of) -> np.ndarray:
    """Where each subsystem's slice starts (plus the total at the end) when
    subsystem i takes sizes[group_of[i]] consecutive entries."""
    sizes = np.asarray(sizes, dtype=np.intp)[group_of]
    return np.concatenate([[0], np.cumsum(sizes)])


def spread(parts, group_of) -> np.ndarray:
    """concatenate([parts[g] for g in group_of]) of 1-D arrays, without a per-subsystem loop."""
    if not len(parts):
        return np.zeros(0)
    sizes = [p.size for p in parts]
    src, out = member_starts(sizes, np.arange(len(parts))), member_starts(sizes, group_of)
    idx = np.repeat(src[group_of] - out[:-1], np.diff(out)) + np.arange(out[-1])
    return np.concatenate(parts)[idx]


def block_diag(mats: list[np.ndarray], weights: np.ndarray, group_of: np.ndarray) -> CSR:
    """CSR blkdiag(w_i mats[group_of[i]]) over subsystems i, holding only nonzero entries.

    Each group's matrix is scanned once; its nonzeros are repeated at every
    member's offset together, in subsystem order.
    """
    nonzero = [np.nonzero(m) for m in mats]
    count = np.array([i.size for i, _ in nonzero], dtype=np.intp)[group_of]
    r_off = member_starts([m.shape[0] for m in mats], group_of)
    c_off = member_starts([m.shape[1] for m in mats], group_of)
    rows = spread([i for i, _ in nonzero], group_of) + np.repeat(r_off[:-1], count)
    cols = spread([j for _, j in nonzero], group_of) + np.repeat(c_off[:-1], count)
    vals = (spread([m[i, j] for m, (i, j) in zip(mats, nonzero)], group_of)
            * np.repeat(weights, count))
    return CSR.from_coo(rows, cols, vals, (r_off[-1], c_off[-1]))


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned interval box, possibly of dimension zero."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", as_vector(self.lower))
        object.__setattr__(self, "upper", as_vector(self.upper))

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def is_empty(self) -> bool:
        return bool((self.lower > self.upper).any())

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    @property
    def radius(self) -> np.ndarray:
        return 0.5 * (self.upper - self.lower)

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    def is_bounded(self) -> bool:
        return bool(np.isfinite(self.lower).all() and np.isfinite(self.upper).all())

    def linear_image(self, m) -> "Box":
        """Tightest box enclosing {M x : x in self}; O(nnz) for a sparse M
        (anything with a `tocsr()` method)."""
        m = as_csr(m) if hasattr(m, "tocsr") else as_matrix(m)
        if m.shape[1] != self.dim:
            raise DimensionMismatch("M", f"{m.shape} applied to a {self.dim}-dim box")
        c = m @ self.center
        r = abs(m) @ self.radius
        return Box(c - r, c + r)

    def first_outside(self, other: "Box") -> int | None:
        """Index of the first component where `other` is not inside self, else None."""
        if other.dim != self.dim:
            raise DimensionMismatch("box", f"dims {other.dim} vs {self.dim}")
        tol = _CONTAIN_RTOL * (
            1.0 + np.maximum(np.abs(self.lower), np.abs(self.upper))
        )
        bad = (other.lower < self.lower - tol) | (other.upper > self.upper + tol)
        idx = np.flatnonzero(bad)
        return int(idx[0]) if idx.size else None

    @staticmethod
    def stack(boxes, group_of=None) -> "Box":
        """The product box of boxes[group_of[i]] over subsystems i (of every box by default)."""
        boxes = list(boxes)
        group_of = group_index(group_of, len(boxes))
        return Box(spread([b.lower for b in boxes], group_of),
                   spread([b.upper for b in boxes], group_of))


@dataclass(frozen=True, eq=False)
class AffineSystem:
    """One subsystem dx = (A x + B nu + D w + b) dt + G dW with outputs C1 x, C2 x."""

    A: np.ndarray
    B: np.ndarray
    C1: np.ndarray
    C2: np.ndarray
    D: np.ndarray
    G: np.ndarray
    b: np.ndarray
    state_box: Box
    input_box: Box
    internal_box: Box

    def __post_init__(self):
        for name in ("A", "B", "C1", "C2", "D", "G"):
            object.__setattr__(self, name, as_matrix(getattr(self, name)))
        object.__setattr__(self, "b", as_vector(self.b))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.D.shape[1]

    @property
    def q1(self) -> int:
        return self.C1.shape[0]

    @property
    def q2(self) -> int:
        return self.C2.shape[0]

    def internal_output_box(self) -> Box:
        """Interval image of the state box under C2."""
        return self.state_box.linear_image(self.C2)


@dataclass(frozen=True, eq=False)
class DiscretizationSpec:
    """Sampling time plus the free matrices of the sampled-data model.

    The sampled dynamics is x(k+1) = x(k) + nu(k) + D_tilde w(k) + R_tilde s(k)
    with s(k) standard Gaussian; output maps are C1 P and C2 P with P taken
    from the certificate.  R_tilde = 0 yields a noise-free abstract model.
    """

    tau: float
    D_tilde: np.ndarray
    R_tilde: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tau", float(self.tau))
        object.__setattr__(self, "D_tilde", as_matrix(self.D_tilde))
        object.__setattr__(self, "R_tilde", as_matrix(self.R_tilde))
        if not self.tau > 0:
            raise DimensionMismatch("tau", "sampling time must be positive")

    @property
    def noise_free(self) -> bool:
        return not np.any(self.R_tilde)

    @property
    def internal_free(self) -> bool:
        return not np.any(self.D_tilde)


@dataclass(frozen=True, eq=False)
class InterconnectionSpec:
    """Static coupling w = M zeta2 (M held as CSR) over stacked internal signals, weights mu.

    Subsystem i is in group group_of[i] (by default its own group i)."""

    M: CSR
    mu: np.ndarray
    subsystem_dims: np.ndarray  # per group (n, m, p, q2)
    group_of: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "M", as_coupling(self.M))
        object.__setattr__(self, "mu", positive_weights(self.mu))
        dims = np.array(self.subsystem_dims, dtype=np.intp).reshape(-1, 4)
        object.__setattr__(self, "subsystem_dims", dims)
        object.__setattr__(self, "group_of", group_index(self.group_of, len(dims)))
        if self.group_of.size != self.mu.size:
            raise DimensionMismatch("mu", "one weight per subsystem required")
        p_total, q2_total = (int(v) for v in dims[self.group_of, 2:].sum(axis=0))
        if self.M.shape != (p_total, q2_total):
            raise DimensionMismatch(
                "M", f"expected {(p_total, q2_total)}, got {self.M.shape}"
            )

    @property
    def n_subsystems(self) -> int:
        return self.group_of.size


def validate_system(sys: AffineSystem) -> bool:
    """Check shape consistency, finiteness, and box nonemptiness.

    Returns True when every invariant holds; raises the first violation
    (DimensionMismatch, NonFiniteEntry, or EmptyBox) otherwise.
    """
    n = sys.A.shape[0]
    if sys.A.shape != (n, n) or n == 0:
        raise DimensionMismatch("A", f"must be square and nonempty, got {sys.A.shape}")
    if sys.B.shape[0] != n or sys.B.shape[1] == 0:
        raise DimensionMismatch("B", f"expected ({n}, m>0), got {sys.B.shape}")
    if sys.C1.shape[1] != n or sys.C1.shape[0] == 0:
        raise DimensionMismatch("C1", f"expected (q1>0, {n}), got {sys.C1.shape}")
    if sys.C2.shape[1] != n:
        raise DimensionMismatch("C2", f"expected (q2, {n}), got {sys.C2.shape}")
    if sys.D.shape[0] != n:
        raise DimensionMismatch("D", f"expected ({n}, p), got {sys.D.shape}")
    if sys.G.shape[0] != n or sys.G.shape[1] == 0:
        raise DimensionMismatch("G", f"expected ({n}, >=1), got {sys.G.shape}")
    if sys.b.shape != (n,):
        raise DimensionMismatch("b", f"expected ({n},), got {sys.b.shape}")
    for name in ("A", "B", "C1", "C2", "D", "G", "b"):
        if not np.isfinite(getattr(sys, name)).all():
            raise NonFiniteEntry(name)
    for name, box, dim in (
        ("state_box", sys.state_box, n),
        ("input_box", sys.input_box, sys.m),
        ("internal_box", sys.internal_box, sys.p),
    ):
        if box.dim != dim:
            raise DimensionMismatch(name, f"expected dim {dim}, got {box.dim}")
        if box.is_empty:
            raise EmptyBox(name)
    return True


def check_well_posed(
    ic: InterconnectionSpec,
    internal_output_boxes,
    internal_input_boxes,
) -> bool:
    """Check that M maps the stacked internal-output box into the internal input box.

    The boxes are given per group of `ic` and tiled over its subsystems.
    The output boxes are the interval images of the state sets under the
    internal output maps; the check is interval arithmetic, hence sound.
    Raises NotWellPosed with the first violated component index.
    """
    y2 = Box.stack(internal_output_boxes, ic.group_of)
    w = Box.stack(internal_input_boxes, ic.group_of)
    if ic.M.shape != (w.dim, y2.dim):
        raise DimensionMismatch(
            "M", f"expected {(w.dim, y2.dim)} for these boxes, got {ic.M.shape}"
        )
    image = y2.linear_image(ic.M)
    bad = w.first_outside(image)
    if bad is not None:
        raise NotWellPosed(bad)
    return True
