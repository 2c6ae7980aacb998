"""Network-level certificate assembly.

The per-subsystem supply-rate blocks, weighted by mu, make up one symmetric
matrix X_cmp; the single inequality

    [M; I]^T X_cmp [M; I]  <=  0

then certifies that the weighted sum of subsystem storage functions is a
simulation function for the coupled network, and the subsystem constants
aggregate in closed form.  The pipeline holds the four super-blocks of
X_cmp as sparse block-diagonals (`supply_blocks`) and assembles the q x q
form M^T X11 M + M^T X12 + X21 M + X22 from them (`network_form`); the
dense X_cmp is built only on request (`build_x_cmp`), and a dense X_cmp
given to `check_compositional_lmi` is split into the same blocks.  For
networks whose blocks are identical scalar multiples of the identity, a
Gershgorin row-sum bound certifies the inequality without an eigensolve,
independently of the network size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .certificates import SstfConstants, StorageCertificate, psd_tolerance
from .errors import (
    DimensionMismatch,
    NonLinearRho,
    NonQuadraticAlpha,
    StructureMismatch,
    WeightNotPositive,
)
from .model import as_coupling, as_matrix, as_vector

CONDITION_NETWORK_LMI = "Con_1a"
CONDITION_COUPLING_EQ = "Con_2a"
CONDITION_ABSTRACT_WELL_POSED = "Con111"


@dataclass(frozen=True)
class LmiCheck:
    ok: bool
    margin: float  # largest eigenvalue of [M; I]^T X_cmp [M; I]
    tol: float


@dataclass(frozen=True)
class GershgorinCheck:
    ok: bool  # False means inconclusive, not violated
    bound: float
    row_sum: float


@dataclass(frozen=True)
class NetworkSsf:
    """Aggregated simulation-function constants for the coupled network."""

    alpha_mode: str  # "general" | "stacked"
    alpha_coeff: float
    kappa: float
    rho_ext_slope: float
    psi: float

    def alpha(self, s: float) -> float:
        return self.alpha_coeff * s * s

    def to_dict(self) -> dict:
        return {
            "alpha_mode": self.alpha_mode,
            "alpha_coeff": self.alpha_coeff,
            "kappa": self.kappa,
            "rho_ext_slope": self.rho_ext_slope,
            "psi": self.psi,
        }


@dataclass(eq=False)
class CompositionResult:
    x_cmp: np.ndarray | None  # the dense matrix, only when a caller built it
    lmi_margin: float  # minimum eigenvalue of -[M; I]^T X_cmp [M; I]
    ssf: NetworkSsf
    q_tilde: int
    x_cmp_shape: tuple[int, int] | None = None  # taken from x_cmp when omitted

    def __post_init__(self):
        if self.x_cmp_shape is None:
            if self.x_cmp is None:
                raise DimensionMismatch("x_cmp", "give x_cmp or x_cmp_shape")
            self.x_cmp_shape = self.x_cmp.shape

    def to_dict(self) -> dict:
        out = {
            "lmi_margin": self.lmi_margin,
            "q_tilde": self.q_tilde,
            "ssf": self.ssf.to_dict(),
            "x_cmp_shape": list(self.x_cmp_shape),
        }
        if self.x_cmp is not None:
            out["x_cmp"] = self.x_cmp.tolist()
        return out


@dataclass(frozen=True, eq=False)
class SupplyBlocks:
    """The four super-blocks of X_cmp, each a sparse block-diagonal.

    x11 = blkdiag(mu_i Xbar11_i) is p x p and x22 = blkdiag(mu_i Xbar22_i)
    is q x q, with p = sum(p_i) internal inputs and q = sum(q2_i) internal
    outputs; x12 (p x q) and x21 (q x p) hold the coupling blocks.
    """

    x11: scipy.sparse.csr_matrix
    x12: scipy.sparse.csr_matrix
    x21: scipy.sparse.csr_matrix
    x22: scipy.sparse.csr_matrix

    @property
    def shape(self) -> tuple[int, int]:
        n = self.x11.shape[0] + self.x22.shape[0]
        return n, n

    @classmethod
    def split(cls, x_cmp: np.ndarray, p: int) -> "SupplyBlocks":
        """The blocks of a dense X_cmp whose first p rows belong to the inputs."""
        return cls(*(scipy.sparse.csr_matrix(b) for b in (
            x_cmp[:p, :p], x_cmp[:p, p:], x_cmp[p:, :p], x_cmp[p:, p:])))

    def dense(self) -> np.ndarray:
        return scipy.sparse.bmat([[self.x11, self.x12],
                                  [self.x21, self.x22]]).toarray()


def _block_diag(mats: list[np.ndarray], weights: np.ndarray) -> scipy.sparse.csr_matrix:
    """CSR blkdiag(w_i mats_i) holding only nonzero entries.

    A matrix object shared by many subsystems (a broadcast certificate) is
    scanned once and placed at all of its offsets together.
    """
    r_off = np.cumsum([0] + [m.shape[0] for m in mats])
    c_off = np.cumsum([0] + [m.shape[1] for m in mats])
    members: dict = {}
    for k, m in enumerate(mats):
        members.setdefault(id(m), []).append(k)
    rows, cols, vals = [], [], []
    for ks in members.values():
        m = mats[ks[0]]
        i, j = np.nonzero(m)
        ks = np.asarray(ks)[:, None]
        rows.append((r_off[ks] + i).ravel())
        cols.append((c_off[ks] + j).ravel())
        vals.append((weights[ks] * m[i, j]).ravel())
    return scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(r_off[-1], c_off[-1]))


def supply_blocks(certs: list[StorageCertificate], mu) -> SupplyBlocks:
    """The weighted supply-rate blocks of X_cmp, without building X_cmp.

    Subsystem i contributes mu_i Xbar11_i to x11, mu_i Xbar12_i to x12 and
    so on, in subsystem order; build_x_cmp arranges the same blocks densely.
    """
    mu = as_vector(mu)
    if len(certs) != mu.size or len(certs) == 0:
        raise DimensionMismatch("mu", "one positive weight per certificate")
    for i, w in enumerate(mu):
        if not w > 0:
            raise WeightNotPositive(i)
    return SupplyBlocks(*(_block_diag([getattr(c, name) for c in certs], mu)
                          for name in ("Xbar11", "Xbar12", "Xbar21", "Xbar22")))


def build_x_cmp(certs: list[StorageCertificate], mu) -> np.ndarray:
    """Arrange the weighted supply-rate blocks into the network matrix.

    The (1,1) super-block is blkdiag(mu_i Xbar11_i), the (1,2) super-block
    blkdiag(mu_i Xbar12_i), and symmetrically for the rest; total size is
    sum(p_i) + sum(q2_i).  The pipeline never builds it: it assembles the
    network form from `supply_blocks` directly.
    """
    return supply_blocks(certs, mu).dense()


def network_form(M, blocks: SupplyBlocks) -> np.ndarray:
    """Symmetric part of [M; I]^T X_cmp [M; I], assembled from the blocks.

    That is M^T x11 M + M^T x12 + x21 M + x22, formed as M^T (x11 M)
    + (x12^T + x21) M + x22 (the two coupling terms share one symmetric
    part) and symmetrized once.  Every product is sparse, so the returned
    q x q array is the only dense matrix made: X_cmp and [M; I] are never
    formed.
    """
    M = as_coupling(M)
    p, q = M.shape
    if blocks.x11.shape != (p, p) or blocks.x22.shape != (q, q):
        raise DimensionMismatch(
            "x_cmp", f"expected {(p + q,) * 2}, got {blocks.shape}")
    form = M.T @ (blocks.x11 @ M) + (blocks.x12.T + blocks.x21) @ M + blocks.x22
    return (0.5 * (form + form.T)).toarray(order="C")


def check_compositional_lmi(M, x_cmp) -> LmiCheck:
    """Verify [M; I]^T X_cmp [M; I] <= 0; the margin is its largest eigenvalue.

    `x_cmp` is either the dense matrix (the oracle path: it is split into
    its four blocks) or a `SupplyBlocks`, as the pipeline passes it.  Both
    go through `network_form` and one dense eigensolve of the q x q form,
    which works in place on it.
    """
    M = as_coupling(M)
    if not isinstance(x_cmp, SupplyBlocks):
        x_cmp = as_matrix(x_cmp)
        n = sum(M.shape)
        if x_cmp.shape != (n, n):
            raise DimensionMismatch("x_cmp", f"expected {(n, n)}, got {x_cmp.shape}")
        x_cmp = SupplyBlocks.split(x_cmp, M.shape[0])
    quad = network_form(M, x_cmp)
    tol = psd_tolerance(quad)
    margin = -math.inf
    if quad.size:
        # the LAPACK routine of numpy's eigvalsh, run in place: the form is
        # symmetric, so its transpose is the Fortran-order array it takes
        margin = float(scipy.linalg.eigh(quad.T, eigvals_only=True, driver="evd",
                                         overwrite_a=True, check_finite=False)[-1])
    return LmiCheck(ok=margin <= tol, margin=margin, tol=tol)


def scalar_block_params(certs: list[StorageCertificate], mu) -> tuple[float, float]:
    """Extract (a, d) when every weighted block pair is (a I, d I) with zero coupling.

    Raises StructureMismatch when the blocks are not in that shared scalar form.
    """
    mu = as_vector(mu)
    if len(certs) != mu.size or not certs:
        raise DimensionMismatch("mu", "one weight per certificate")
    scalars: dict = {}  # per distinct certificate object, checked once
    for c in certs:
        if id(c) in scalars:
            continue
        p, q = c.Xbar11.shape[0], c.Xbar22.shape[0]
        if p == 0 or q == 0:
            raise StructureMismatch("scalar fast path needs nonempty internal blocks")
        if np.any(c.Xbar12) or np.any(c.Xbar21):
            raise StructureMismatch("off-diagonal supply-rate blocks must be zero")
        a0, d0 = c.Xbar11[0, 0], c.Xbar22[0, 0]
        if np.any(c.Xbar11 != a0 * np.eye(p)) or np.any(c.Xbar22 != d0 * np.eye(q)):
            raise StructureMismatch("blocks must be scalar multiples of the identity")
        scalars[id(c)] = (a0, d0)
    a, d = (mu * np.array(col) for col in zip(*(scalars[id(c)] for c in certs)))
    if np.any(a != a[0]) or np.any(d != d[0]):
        raise StructureMismatch("all subsystems must share identical weighted blocks")
    return float(a[0]), float(d[0])


def gershgorin_fast_check(M, a: float, d: float) -> GershgorinCheck:
    """Row-sum certificate for a M^T M + d I <= 0; False means inconclusive.

    r = max_i sum_j |M_ij| bounds ||M||, so a r^2 + d <= 0 suffices when
    a >= 0 (for a < 0 the d term alone is binding).
    """
    M = as_coupling(M)
    r = float(abs(M).sum(axis=1).max()) if M.shape[0] else 0.0
    bound = a * r * r + d if a >= 0 else d
    tol = 1e-12 * (1.0 + abs(a) * r * r + abs(d))
    return GershgorinCheck(ok=bound <= tol, bound=bound, row_sum=r)


def compose_ssf(
    constants: list[SstfConstants],
    mu,
    mode: str = "general",
    output_maps: list[np.ndarray] | None = None,
) -> NetworkSsf:
    """Aggregate verified per-subsystem constants into network constants.

    kappa is the exact maximum of the subsystem kappas; psi the weighted sum;
    the external gain slope is the Euclidean norm of the weighted subsystem
    slopes (the linear maximum over a sphere in closed form).  The quadratic
    alpha aggregates in one of two modes:

      * "general":  alpha(s) = s^2 / sum_i 1/(a_i mu_i), the closed-form
        inverse of the worst-case split over the weighted simplex -- valid
        for any quadratic subsystem alphas;
      * "stacked":  alpha(s) = min_i(mu_i a_i) s^2, enabled only when every
        external output map is square and nonsingular so the summed storage
        function is itself a quadratic in the stacked output error.

    Stacked mode requires `output_maps` (the C1 matrices) for that gate.
    """
    mu = as_vector(mu)
    n = len(constants)
    if n == 0 or mu.size != n:
        raise DimensionMismatch("mu", "one weight per subsystem")
    for i, w in enumerate(mu):
        if not w > 0:
            raise WeightNotPositive(i)
    for c in constants:
        if not (np.isfinite(c.rho_ext_slope) and c.rho_ext_slope >= 0):
            raise NonLinearRho(f"subsystem gain slope {c.rho_ext_slope!r} is not a valid linear gain")
        if not (np.isfinite(c.alpha_coeff) and c.alpha_coeff > 0):
            raise NonQuadraticAlpha(f"subsystem alpha coefficient {c.alpha_coeff!r} is not quadratic-positive")

    kappa = max(c.kappa for c in constants)
    psi = math.fsum(w * c.psi for w, c in zip(mu, constants))
    slope = math.sqrt(math.fsum((w * c.rho_ext_slope) ** 2 for w, c in zip(mu, constants)))

    if mode == "general":
        alpha_coeff = 1.0 / math.fsum(1.0 / (c.alpha_coeff * w) for w, c in zip(mu, constants))
    elif mode == "stacked":
        if output_maps is None:
            raise StructureMismatch("stacked mode needs the external output maps to validate")
        # a map shared by many subsystems is rank-checked once; the list keeps
        # every map alive, so no two distinct maps share an id in the memo
        output_maps = list(output_maps)
        checked = set()
        for i, c1 in enumerate(output_maps):
            if id(c1) in checked:
                continue
            checked.add(id(c1))
            c1 = as_matrix(c1)
            if c1.shape[0] != c1.shape[1] or np.linalg.matrix_rank(c1) < c1.shape[0]:
                raise StructureMismatch(
                    f"stacked mode needs square nonsingular output maps (subsystem {i})"
                )
        alpha_coeff = min(w * c.alpha_coeff for w, c in zip(mu, constants))
    else:
        raise ValueError(f"unknown alpha aggregation mode {mode!r}")

    return NetworkSsf(alpha_mode=mode, alpha_coeff=float(alpha_coeff),
                      kappa=float(kappa), rho_ext_slope=float(slope),
                      psi=float(psi))
