"""Storage-function certificates for affine subsystems.

A certificate bundles the candidate matrices and scalars that make the
quadratic form S(x, xh) = (x - P xh)^T M_bar (x - P xh) a valid storage
function between a subsystem and its sampled-data abstraction.  Three
conditions are verified numerically:

  * closed-loop decay:      (A+BK)^T M_bar + M_bar (A+BK) <= -kappa_tilde M_bar
  * geometric matching:     B Q = A P   and   D = B H
  * sampled dissipation:    a block inequality coupling B, D, C2 with the
                            supply-rate blocks Xbar^{ij}

`verify` is the one check path: it runs each check once, raises `CheckFailed`
on the first violated condition, and evaluates the closed-form comparison
constants (quadratic alpha coefficient, contraction kappa, linear external
gain, and the per-step defect psi) consumed by the composition and bound layers.

`solve_candidates` builds the candidate matrices of solve mode in closed form
from an invertible square B; the certificate it completes goes through
`verify` like a given one.

Everything here is a pure function of immutable inputs, so subsystems with
equal inputs share one verdict.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import (
    CheckFailed,
    DimensionMismatch,
    Infeasible,
    KappaBarOutOfRange,
    NotPositiveDefinite,
    UnboundedStateBox,
)
from .model import AffineSystem, DiscretizationSpec, as_matrix

# Stable machine-readable tags for the three per-subsystem conditions,
# reported by the pipeline when a check fails.
CONDITION_LYAPUNOV = "Con_1"
CONDITION_INPUT_MATCH = "Con_2"
CONDITION_INTERNAL_MATCH = "Con_3"
CONDITION_DISSIPATION = "Eq_8a"

#: relative tolerance for the matrix equalities B Q = A P and D = B H
TOL_EQ = 1e-9


def psd_tolerance(x) -> float:
    """Eigenvalue slack used for semidefiniteness verdicts: 1e-9 * (1 + max |entry|).

    `x` is an array of entries: a dense matrix, or the stored entries
    (`data`) of a sparse network form, whose implicit zeros never change
    the largest magnitude.
    """
    # max |entry| without an |x|-sized temporary
    scale = max(float(x.max()), -float(x.min())) if x.size else 0.0
    return 1e-9 * (1.0 + scale)


def _sym(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + x.T)


def _min_eig(x: np.ndarray) -> float:
    if x.size == 0:
        return math.inf
    return float(np.linalg.eigvalsh(_sym(x))[0])


def _max_eig(x: np.ndarray) -> float:
    if x.size == 0:
        return -math.inf
    return float(np.linalg.eigvalsh(_sym(x))[-1])


@dataclass(frozen=True, eq=False)
class StorageCertificate:
    """Candidate matrices, decision scalars, and supply-rate blocks for one subsystem."""

    M_bar: np.ndarray
    K: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    H: np.ndarray
    kappa_tilde: float
    pi: float
    kappa_bar: float
    Xbar11: np.ndarray
    Xbar12: np.ndarray
    Xbar21: np.ndarray
    Xbar22: np.ndarray
    eta_bar: float = 1.0
    eta_bar_p: float = 1.0
    eta_bar_pp: float = 1.0

    def __post_init__(self):
        for f in fields(self):  # the matrices have capitalized names
            value = getattr(self, f.name)
            object.__setattr__(self, f.name, as_matrix(value) if f.name[0].isupper() else float(value))

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = v.tolist() if isinstance(v, np.ndarray) else v
        return out


@dataclass(frozen=True)
class SstfConstants:
    """Closed-form comparison constants of one verified certificate.

    alpha(s) = alpha_coeff * s^2, rho_ext(s) = rho_ext_slope * s; kappa and
    psi enter the expected one-step decrease directly.
    """

    alpha_coeff: float
    kappa: float
    rho_ext_slope: float
    psi: float

    def __post_init__(self):
        if not self.alpha_coeff > 0:
            raise NotPositiveDefinite("alpha_coeff", self.alpha_coeff)
        if not 0.0 < self.kappa < 1.0:
            raise KappaBarOutOfRange(self.kappa, 1.0)
        if self.rho_ext_slope < 0 or self.psi < 0:
            raise Infeasible("rho_ext slope and psi must be nonnegative")

    def alpha(self, s: float) -> float:
        return self.alpha_coeff * s * s

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PsdCheck:
    ok: bool
    margin: float  # minimum eigenvalue of the residual matrix
    tol: float


@dataclass(frozen=True)
class GeometricCheck:
    ok_input_match: bool   # B Q = A P
    ok_internal_match: bool  # D = B H
    residual_q: float
    residual_h: float

    @property
    def ok(self) -> bool:
        return self.ok_input_match and self.ok_internal_match


@dataclass(frozen=True)
class DissipativityCheck:
    ok: bool
    margin: float
    tol: float
    residual: np.ndarray  # RHS - LHS of the block inequality


@dataclass(frozen=True, eq=False)
class Candidates:
    """The candidate matrices `solve_candidates` finds: M_bar = P = I and the
    K, Q, H of one solve with B."""

    M_bar: np.ndarray
    K: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    H: np.ndarray


def kappa_tilde_from(kappa_bar: float, kappa_target: float, tau: float) -> float:
    """Decay rate reproducing a target kappa: kappa_tilde = -ln(kappa - kappa_bar) / tau."""
    gap = kappa_target - kappa_bar
    if not (0.0 < gap and kappa_target < 1.0 and kappa_bar > 0.0):
        raise KappaBarOutOfRange(kappa_bar, kappa_target)
    return -math.log(gap) / tau


def check_lyapunov(sys: AffineSystem, M_bar, K, kappa_tilde: float) -> PsdCheck:
    """Verify (A+BK)^T M_bar + M_bar (A+BK) <= -kappa_tilde M_bar.

    The verdict is the minimum eigenvalue of the residual
    -[(A+BK)^T M_bar + M_bar (A+BK)] - kappa_tilde M_bar, accepted when it
    is above -psd_tolerance.
    """
    M_bar = as_matrix(M_bar)
    K = as_matrix(K)
    lam_min = _min_eig(M_bar)
    if lam_min <= 0:
        raise NotPositiveDefinite("M_bar", lam_min)
    if K.shape != (sys.m, sys.n):
        raise DimensionMismatch("K", f"expected {(sys.m, sys.n)}, got {K.shape}")
    a_cl = sys.A + sys.B @ K
    residual = -(a_cl.T @ M_bar + M_bar @ a_cl) - kappa_tilde * M_bar
    tol = psd_tolerance(residual)
    margin = _min_eig(residual)
    return PsdCheck(ok=margin >= -tol, margin=margin, tol=tol)


def check_geometric(sys: AffineSystem, P, Q, H) -> GeometricCheck:
    """Verify the matching equalities B Q = A P and D = B H (relative Frobenius residuals)."""
    P, Q, H = as_matrix(P), as_matrix(Q), as_matrix(H)
    ap = sys.A @ P
    rq = float(np.linalg.norm(sys.B @ Q - ap))
    rh = float(np.linalg.norm(sys.D - sys.B @ H)) if sys.p else 0.0
    ok_q = rq <= TOL_EQ * (1.0 + float(np.linalg.norm(ap)))
    ok_h = rh <= TOL_EQ * (1.0 + float(np.linalg.norm(sys.D)))
    return GeometricCheck(ok_input_match=ok_q, ok_internal_match=ok_h,
                          residual_q=rq, residual_h=rh)


def solve_candidates(sys: AffineSystem, kappa_tilde: float) -> Candidates:
    """Construct (M_bar, K, P, Q, H) meeting Con_1, Con_2 and Con_3 at rate kappa_tilde.

    The closed form M_bar = P = I, K = B^-1 (-kappa_tilde/2 I - A), Q = B^-1 A
    and H = B^-1 D, from one solve with B, gives A + B K = -kappa_tilde/2 I,
    which meets Con_1 with equality.  B must be square, as the refinement law
    needs.  A singular B admits no solution: with P = I, Con_2 forces A = B Q,
    so A + B K = B (Q + K) is singular for every K and Con_1 cannot hold.
    """
    if kappa_tilde <= 0:
        raise Infeasible("kappa_tilde must be positive")
    n = sys.n
    if sys.m != n:
        raise DimensionMismatch(
            "B", "the refinement law needs a square B (external input dim == state dim)"
        )
    rhs = np.hstack([-0.5 * kappa_tilde * np.eye(n) - sys.A, sys.A, sys.D])
    try:
        K, Q, H = np.split(np.linalg.solve(sys.B, rhs), [n, 2 * n], axis=1)
    except np.linalg.LinAlgError:
        raise Infeasible(f"(A, B) not stabilizable to decay rate {kappa_tilde!r}: "
                         "B is singular", CONDITION_LYAPUNOV) from None
    return Candidates(M_bar=np.eye(n), K=K, P=np.eye(n), Q=Q, H=H)


def validate_certificate(cert: StorageCertificate, tau: float) -> bool:
    """Check the certificate's own invariants at sampling time tau (independent of any system)."""
    lam = _min_eig(cert.M_bar)
    if not np.allclose(cert.M_bar, cert.M_bar.T) or lam <= 0:
        raise NotPositiveDefinite("M_bar", lam)
    upper = 1.0 - math.exp(-cert.kappa_tilde * tau)
    if not (0.0 < cert.kappa_bar < upper):
        raise KappaBarOutOfRange(cert.kappa_bar, upper)
    if cert.pi <= 0:
        raise Infeasible("pi must be positive")
    if min(cert.eta_bar, cert.eta_bar_p, cert.eta_bar_pp) <= 0:
        raise Infeasible("eta slack constants must be positive")
    if cert.Xbar21.shape != cert.Xbar12.T.shape or np.any(cert.Xbar21 != cert.Xbar12.T):
        raise DimensionMismatch("Xbar21", "supply-rate matrix must be symmetric")
    return True


def check_dissipativity_lmi(cert: StorageCertificate, sys: AffineSystem,
                            tau: float) -> DissipativityCheck:
    """Verify the sampled-data dissipation block inequality at sampling time tau.

    diag(pi e^{-kt} tau B^T M B, pi e^{-kt} tau D^T M D)
        <=  [kappa_bar M + C2^T X22 C2,  C2^T X21; X12 C2,  X11]

    The refinement law adds state offsets directly to the external input, so
    the first diagonal block compares against an n x n right-hand side; this
    requires m == n.
    """
    if sys.m != sys.n:
        raise DimensionMismatch(
            "B", "the refinement law needs a square B (external input dim == state dim)"
        )
    validate_certificate(cert, tau)
    p = sys.p
    if cert.Xbar11.shape != (p, p):
        raise DimensionMismatch("Xbar11", f"expected {(p, p)}, got {cert.Xbar11.shape}")
    if cert.Xbar22.shape != (sys.q2, sys.q2):
        raise DimensionMismatch("Xbar22", f"expected {(sys.q2, sys.q2)}")
    scale = cert.pi * math.exp(-cert.kappa_tilde * tau) * tau
    M, C2 = cert.M_bar, sys.C2
    top_left = cert.kappa_bar * M + C2.T @ cert.Xbar22 @ C2 - scale * (sys.B.T @ M @ sys.B)
    residual = _sym(np.block([
        [top_left, C2.T @ cert.Xbar21],
        [cert.Xbar12 @ C2, cert.Xbar11 - scale * (sys.D.T @ M @ sys.D)],
    ]))
    tol = psd_tolerance(residual)
    margin = _min_eig(residual)
    return DissipativityCheck(ok=margin >= -tol, margin=margin, tol=tol,
                              residual=residual)


def gamma_slope_bound(cert: StorageCertificate, sys: AffineSystem) -> float:
    """Slope L of a linear majorant of S(x, x') - S(x, x'') on the state box.

    L = 2 lam_max(M_bar) ||P|| Delta, where Delta bounds ||x - P x''|| over the
    box (interval arithmetic).  With a = x - P x' and b = x - P x'', symmetric
    M_bar gives a^T M_bar a - b^T M_bar b = (a - b)^T M_bar (a + b) with
    a - b = P (x'' - x'), so the difference is at most
    lam_max ||P|| ||x' - x''|| (||a|| + ||b||) <= L ||x' - x''|| for every x,
    x', x'' in the box.
    """
    box = sys.state_box
    if not box.is_bounded():
        raise UnboundedStateBox("state box must be compact for a linear majorant")
    img = box.linear_image(cert.P)
    lo = box.lower - img.upper
    hi = box.upper - img.lower
    delta = float(np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi))))
    return 2.0 * _max_eig(cert.M_bar) * float(np.linalg.norm(cert.P, 2)) * delta


@dataclass(frozen=True)
class VerifyReport:
    """Check results and comparison constants of one certificate that passed."""

    lyapunov: PsdCheck
    geometric: GeometricCheck
    dissipativity: DissipativityCheck
    gamma_slope: float  # L of gamma(s) = L s, from `gamma_slope_bound`
    constants: SstfConstants

    def to_dict(self) -> dict:
        """The margins, residuals, slope and constants of a certificates.json row."""
        return {"lyapunov_margin": self.lyapunov.margin,
                "geometric_residuals": [self.geometric.residual_q, self.geometric.residual_h],
                "dissipation_margin": self.dissipativity.margin,
                "gamma_slope": self.gamma_slope,
                "constants": self.constants.to_dict()}


def verify(cert: StorageCertificate, sys: AffineSystem, disc: DiscretizationSpec,
           w_hat_bound: float = 0.0, delta: float | None = None) -> VerifyReport:
    """Check a certificate against its subsystem and evaluate its constants.

    tau is `disc.tau`; `delta`, the noisy defect's quantization radius, is the
    cell radius of the state grid (`grid.state.delta`), required when noisy.
    Con_1, Con_2, Con_3 and Eq_8a (with the certificate's own invariants) are
    checked once each, in that order; a violated condition raises
    `CheckFailed` with its tag.

    alpha_coeff = lam_min(M_bar) / lam_max(C1^T C1) and
    kappa = kappa_bar + e^{-kappa_tilde tau} always.  With gamma(s) = L s, where
    L = `gamma_slope_bound(cert, sys)` is derived from M_bar, P and the state box:

      * noise-free abstract model with no internal feedthrough
        (R_tilde = 0, D_tilde = 0): rho_ext(s) = gamma(s), psi = psi0;
      * R_tilde = 0 only: the quantization and trace terms drop;
      * otherwise the full expression with the eta slack factors applies,

    where psi0 = e^{-kappa_tilde tau} tau (tr(G^T M G) + pi ||sqrt(M) b||^2).
    """
    if delta is None and not disc.noise_free:
        raise ValueError("a noisy discretization needs delta, the state grid's cell radius")
    tau = disc.tau
    lyap = check_lyapunov(sys, cert.M_bar, cert.K, cert.kappa_tilde)
    if not lyap.ok:
        raise CheckFailed(CONDITION_LYAPUNOV,
                          f"closed-loop decay margin {lyap.margin:.3e}")
    geom = check_geometric(sys, cert.P, cert.Q, cert.H)
    if not geom.ok_input_match:
        raise CheckFailed(CONDITION_INPUT_MATCH,
                          f"B Q = A P residual {geom.residual_q:.3e}")
    if not geom.ok_internal_match:
        raise CheckFailed(CONDITION_INTERNAL_MATCH,
                          f"D = B H residual {geom.residual_h:.3e}")
    diss = check_dissipativity_lmi(cert, sys, tau)
    if not diss.ok:
        raise CheckFailed(CONDITION_DISSIPATION,
                          f"dissipation margin {diss.margin:.3e}")

    e_term = math.exp(-cert.kappa_tilde * tau)  # the decay's residual over one sample
    kappa = cert.kappa_bar + e_term
    noise_quad = float(np.trace(sys.G.T @ cert.M_bar @ sys.G))
    offset_quad = float(sys.b @ cert.M_bar @ sys.b)
    psi0 = e_term * tau * (noise_quad + cert.pi * offset_quad)

    L = gamma_slope_bound(cert, sys)
    eb, ebp, ebpp = cert.eta_bar, cert.eta_bar_p, cert.eta_bar_pp
    if disc.noise_free and disc.internal_free:
        slope = L
        psi = psi0
    else:
        slope = L * (1.0 + 1.0 / eb) * (1.0 + ebp) * (1.0 + ebpp)
        d_norm = float(np.linalg.norm(disc.D_tilde, 2)) if disc.D_tilde.size else 0.0
        d_term = L * (1.0 + 1.0 / eb) * (1.0 + ebp) * (1.0 + 1.0 / ebpp) * d_norm * w_hat_bound
        if disc.noise_free:
            psi = psi0 + d_term
        else:
            quant_term = L * (1.0 + eb) * delta
            trace_term = (L * (1.0 + 1.0 / eb) * (1.0 + 1.0 / ebp)
                          * math.sqrt(float(np.trace(disc.R_tilde.T @ disc.R_tilde))))
            psi = psi0 + quant_term + trace_term + d_term

    c1_quad = sys.C1.T @ sys.C1
    alpha_coeff = _min_eig(cert.M_bar) / _max_eig(c1_quad)
    return VerifyReport(lyap, geom, diss, L, SstfConstants(
        alpha_coeff=alpha_coeff, kappa=kappa, rho_ext_slope=slope, psi=psi))


def derive_constants(cert: StorageCertificate, sys: AffineSystem, disc: DiscretizationSpec,
                     w_hat_bound: float = 0.0, delta: float | None = None) -> SstfConstants:
    """The constants of `verify`, whose checks run first (failures propagate)."""
    return verify(cert, sys, disc, w_hat_bound, delta).constants
