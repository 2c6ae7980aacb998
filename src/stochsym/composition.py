"""Network-level certificate assembly.

The per-subsystem supply-rate blocks, weighted by mu, make up one symmetric
matrix X_cmp; the single inequality

    [M; I]^T X_cmp [M; I]  <=  0

then certifies that the weighted sum of subsystem storage functions is a
simulation function for the coupled network, and the subsystem constants
aggregate in closed form.  X_cmp is held only as its four super-blocks,
sparse block-diagonals (`SupplyBlocks`, from `supply_blocks`); one sparse
assembly, `network_form`, turns them into the q x q form
M^T X11 M + M^T X12 + X21 M + X22, and both network checks take that form.
`gershgorin_fast_check` bounds its largest eigenvalue by Gershgorin's disc
theorem in O(nnz), a bound that holds for every coupling M and every block
structure.  `check_compositional_lmi` brackets that eigenvalue between a
Rayleigh quotient and the Gershgorin bound and narrows the bracket by
spectrum slicing (Sylvester's law of inertia; Parlett, "The Symmetric
Eigenvalue Problem", 1980): sparse factorizations of shifted forms, never a
dense eigensolve.  The dense X_cmp is built only on request (`build_x_cmp`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .certificates import SstfConstants, StorageCertificate, psd_tolerance
from .csr import CSR
from .errors import (
    DimensionMismatch,
    NonLinearRho,
    NonQuadraticAlpha,
)
from .model import (
    as_coupling,
    block_diag,
    group_index,
    positive_weights,
)

CONDITION_NETWORK_LMI = "Con_1a"
#: the network LMI could be neither proved nor refuted (see LmiCheck)
CONDITION_NETWORK_LMI_INCONCLUSIVE = "Con_1a-inconclusive"
CONDITION_ABSTRACT_WELL_POSED = "Con111"


#: the bisection stops once its bracket is this narrow, relative to the
#: larger of its ends' magnitudes and the form's largest entry
_BRACKET_RTOL = 2e-13


@dataclass(frozen=True)
class LmiCheck:
    """Verdict on [M; I]^T X_cmp [M; I] <= 0 from a bracket on its top eigenvalue.

    ok when the upper end is within `tol`; the LMI is violated when the
    lower end is above it.  Every factorization decides, so the verdict is
    inconclusive only when the bracket straddles `tol` once it stops
    narrowing, and an inconclusive check never passes.
    """

    ok: bool
    margin: float  # upper end of the bracket on the largest eigenvalue
    tol: float
    lower: float  # lower end of that bracket
    factorizations: int  # sparse factorizations the bisection made
    gershgorin: GershgorinCheck  # the check whose bound starts the bracket

    @property
    def violated(self) -> bool:
        return self.lower > self.tol


@dataclass(frozen=True)
class GershgorinCheck:
    ok: bool  # False means inconclusive, not violated
    bound: float  # largest Gershgorin disc edge of the network form
    tol: float  # the form's PSD tolerance, which the LMI verdict uses too


@dataclass(frozen=True, eq=False)
class SupplyBlocks:
    """The four super-blocks of X_cmp, each a sparse block-diagonal.

    x11 = blkdiag(mu_i Xbar11_i) is p x p and x22 = blkdiag(mu_i Xbar22_i)
    is q x q, with p = sum(p_i) internal inputs and q = sum(q2_i) internal
    outputs; x12 (p x q) and x21 (q x p) hold the coupling blocks.
    """

    x11: CSR
    x12: CSR
    x21: CSR
    x22: CSR

    @property
    def shape(self) -> tuple[int, int]:
        n = self.x11.shape[0] + self.x22.shape[0]
        return n, n

    def dense(self) -> np.ndarray:
        return np.block([[self.x11.toarray(), self.x12.toarray()],
                         [self.x21.toarray(), self.x22.toarray()]])


def supply_blocks(certs: list[StorageCertificate], mu, group_of=None) -> SupplyBlocks:
    """The weighted supply-rate blocks of X_cmp, without building X_cmp.

    Subsystem i, of certificate certs[group_of[i]], contributes mu_i Xbar11
    to x11, mu_i Xbar12 to x12 and so on, in subsystem order; build_x_cmp
    arranges the same blocks densely.
    """
    mu = positive_weights(mu)
    group_of = group_index(group_of, len(certs))
    if group_of.size != mu.size or len(certs) == 0:
        raise DimensionMismatch("mu", "one positive weight per subsystem")
    return SupplyBlocks(*(block_diag([getattr(c, name) for c in certs], mu, group_of)
                          for name in ("Xbar11", "Xbar12", "Xbar21", "Xbar22")))


def build_x_cmp(certs: list[StorageCertificate], mu, group_of=None) -> np.ndarray:
    """Arrange the weighted supply-rate blocks into the network matrix.

    The (1,1) super-block is blkdiag(mu_i Xbar11_i), the (1,2) super-block
    blkdiag(mu_i Xbar12_i), and symmetrically for the rest; total size is
    sum(p_i) + sum(q2_i).  The pipeline never builds it: it assembles the
    network form from `supply_blocks` directly.
    """
    return supply_blocks(certs, mu, group_of).dense()


def network_form(M, blocks: SupplyBlocks) -> CSR:
    """Symmetric part of [M; I]^T X_cmp [M; I], as a sparse q x q matrix.

    That is M^T x11 M + M^T x12 + x21 M + x22, formed as M^T (x11 M)
    + (x12^T + x21) M + x22 (the two coupling terms share one symmetric
    part) and symmetrized once.  X_cmp and [M; I] are never formed.
    """
    M = as_coupling(M)
    p, q = M.shape
    if blocks.x11.shape != (p, p) or blocks.x22.shape != (q, q):
        raise DimensionMismatch(
            "x_cmp", f"expected {(p + q,) * 2}, got {blocks.shape}")
    form = M.T @ (blocks.x11 @ M) + (blocks.x12.T + blocks.x21) @ M + blocks.x22
    return 0.5 * (form + form.T)


def _gershgorin_bound(form: CSR) -> float:
    """max_i (F_ii + sum_{j != i} |F_ij|), in O(nnz); -inf for an empty form."""
    n = form.shape[0]
    row = form.row_index()
    on = row == form.indices
    radius = np.bincount(row[~on], weights=np.abs(form.data[~on]), minlength=n)
    diagonal = np.zeros(n)
    diagonal[row[on]] = form.data[on]
    return float(np.max(diagonal + radius)) if n else -math.inf


def _below(form: CSR, sigma: float) -> bool:
    """Whether the largest eigenvalue of `form` is below `sigma`.

    sigma I - F is factored by Gaussian elimination in natural order.  With
    `diag_pivot_thresh=0` SuperLU keeps every nonzero diagonal pivot: it
    exchanges a row only at a zero diagonal pivot, and reports an exactly
    singular factor when the whole column is zero.  Either way a leading
    principal minor of sigma I - F is zero, so it is not positive definite
    and lam_max >= sigma.  Otherwise (`perm_r` equal to `perm_c`, the
    identity) the factorization is the symmetric L D L^T, and by Sylvester's
    law of inertia all pivots positive proves sigma I - F positive definite
    and any pivot <= 0 proves it is not.
    """
    # imported here: most forms never need it, and scipy.sparse costs
    # start-up time and memory that no other stage pays
    import scipy.sparse
    import scipy.sparse.linalg

    n = form.shape[0]
    form = scipy.sparse.csr_matrix((form.data, form.indices, form.indptr), shape=form.shape)
    shifted = (sigma * scipy.sparse.identity(n, format="csr") - form).tocsc()
    try:
        lu = scipy.sparse.linalg.splu(shifted, permc_spec="NATURAL",
                                      diag_pivot_thresh=0.0,
                                      options={"SymmetricMode": True})
    except RuntimeError:  # exactly singular
        return False
    return bool(np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0.0))


def check_compositional_lmi(form: CSR) -> LmiCheck:
    """Verify [M; I]^T X_cmp [M; I] <= 0 by bracketing its largest eigenvalue.

    `form` is `network_form(M, blocks)`, F.  The bracket starts at
    [1^T F 1 / n, Gershgorin bound]: a Rayleigh quotient cannot exceed the
    largest eigenvalue, and no eigenvalue exceeds the bound.  The bound and
    the tolerance come from `gershgorin_fast_check`, whose result the verdict
    carries.  Bisection on sigma narrows the bracket with one sparse
    factorization of sigma I - F per step (`_below`), each of which moves
    one end, until it is `_BRACKET_RTOL` wide.  On a ring of identical rooms
    the quotient meets the bound, so nothing is factored.  The margin is the
    upper end, so a conclusive Gershgorin check decides alone.
    """
    fast = gershgorin_fast_check(form)
    tol, hi = fast.tol, fast.bound
    n = form.shape[0]
    if not n:
        return LmiCheck(ok=True, margin=hi, tol=tol, lower=hi, factorizations=0,
                        gershgorin=fast)
    lo = min(float(form.data.sum()) / n, hi)
    # the largest |entry|; 0 for a form with no stored entry (an all-zero Xbar)
    floor = max(float(form.data.max(initial=0.0)), -float(form.data.min(initial=0.0)))
    factorizations = 0
    while hi - lo > _BRACKET_RTOL * max(abs(lo), abs(hi), floor):
        sigma = lo + 0.5 * (hi - lo)
        if not lo < sigma < hi:
            break
        factorizations += 1
        if _below(form, sigma):
            hi = sigma
        else:
            lo = sigma
    return LmiCheck(ok=hi <= tol, margin=hi, tol=tol, lower=lo,
                    factorizations=factorizations, gershgorin=fast)


def gershgorin_fast_check(form: CSR) -> GershgorinCheck:
    """Gershgorin bound on the largest eigenvalue of `network_form(M, blocks)`.

    In O(nnz).  Every eigenvalue of the symmetric form F lies in a disc
    centred on some F_ii of radius sum_{j != i} |F_ij|, so max_i (F_ii + sum_{j != i} |F_ij|)
    bounds the LMI margin for any M and any blocks.  The check is ok when
    that bound is within the tolerance the LMI verdict uses, so an ok check
    implies an ok LMI; False means inconclusive, not violated.
    """
    bound, tol = _gershgorin_bound(form), psd_tolerance(form.data)
    return GershgorinCheck(ok=bound <= tol, bound=bound, tol=tol)


def compose_ssf(
    constants: list[SstfConstants],
    mu,
    group_of=None,
) -> SstfConstants:
    """Aggregate verified per-subsystem constants into network constants.

    `constants` holds one entry per group of `group_of`.  kappa is the exact
    maximum of the subsystem kappas; psi the weighted sum; the external gain
    slope is the Euclidean norm of the weighted subsystem slopes (the linear
    maximum over a sphere in closed form).  alpha(s) = min_i(mu_i a_i) s^2
    for any output maps C1_i, square or not: each storage function satisfies
    S_i >= lam_min(M_bar_i) ||x_i - P_i xh_i||^2 >= a_i ||e_i||^2 with
    a_i = lam_min(M_bar_i) / lam_max(C1_i^T C1_i) and e_i = C1_i (x_i - P_i xh_i),
    so sum_i mu_i S_i >= min_i(mu_i a_i) ||e||^2 in the Euclidean norm of
    the stacked output error e.
    """
    mu = positive_weights(mu)
    group_of = group_index(group_of, len(constants))
    if not constants or mu.size != group_of.size:
        raise DimensionMismatch("mu", "one weight per subsystem")
    for c in constants:
        if not (np.isfinite(c.rho_ext_slope) and c.rho_ext_slope >= 0):
            raise NonLinearRho(f"subsystem gain slope {c.rho_ext_slope!r} is not a valid linear gain")
        if not (np.isfinite(c.alpha_coeff) and c.alpha_coeff > 0):
            raise NonQuadraticAlpha(f"subsystem alpha coefficient {c.alpha_coeff!r} is not quadratic-positive")

    def weighted(name: str) -> np.ndarray:  # mu_i times subsystem i's constant
        return mu * np.array([getattr(c, name) for c in constants], dtype=float)[group_of]

    kappa = max(c.kappa for c in constants)
    psi = math.fsum(weighted("psi").tolist())
    # squared by pow, as `x ** 2` squares a float (it can differ from x * x)
    slope = math.sqrt(math.fsum(map(pow, weighted("rho_ext_slope").tolist(), repeat(2))))

    return SstfConstants(alpha_coeff=float(np.min(weighted("alpha_coeff"))),
                         kappa=float(kappa), rho_ext_slope=float(slope),
                         psi=float(psi))
