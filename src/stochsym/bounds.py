"""Probabilistic closeness bounds between network and abstraction outputs.

Given simulation-function constants, the chance that the output mismatch
ever exceeds eps over a finite horizon is bounded by one of two closed
forms, selected by whether alpha(eps) clears psi_hat / kappa:

  case-1 (alpha(eps) >= psi_hat/kappa):
      1 - (1 - v0/alpha(eps)) (1 - psi_hat/alpha(eps))^T
  case-2:
      (v0/alpha(eps)) (1-kappa)^T + (psi_hat/(kappa alpha(eps))) (1 - (1-kappa)^T)

with psi_hat >= rho_ext(sup-norm of the abstract input) + psi.  Both branch
values are evaluated (`ViolationResult.case1`, `.case2`), but `bound.json`
writes only the selected one and its regime; the two are distinct at the
regime boundary and no continuity is assumed.  Every input must be
nonnegative (alpha(eps) positive); a NaN input raises NegativeInput like a
negative one.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass

from .errors import InvalidKappa, NegativeInput

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ViolationResult:
    violation_bound: float
    success_bound: float
    regime: str  # "case-1" | "case-2"
    case1: float
    case2: float
    clamped: bool


@dataclass(frozen=True)
class ClosenessBound:
    epsilon: float
    horizon: int
    psi_hat: float
    v0: float
    regime: str
    violation_bound: float
    success_bound: float

    def to_dict(self) -> dict:
        return asdict(self)


def psi_hat(rho_ext_slope: float, nu_hat_sup: float, psi: float) -> float:
    """Minimal admissible defect: rho_ext_slope * nu_hat_sup + psi."""
    for name, v in (("rho_ext_slope", rho_ext_slope), ("nu_hat_sup", nu_hat_sup),
                    ("psi", psi)):
        if not v >= 0:
            raise NegativeInput(name, v)
    return rho_ext_slope * nu_hat_sup + psi


def violation_probability(
    alpha_of_eps: float,
    kappa: float,
    psi_hat: float,
    v0: float,
    horizon: int,
) -> ViolationResult:
    """Upper bound on the probability that the sup output error reaches eps.

    Both closed forms are computed; the regime test alpha(eps) >= psi_hat/kappa
    is strict (ties select case-1).  The selected value is clamped to [0, 1]
    and clamping events are logged.
    """
    if not 0.0 < kappa < 1.0:
        raise InvalidKappa(kappa)
    if not alpha_of_eps > 0:
        raise NegativeInput("alpha_of_eps", alpha_of_eps)
    for name, v in (("psi_hat", psi_hat), ("v0", v0), ("horizon", horizon)):
        if not v >= 0:
            raise NegativeInput(name, v)
    horizon = int(horizon)

    case1 = 1.0 - (1.0 - v0 / alpha_of_eps) * (1.0 - psi_hat / alpha_of_eps) ** horizon
    decay = (1.0 - kappa) ** horizon
    case2 = (v0 / alpha_of_eps) * decay + (psi_hat / (kappa * alpha_of_eps)) * (1.0 - decay)

    regime = "case-1" if alpha_of_eps >= psi_hat / kappa else "case-2"
    raw = case1 if regime == "case-1" else case2
    clamped = not 0.0 <= raw <= 1.0
    if clamped:
        logger.info("violation bound %.6g clamped to [0, 1]", raw)
    value = min(1.0, max(0.0, raw))
    return ViolationResult(violation_bound=value, success_bound=1.0 - value,
                           regime=regime, case1=case1, case2=case2, clamped=clamped)


def closeness_bound(
    epsilon: float,
    alpha_of_eps: float,
    kappa: float,
    psi_hat: float,
    v0: float,
    horizon: int,
) -> ClosenessBound:
    res = violation_probability(alpha_of_eps, kappa, psi_hat, v0, horizon)
    return ClosenessBound(epsilon=epsilon, horizon=int(horizon), psi_hat=psi_hat,
                          v0=v0, regime=res.regime,
                          violation_bound=res.violation_bound,
                          success_bound=res.success_bound)
