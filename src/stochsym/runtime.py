"""Controller refinement and Monte Carlo validation on the concrete network.

The abstract controller is refined through an affine interface: between
sampling instants the concrete input is

    nu(t) = K (xi(t) - P xih(k)) - Q xih(k) + (xi(k tau) - P xih(k))
            + H (w(k tau) - wh(k)) - H w(t)

with all step-k quantities latched at the sampling instant.  The coupled
SDE is advanced by exact Gaussian substeps while the abstraction runs in
lockstep, and the sampled output mismatch is recorded per trial.

Substituting the law into dx = (A x + B nu + D w + b) dt + G dW gives the
closed-loop drift F x + (D - B H) w(t) + c_k with F = A + B K, where

    c_k = B (-K P xih - Q xih + (xi(k tau) - P xih) + H (w(k tau) - wh)) + b

is latched once per interval.  Con_3 (D = B H) cancels the coupling term,
so inside an interval each subsystem is a linear SDE with constant input,
and each substep is its exact transition (Van Loan, 1978)
x <- e^{F dt} x + (int_0^dt e^{F s} ds) c_k + L z, where L L^T is the
covariance int_0^dt e^{F s} G G^T e^{F^T s} ds; the three maps of a step
come from one matrix exponential.  Sampled errors therefore
do not depend on the substep count, which sets only the resolution of the
output envelope.  That envelope covers a trial's path up to its first
sample whose error reaches epsilon; from then on the trial's violation is
settled and nothing reads its path between samples, so each of its later
intervals is one exact step over tau (the same formula with dt = tau),
whose law is that of the composed substeps.  A trial draws n_substeps x
n_total normals per interval while violation-free and n_total after, and
the violation-free trials' results are bitwise those of a run in which
nothing violates.  Con_3 is checked once per group by verify's own rule
and tolerance (`check_geometric`), and a network that fails it is rejected
before any draw; within that tolerance D is taken to be B H, so rounding
dust in D - B H is not simulated.  Each object is given once per group of
equal subsystems (`ic.group_of`), and a group's sampled model is its
abstraction's own; a group's operators, substep maps for the run's one
substep count included, are built once, and its members are quantized and
looked up together, one grid lookup per group and step.

Trials are independent; each draws its Gaussian increments from its own
stream, a `BIT_GENERATOR` (SFC64) seeded by that trial's child of the
master seed, so results are bitwise reproducible regardless of chunking or
worker count.  The trials are split into contiguous chunks whose sizes
differ by at most one: enough chunks to keep each within `_CHUNK_TRIALS`
trials and to give every worker one.  A chunk keeps its trials in order,
a mask marking the violated ones.  By
default there is one worker per CPU the process may use, at most two, and
the `STOCHSYM_THREADS` environment variable sets another count; the calling
thread runs chunks itself beside one helper thread per further worker
(numpy draws normals and does the array arithmetic with the GIL released).
A run that loses an abstract state reports the loss one chunk holding every
trial would meet first, whichever chunk met it.  The substeps
of an interval are streamed a block at a time (at most
`_SUBSTEP_BLOCK_ENTRIES` normals across the chunks in flight, but at least
one substep), each trial continuing its stream in order.  A block's
normals become its states in place: one noise map and one offset over the
whole block, then one update per substep, and the output envelope is
folded in once per block.  So the simulator's memory is
O(C x n_total) for C trials in flight, independent of the substep count.
The empirical violation frequency is reported with exact one-sided
Clopper-Pearson upper and lower confidence bounds for comparison against the
theoretical guarantee.  Each bound solves Clopper and Pearson's (1934)
defining equation, a binomial tail equal to 1 - confidence, by bisection
(closed forms at 0 and at every trial violating), so no scipy subpackage is
loaded for it: a pipeline run loads none, except the network LMI's
scipy.sparse.linalg when its bisection factors.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
# loaded with the package, not by the first simulation: its import (about
# 10 ms of extension modules) is start-up work, as numpy's own is
import numpy.random  # noqa: F401

from .abstraction import _EXPORT_ENTRIES, FiniteAbstraction, UniformGrid
from .certificates import CONDITION_INTERNAL_MATCH, StorageCertificate, check_geometric
from .csr import CSR
from .errors import (
    AbstractStateLost,
    CheckFailed,
    ConfigError,
    DimensionMismatch,
    StaleControllerTable,
    StaleLatch,
)
from .model import (
    AffineSystem,
    InterconnectionSpec,
    as_matrix,
    as_vector,
    block_diag,
    group_members,
    member_starts,
    spread,
)
from .synthesis import Controller

#: a chunk holds at most this many trials
_CHUNK_TRIALS = 128
#: substeps per block are capped so that the blocks of normals of the chunks
#: in flight hold at most this many entries together (C x block x n_total),
#: but a block is at least one substep
_SUBSTEP_BLOCK_ENTRIES = 1 << 18
#: the default worker count is the CPUs the process may use, but at most
#: this many: more workers have not been measured to pay (smaller chunks
#: make shorter GIL-free calls); STOCHSYM_THREADS sets more
_DEFAULT_WORKERS = 2
#: the bit generator of each trial's stream, seeded by that trial's child of
#: the master seed; `SimulationSummary.bit_generator` names it
BIT_GENERATOR = np.random.SFC64


@dataclass(eq=False)
class InterfaceState:
    """Per-subsystem refinement data for one sampling interval."""

    K: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    H: np.ndarray
    tau: float
    step: int
    xi_latch: np.ndarray   # xi(k tau)
    xi_hat: np.ndarray     # abstract representative at step k
    w_hat: np.ndarray      # abstract internal input at step k
    w_latch: np.ndarray    # w(k tau)

    def __post_init__(self):
        for name in ("K", "P", "Q", "H"):
            setattr(self, name, as_matrix(getattr(self, name)))
        for name in ("xi_latch", "xi_hat", "w_hat", "w_latch"):
            setattr(self, name, as_vector(getattr(self, name)))


def interface_terms(state: InterfaceState, xi_t, w_t) -> dict:
    """The five addends of the refinement law, for term-level inspection."""
    xi_t = as_vector(xi_t)
    w_t = as_vector(w_t)
    p_xh = state.P @ state.xi_hat
    return {
        "feedback": state.K @ (xi_t - p_xh),
        "drift_match": -(state.Q @ state.xi_hat),
        "offset": state.xi_latch - p_xh,
        "internal_latched": state.H @ (state.w_latch - state.w_hat),
        "internal_current": -(state.H @ w_t),
    }


def interface_input(state: InterfaceState, xi_t, w_t, t: float) -> np.ndarray:
    """Concrete input at time t inside the latched sampling interval.

    Raises StaleLatch when t does not fall in [k tau, (k+1) tau) for the
    latched step k, and requires a square gain structure (the offset term
    adds a state-space vector to the input).
    """
    k = int(math.floor(t / state.tau + 1e-9))
    if k != state.step:
        raise StaleLatch(state.step, k)
    if state.K.shape[0] != state.K.shape[1]:
        raise DimensionMismatch("K", "refinement needs external input dim == state dim")
    terms = interface_terms(state, xi_t, w_t)
    return (terms["feedback"] + terms["drift_match"] + terms["offset"]
            + terms["internal_latched"] + terms["internal_current"])


def _binomial_bracket(k: int, n: int, target: float) -> tuple[float, float]:
    """Adjacent floats lo < hi around the p with P(X <= k) = target, X ~ Binomial(n, p).

    For 0 <= k < n, where that cdf falls strictly from 1 to 0 as p runs over
    [0, 1]: bisection keeps cdf(lo) > target >= cdf(hi).  The cdf sums the
    tail with fewer terms, C(n, j) p^j (1 - p)^(n - j), each taken in log
    space (`math.lgamma`, `math.log1p`) and added by `math.fsum`.
    """
    js = range(k + 1) if k < n - k else range(k + 1, n + 1)
    log_choose = [math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1) for j in js]

    def cdf(p: float) -> float:
        log_p, log_q = math.log(p), math.log1p(-p)
        logs = [c + j * log_p + (n - j) * log_q for c, j in zip(log_choose, js)]
        top = max(logs)
        tail = math.exp(top) * math.fsum(math.exp(t - top) for t in logs)
        return tail if js[0] == 0 else 1.0 - tail

    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if cdf(mid) > target:
            lo = mid
        else:
            hi = mid
    return lo, hi


def clopper_pearson_lower(violations: int, trials: int, confidence: float = 0.95) -> float:
    """Exact one-sided lower confidence bound on a binomial proportion.

    The p with P(X >= v) = 1 - `confidence` for X ~ Binomial(n, p), the
    Beta(v, n - v + 1) quantile at 1 - `confidence`: 0 when v = 0,
    (1 - confidence)^(1/n) when v = n, else the lower end of
    `_binomial_bracket`, the conservative side.
    """
    if not 0 <= violations <= trials or trials < 1:
        raise DimensionMismatch("violations", "need 0 <= violations <= trials")
    if violations == 0:
        return 0.0
    if violations == trials:
        return math.exp(math.log1p(-confidence) / trials)
    return _binomial_bracket(violations - 1, trials, confidence)[0]


def clopper_pearson_upper(violations: int, trials: int, confidence: float = 0.95) -> float:
    """Exact one-sided upper confidence bound on a binomial proportion.

    The p with P(X <= v) = 1 - `confidence` for X ~ Binomial(n, p) (Clopper
    and Pearson, 1934), the Beta(v + 1, n - v) quantile at `confidence`:
    1 - (1 - confidence)^(1/n) when v = 0, 1 when v = n, else the upper end
    of `_binomial_bracket`, the conservative side.
    """
    if not 0 <= violations <= trials or trials < 1:
        raise DimensionMismatch("violations", "need 0 <= violations <= trials")
    if violations == trials:
        return 1.0
    if violations == 0:
        return -math.expm1(math.log1p(-confidence) / trials)
    return _binomial_bracket(violations, trials, 1.0 - confidence)[1]


@dataclass
class SimConfig:
    """Monte Carlo settings; one Brownian path per trial per master seed.

    A run estimates the event the closeness bound bounds, so `horizon` and
    `epsilon` are the bound's (`bound.horizon`, `bound.epsilon` in a config).
    The worker count defaults to the CPUs the process may use, at most
    `_DEFAULT_WORKERS` (2); the `STOCHSYM_THREADS` environment variable, a
    positive integer, sets it instead.  No worker count changes any result.
    """

    n_trials: int
    horizon: int
    epsilon: float
    n_substeps: int = 20
    rng_seed: int = 0
    record_outputs: bool = False

    def __post_init__(self):
        for name, path in (("n_trials", "simulation.n_trials"), ("horizon", "bound.horizon"),
                           ("n_substeps", "simulation.n_substeps")):
            if getattr(self, name) < 1:
                raise ConfigError(f"{path} must be >= 1 for the simulation")
        if self.rng_seed < 0:
            raise ConfigError("simulation.seed must be >= 0")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigError("bound.epsilon must be a finite number > 0")

    @staticmethod
    def workers() -> int:
        if env := os.environ.get("STOCHSYM_THREADS"):
            if not (env.isdecimal() and int(env) >= 1):
                raise ConfigError(f"STOCHSYM_THREADS must be a positive integer, got {env!r}")
            return int(env)
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
        return min(_DEFAULT_WORKERS, cpus)


@dataclass
class SimulationSummary:
    n_trials: int
    n_violations: int
    violation_frequency: float
    cp95_upper: float
    cp95_lower: float
    epsilon: float
    horizon: int
    n_substeps: int
    # (trial, interval) pairs stepped with substeps, of n_trials x horizon
    substep_intervals: int
    rng_seed: int
    bit_generator: str  # with rng_seed, names the trials' streams
    mean_sup_error: float
    max_sup_error: float
    output_min: float  # over each trial's path up to its first violating sample
    output_max: float
    violation_free_output_min: float | None  # None when every trial violates
    violation_free_output_max: float | None
    convergence: None = None  # always None; summary readers still look it up

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass(eq=False)
class SimulationResult:
    """Per-trial arrays of one Monte Carlo run; row t belongs to trial t."""

    summary: SimulationSummary
    step_errors: np.ndarray  # (n_trials, horizon + 1) sampled output mismatch
    # (n_trials,) smallest and largest external output, substeps included, up
    # to and including the trial's first violating sample
    output_min: np.ndarray
    output_max: np.ndarray
    outputs: np.ndarray | None = None           # (n_trials, horizon + 1, q1) if recorded
    abstract_outputs: np.ndarray | None = None  # same shape, abstract side


@dataclass(eq=False)
class _Op:
    """Batched block-diagonal map on the last axis.

    `diag` holds the diagonal when every block is square and diagonal, and
    the map is one multiply; otherwise `csr` is the block diagonal from
    `model.block_diag`, so no map holds an n_total x n_total array.
    `identity` is set when the diagonal is all ones.
    """

    diag: np.ndarray | None
    csr: CSR | None
    identity: bool = field(init=False)

    def __post_init__(self):
        self.identity = self.diag is not None and bool(np.all(self.diag == 1.0))

    @classmethod
    def stack(cls, mats: list, group_of: np.ndarray) -> "_Op":
        """blkdiag(mats[group_of[i]]) over subsystems i, from one matrix per group."""
        mats = [as_matrix(m) for m in mats]
        if mats and all(m.shape[0] == m.shape[1] and not np.any(m - np.diag(m.diagonal()))
                        for m in mats):
            return cls(diag=spread([m.diagonal() for m in mats], group_of), csr=None)
        return cls(diag=None, csr=block_diag(mats, np.ones(group_of.size), group_of))

    @property
    def out_dim(self) -> int:
        return self.diag.size if self.diag is not None else self.csr.shape[0]

    def __call__(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The map of x's last axis, written into `out`, which may be x itself."""
        if self.diag is not None:
            return np.multiply(x, self.diag, out=out)
        out[...] = self.csr.apply(x, axis=-1)
        return out

    def image(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The map of x for reading only: x itself when the map is the
        identity (x * 1.0 == x, so the result is the same), else `self(x, out)`."""
        return x if self.identity else self(x, out)


#: Pade [13/13] numerator coefficients b_0..b_13 and the 1-norm up to which
#: that approximant meets double precision without scaling, theta_13 (Higham,
#: "The scaling and squaring method for the matrix exponential revisited", 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """e^a by Pade [13/13] with scaling and squaring, the method behind SciPy's `expm`.

    a is scaled by 2^-s so that its 1-norm is at most theta_13, the
    approximant r = (V - U)^-1 (V + U) is formed from even powers of a, and
    r is squared s times.  For an upper triangular a, the diagonal and first
    superdiagonal of r are set to their exact values before the first and
    after each squaring (Al-Mohy and Higham, 2009, Code Fragment 2.1), so the
    entries `_exact_step` reads of a scalar room's 3 x 3 Van Loan block, all
    on those two diagonals, are exact to rounding.
    """
    norm = np.linalg.norm(a, 1)
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0 else 0
    a = a / 2.0**s
    b, eye = _PADE13, np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    upper = not np.any(np.tril(a, -1))
    i = np.arange(a.shape[0])
    for j in range(s + 1):
        if j:
            r = r @ r
        if upper:
            lam, sup = np.diag(a) * 2.0**j, np.diag(a, 1) * 2.0**j
            # (e^l1 - e^l2) / (l1 - l2) = e^max(l1, l2) (1 - e^-gap) / gap, gap = |l1 - l2|
            gap = np.abs(np.diff(lam))
            quotient = np.divide(-np.expm1(-gap), gap, out=np.ones_like(gap), where=gap > 0)
            r[i, i] = np.exp(lam)
            r[i[:-1], i[1:]] = sup * np.exp(np.maximum(lam[:-1], lam[1:])) * quotient
    return r


def _exact_step(f: np.ndarray, gg: np.ndarray, dt: float):
    """(phi, gain, L) of dx = (F x + c) dt + G dW over dt, with gg = G G^T.

    All three come from one Van Loan exponential
    E = `_expm([[-F, gg, 0], [0, F^T, I], [0, 0, 0]] dt)`: phi is the
    transpose of its middle diagonal block, gain the transpose of the block
    right of that, and L L^T is phi times its top middle block.  L comes from
    `eigh` with negative eigenvalues clipped to 0 (G may be rank-deficient).
    """
    n = f.shape[0]
    zero, eye = np.zeros((n, n)), np.eye(n)
    e = _expm(np.block([[-f, gg, zero], [zero, f.T, eye], [zero, zero, zero]]) * dt)
    phi, gain = e[n:2 * n, n:2 * n].T, e[n:2 * n, 2 * n:].T
    cov = phi @ e[:n, n:2 * n]
    lam, vec = np.linalg.eigh(0.5 * (cov + cov.T))
    return phi, gain, vec * np.sqrt(np.clip(lam, 0.0, None))


@dataclass(eq=False)
class _Group:
    """Subsystems sharing one abstraction and controller, looked up together."""

    rooms: int
    cols: slice | np.ndarray  # their state (= input) columns, subsystem-major
    grid: UniformGrid
    input_centers: np.ndarray
    table: np.ndarray  # (steps, n_points + 1); the sink column maps to -1

    def view(self, x: np.ndarray) -> np.ndarray:
        """(C, rooms, dim) view (or gather) of the member columns of x."""
        return x[:, self.cols].reshape(x.shape[0], self.rooms, self.grid.dim)

    def actions(self, idx: np.ndarray, step: int) -> np.ndarray:
        return self.table[step][idx]


class _Network:
    """Stacked operators, exact substep maps for `n_substeps` substeps per
    interval, and per-group lookup data for batched simulation; every list
    holds one entry per group of `ic`.  The maps of one whole interval are
    built by `interval` when a trial first needs them."""

    def __init__(self, systems, ic, abstractions, controllers, certs, horizon, n_substeps):
        if not (len(systems) == len(abstractions) == len(controllers) == len(certs)
                == len(ic.subsystem_dims)):
            raise DimensionMismatch("network", "per-group argument lists disagree")
        discs = [a.disc for a in abstractions]
        if len({d.tau for d in discs}) != 1:
            raise DimensionMismatch("tau", "all subsystems must share one sampling time")
        self.n_substeps = n_substeps
        group_of = ic.group_of
        members = group_members(group_of)
        start = member_starts([s.n for s in systems], group_of)
        self.n_total = int(start[-1])

        self.B = _Op.stack([s.B for s in systems], group_of)
        self.C1 = _Op.stack([s.C1 for s in systems], group_of)
        self.C2 = _Op.stack([s.C2 for s in systems], group_of)
        self.K = _Op.stack([c.K for c in certs], group_of)
        self.P = _Op.stack([c.P for c in certs], group_of)
        self.Q = _Op.stack([c.Q for c in certs], group_of)
        self.H = _Op.stack([c.H for c in certs], group_of)
        self.C1P = _Op.stack([s.C1 @ c.P for s, c in zip(systems, certs)], group_of)
        self.C2P = _Op.stack([s.C2 @ c.P for s, c in zip(systems, certs)], group_of)
        self.D_tilde = _Op.stack([d.D_tilde for d in discs], group_of)
        self.R_tilde = _Op.stack([d.R_tilde for d in discs], group_of)
        self.stochastic = any(not d.noise_free for d in discs)
        self.b = spread([s.b for s in systems], group_of)
        self.M = ic.M
        self.abs_noise_dim = int(member_starts([d.R_tilde.shape[1] for d in discs], group_of)[-1])

        self.groups = []
        for member, s, a, c, cert in zip(members, systems, abstractions, controllers, certs):
            if s.m != s.n:
                raise DimensionMismatch("B", f"subsystem {member[0]}: refinement needs m == n")
            geom = check_geometric(s, cert.P, cert.Q, cert.H)
            if not geom.ok_internal_match:
                raise CheckFailed(CONDITION_INTERNAL_MATCH, f"subsystem {member[0]}: "
                                  f"D = B H residual {geom.residual_h:.3e}")
            if a.grid.state.dim != s.n:
                raise DimensionMismatch("grid", f"subsystem {member[0]}: state grid dim mismatch")
            cols = (start[member][:, None] + np.arange(s.n)).ravel()
            if np.array_equal(cols, np.arange(cols[0], cols[0] + cols.size)):
                cols = slice(int(cols[0]), int(cols[0]) + cols.size)
            # a stationary (1-D) table serves every step; a time-varying one
            # must hold a row for each of them
            t = c.table if c.table.ndim == 2 else np.broadcast_to(c.table, (horizon, c.table.size))
            if t.shape[0] < horizon:
                raise StaleControllerTable(int(member[0]), t.shape[0], horizon)
            self.groups.append(_Group(
                rooms=member.size, cols=cols, grid=a.grid.state,
                input_centers=a.grid.input.centers(),
                table=np.hstack([t, -np.ones((t.shape[0], 1), dtype=np.int64)]),
            ))

        # the exact transition of each substep: phi = e^{F dt}, gain =
        # int_0^dt e^{F s} ds (applied to c_k) and noise = L (applied to n
        # standard normals per subsystem); Con_3 cancels the coupling
        self.tau = discs[0].tau
        self._group_of = group_of
        self._blocks = [(s.A + s.B @ c.K, s.G @ s.G.T) for s, c in zip(systems, certs)]
        self.phi, self.gain, self.noise = self._maps(self.tau / n_substeps)

    def _maps(self, dt: float) -> tuple:
        """The stacked (phi, gain, noise) of the exact transition over dt."""
        return tuple(_Op.stack(ops, self._group_of) for ops in zip(
            *(_exact_step(f, gg, dt) for f, gg in self._blocks)))

    @cached_property
    def interval(self) -> tuple:
        """(phi, gain, noise) over one whole interval tau, built on first use:
        a run in which no trial violates never needs them."""
        return self._maps(self.tau)

    def coupling(self, z2: np.ndarray, out: np.ndarray) -> np.ndarray:
        """w = M zeta2 for each row of z2, written into `out`: M is applied
        to the subsystem axis of the trial-major z2, with no transpose."""
        out[...] = self.M.apply(z2, axis=1)
        return out


class _Lost(Exception):
    """A chunk's first loss, as args (step, phase, trial).

    Within a step the grid check (phase 0) precedes the action lookup
    (phase 1), so the smallest args over all chunks is the loss that one
    chunk holding every trial would meet first.
    """


def _raise_if_lost(masks, first_trial: int, step: int, phase: int) -> None:
    """_Lost naming the lowest trial with a lost subsystem at `step`; row r
    of each mask belongs to trial first_trial + r."""
    lost = None
    for m in masks:
        if m.any():
            rows = m.any(axis=1)
            lost = rows if lost is None else lost | rows
    if lost is not None:
        raise _Lost(step, phase, first_trial + int(np.argmax(lost)))


def _quantize(net: _Network, points: np.ndarray, Xhat: np.ndarray, idx: list,
              first_trial: int, step: int) -> None:
    """Cell indices of `points` per group into `idx`, their centers into `Xhat`."""
    for g, group in enumerate(net.groups):
        idx[g] = group.grid.locate_many(group.view(points))
    _raise_if_lost([i == group.grid.n_points for i, group in zip(idx, net.groups)],
                   first_trial, step, 0)
    for g, group in enumerate(net.groups):
        Xhat[:, group.cols] = group.grid.centers()[idx[g]].reshape(len(Xhat), -1)


def _simulate_chunk(net: _Network, horizon: int, x0: np.ndarray, streams,
                    first_trial: int, record_outputs: bool, epsilon: float, block: int):
    """One chunk's arrays, row r belonging to trial first_trial + r, and how
    many (trial, interval) pairs it stepped with substeps."""
    C = len(streams)
    # per trial: its abstract normals first, then per interval n_substeps x
    # n_total concrete normals while it is violation-free, n_total after
    gens = [np.random.Generator(BIT_GENERATOR(s)) for s in streams]
    abs_noise = None
    if net.stochastic:
        abs_noise = np.stack([g.standard_normal((horizon, net.abs_noise_dim))
                              for g in gens])

    X = np.tile(x0, (C, 1))
    Xhat = np.empty_like(X)
    idx = [None] * len(net.groups)
    _quantize(net, X, Xhat, idx, first_trial, 0)

    errors = np.empty((C, horizon + 1))
    out_min = np.full(C, np.inf)
    out_max = np.full(C, -np.inf)
    out_rec = np.empty((C, horizon + 1, net.C1.out_dim)) if record_outputs else None
    out_hat_rec = np.empty_like(out_rec) if record_outputs else None
    # the rows whose trials have had a sample at or above epsilon
    violated = np.zeros(C, dtype=bool)
    # the buffers below are allocated once per chunk and written in place;
    # a step over n rows uses the buffers' first n rows.  The substeps of an
    # interval are streamed `block` at a time, each block's normals turning
    # into its states in place.  `nxt` is scratch throughout, and `offset`
    # is scratch outside the substep blocks
    normals = np.empty((C, block, net.n_total))
    # the outputs of a block's states; a square C1 writes over the states,
    # and an identity C1 is not applied: the states are the outputs.
    # Outside the blocks its first substep holds the sampled outputs
    outputs = (normals if net.C1.out_dim == net.n_total
               else np.empty((C, block, net.C1.out_dim)))
    z1 = outputs[:, 0]
    z1_hat = np.empty_like(z1)
    nxt = np.empty_like(X)
    offset = np.empty_like(X)
    z2 = np.empty((C, net.C2.out_dim))
    w_hat = np.empty((C, net.M.shape[0]))
    w = np.empty_like(w_hat)

    def extremes(z, rows):
        """Fold outputs z, (n, q1) or (n, substeps, q1), into the ranges of `rows`."""
        axes = tuple(range(1, z.ndim))
        out_min[rows] = np.minimum(out_min[rows], z.min(axis=axes))
        out_max[rows] = np.maximum(out_max[rows], z.max(axis=axes))

    def record(k):
        z = net.C1.image(X, out=z1)
        zh = net.C1P.image(Xhat, out=z1_hat)
        if record_outputs:
            out_rec[:, k] = z
            out_hat_rec[:, k] = zh
        errors[:, k] = np.linalg.norm(np.subtract(z, zh, out=z1_hat), axis=1)
        return z

    def streams_of(rows):
        """The generators of the chunk rows `rows`, a slice or an index array."""
        return gens[rows] if isinstance(rows, slice) else [gens[t] for t in rows]

    def interval_step(x, c_k, rows):
        """x <- phi x + gain c_k + L z over the whole interval for the chunk
        rows `rows`, each drawing n_total normals."""
        phi, gain, noise = net.interval
        z = normals[:len(x), 0]
        for g, out in zip(streams_of(rows), z):
            g.standard_normal(out=out)
        phi(x, out=x)
        x += gain(c_k, out=offset[:len(x)])
        x += noise(z, out=z)

    def substep_blocks(x, c_k, rows):
        """The interval's substeps of x, the states of the chunk rows `rows`,
        and their envelope."""
        n = len(x)
        net.gain(c_k, out=offset[:n])  # c_k may be `nxt`, which is scratch below
        for j0 in range(0, net.n_substeps, block):
            z = normals[:n, :min(block, net.n_substeps - j0)]
            # each trial continues its interval's normals in stream order
            for g, out in zip(streams_of(rows), z):
                g.standard_normal(out=out)
            # L z + gain c_k for the whole block; substep j then adds
            # phi x_{j-1} into slice j, which becomes x_j: addition
            # commutes, so each state is the sum phi x + (L z + gain c_k)
            # of one substep at a time, bit for bit
            net.noise(z, out=z)
            z += offset[:n, None, :]
            prev = x
            for j in range(z.shape[1]):
                s = z[:, j]
                s += net.phi(prev, out=nxt[:n])
                prev = s
            x[...] = prev
            extremes(net.C1.image(z, out=outputs[:n, :z.shape[1]]), rows)

    # every later sampled state of a violation-free trial ends a substep
    # block, folded in there; a trial's envelope ends with its first
    # violating sample
    extremes(record(0), slice(None))
    substep_intervals = 0
    for k in range(horizon):
        violated |= errors[:, k] >= epsilon
        net.coupling(net.C2P.image(Xhat, out=z2), out=w_hat)
        actions = [group.actions(i, k) for group, i in zip(net.groups, idx)]
        _raise_if_lost([a < 0 for a in actions], first_trial, k, 1)

        # nu(t) = K x(t) - H w(t) + nu_latched, where nu_latched is
        # X - P xhat - K P xhat - Q xhat + H (w(k tau) - w_hat), summed left
        # to right.  c_k = B nu_latched + b enters every substep of the
        # interval, so gain c_k is added to its noise.  Identity maps are
        # not applied (x * 1 is x)
        p_xhat = net.P.image(Xhat, out=nxt)
        nu_latched = np.subtract(X, p_xhat, out=offset)
        nu_latched -= net.K(p_xhat, out=nxt)  # P xhat is not read again
        nu_latched -= net.Q(Xhat, out=nxt)
        w_latch = net.coupling(net.C2.image(X, out=z2), out=w)
        w_latch -= w_hat
        nu_latched += net.H(w_latch, out=nxt)
        c_k = net.B(nu_latched, out=nxt)
        c_k += net.b

        # a violated trial takes one exact step over the interval, whose law
        # is that of its substeps composed, and the others take substeps.  A
        # step that moves every row works on X in place; otherwise it works
        # on a gather of its rows of X and c_k, scattered back once
        free = ~violated
        substep_intervals += int(np.count_nonzero(free))
        for step, mask in ((interval_step, violated), (substep_blocks, free)):
            if mask.all():
                step(X, c_k, slice(None))
            elif mask.any():
                rows = np.flatnonzero(mask)
                x = X[rows]
                step(x, c_k[rows], rows)
                X[rows] = x

        # target = Xhat + V + D_tilde w_hat (+ R_tilde noise), V the inputs
        # of the actions; V + Xhat is the same sum as Xhat + V
        target = nxt
        for group, a in zip(net.groups, actions):
            target[:, group.cols] = group.input_centers[a].reshape(C, -1)
        target += Xhat
        target += net.D_tilde(w_hat, out=offset)
        if net.stochastic:
            target += net.R_tilde(abs_noise[:, k], out=offset)
        _quantize(net, target, Xhat, idx, first_trial, k + 1)
        record(k + 1)

    return (errors, out_min, out_max, out_rec, out_hat_rec), substep_intervals


def _chunks(n_trials: int, workers: int) -> list:
    """Contiguous (start, stop) trial ranges whose sizes differ by at most 1.

    There are enough of them to keep each within `_CHUNK_TRIALS` trials and
    to give each of `workers` workers one; the larger ones come first.
    """
    n = max(-(-n_trials // _CHUNK_TRIALS), min(workers, n_trials))
    size, extra = divmod(n_trials, n)
    starts = [i * size + min(i, extra) for i in range(n + 1)]
    return list(zip(starts, starts[1:]))


def _run_batch(net, config: SimConfig, x0, streams):
    workers = config.workers()
    chunks = _chunks(config.n_trials, workers)
    workers = min(workers, len(chunks))
    # one block of normals per worker, sized by the largest chunk (the first)
    in_flight = workers * (chunks[0][1] - chunks[0][0])
    block = min(config.n_substeps,
                max(_SUBSTEP_BLOCK_ENTRIES // (in_flight * net.n_total), 1))
    results = [None] * len(chunks)

    def run(first: int) -> None:
        # worker `first` takes every `workers`-th chunk from chunk `first` on
        for pos in range(first, len(chunks), workers):
            start, stop = chunks[pos]
            try:
                results[pos] = _simulate_chunk(net, config.horizon, x0,
                                               streams[start:stop], start,
                                               config.record_outputs, config.epsilon,
                                               block)
            except _Lost as lost:
                results[pos] = lost

    # the calling thread is worker 0, beside workers - 1 helper threads
    with ThreadPoolExecutor(max_workers=max(1, workers - 1)) as pool:
        helpers = [pool.submit(run, w) for w in range(1, workers)]
        run(0)
        for helper in helpers:
            helper.result()

    lost = [r.args for r in results if isinstance(r, _Lost)]
    if lost:
        step, _, trial = min(lost)
        raise AbstractStateLost(trial, step)
    # each field's chunk rows, in trial order (out_rec is None unless recorded)
    arrays = tuple(None if parts[0] is None else np.concatenate(parts)
                   for parts in zip(*(r[0] for r in results)))
    return arrays, sum(r[1] for r in results)


def cosimulate(
    systems: list[AffineSystem],
    ic: InterconnectionSpec,
    abstractions: list[FiniteAbstraction],
    controllers: list[Controller],
    certs: list[StorageCertificate],
    config: SimConfig,
    x0,
) -> SimulationResult:
    """Closed-loop Monte Carlo of the concrete network against its abstraction.

    `systems`, `abstractions`, `controllers` and `certs` hold one entry per
    group of `ic`, whose `group_of` places the subsystems; each group's
    sampling time, D_tilde and R_tilde are those of its abstraction's `disc`,
    and its output maps C1 P and C2 P are formed from `systems` and `certs`.
    A stationary controller table serves every step, and a time-varying one
    must hold a row for each of the `config.horizon` steps
    (`StaleControllerTable`, a ConfigError, if it holds fewer).  Per
    trial: the abstract network starts at the quantized concrete initial
    state and both evolve in lockstep; the concrete internal input is
    recomputed continuously from current states through M, while the abstract
    one uses sampled abstract outputs.  The sampled output mismatch
    || zeta(k tau) - zeta_hat(k) || is recorded for k = 0 .. horizon and the
    violation flag marks trials whose supremum reaches config.epsilon.

    A group whose D = B H fails verify's tolerance raises CheckFailed
    (Con_3) before any draw; within it D is taken to be B H, and rounding
    dust in D - B H is not simulated.  Each substep is the exact Gaussian
    transition of the latched interval dynamics, so the sampled errors do
    not depend on `config.n_substeps`; the substep count sets only how
    finely the output envelope between samples is resolved.  A trial's
    envelope ends with its first violating sample, and each of its later
    intervals is one exact step over tau; `summary.substep_intervals` counts
    the (trial, interval) pairs stepped with substeps.
    """
    net = _Network(systems, ic, abstractions, controllers, certs, config.horizon,
                   config.n_substeps)
    x0 = as_vector(x0)
    if x0.size != net.n_total:
        raise DimensionMismatch("x0", f"expected {net.n_total} states")

    # trial streams are the children of the master seed's first child; the
    # second child is unused, and keeping the split keeps each seed's streams
    trial_ss = np.random.SeedSequence(config.rng_seed).spawn(2)[0]
    (errors, out_min, out_max, out_rec, out_hat_rec), substep_intervals = _run_batch(
        net, config, x0, trial_ss.spawn(config.n_trials))

    sup = errors.max(axis=1)
    violation = sup >= config.epsilon
    n_viol = int(violation.sum())
    freq = n_viol / config.n_trials
    vf = ~violation
    summary = SimulationSummary(
        n_trials=config.n_trials,
        n_violations=n_viol,
        violation_frequency=freq,
        cp95_upper=clopper_pearson_upper(n_viol, config.n_trials),
        cp95_lower=clopper_pearson_lower(n_viol, config.n_trials),
        epsilon=config.epsilon,
        horizon=config.horizon,
        n_substeps=config.n_substeps,
        substep_intervals=substep_intervals,
        rng_seed=config.rng_seed,
        bit_generator=BIT_GENERATOR.__name__,
        mean_sup_error=float(sup.mean()),
        max_sup_error=float(sup.max()),
        output_min=float(out_min.min()),
        output_max=float(out_max.max()),
        violation_free_output_min=float(out_min[vf].min()) if vf.any() else None,
        violation_free_output_max=float(out_max[vf].max()) if vf.any() else None,
    )

    return SimulationResult(summary=summary, step_errors=errors,
                            output_min=out_min, output_max=out_max,
                            outputs=out_rec, abstract_outputs=out_hat_rec)


def _reprs(a: np.ndarray) -> np.ndarray:
    """The shortest round-trip `repr` of each float of `a`, as an object
    array of a's shape; each distinct value (bit pattern) is formatted once."""
    keys, key_of = np.unique(np.ascontiguousarray(a, dtype=np.float64).view(np.int64),
                             return_inverse=True)
    texts = np.array([repr(v) for v in keys.view(np.float64).tolist()], dtype=object)
    return texts[key_of.reshape(a.shape)]


def write_trajectories_csv(result: SimulationResult, path) -> None:
    """Long-format per-step rows (trial, k, err, sup_err) plus outputs when recorded.

    Integers are written as `str` and floats as their `repr`, each row's
    fields joined by commas, as `csv.writer` writes them.  Rows are put
    together and written whole trials at a time, about `_EXPORT_ENTRIES`
    fields (the kernel export's block size) but at least one trial, so the
    texts held at once grow with neither the trial count nor, beyond one
    trial, the number of outputs.
    """
    errors = result.step_errors
    n_trials, steps = errors.shape
    running = np.maximum.accumulate(errors, axis=1)
    head = ["trial", "k", "err", "sup_err"]
    if result.outputs is not None:
        q1 = result.outputs.shape[2]
        head += [f"out_{i}" for i in range(q1)] + [f"out_hat_{i}" for i in range(q1)]
    trials = np.array([str(t) for t in range(n_trials)], dtype=object)
    ks = np.array([str(k) for k in range(steps)], dtype=object)
    chunk = max(1, _EXPORT_ENTRIES // (steps * len(head)))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(head) + "\n")
        for t0 in range(0, n_trials, chunk):
            rows = slice(t0, t0 + chunk)
            floats = [errors[rows, :, None], running[rows, :, None]]
            if result.outputs is not None:
                floats += [result.outputs[rows], result.abstract_outputs[rows]]
            floats = np.concatenate(floats, axis=2)
            fields = np.empty(floats.shape[:2] + (len(head),), dtype=object)
            fields[:, :, 0] = trials[rows, None]
            fields[:, :, 1] = ks
            fields[:, :, 2:] = _reprs(floats)
            fh.write("\n".join(map(",".join, fields.reshape(-1, len(head)).tolist())) + "\n")
