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
covariance int_0^dt e^{F s} G G^T e^{F^T s} ds.  Sampled errors therefore
do not depend on the substep count, which sets only the resolution of the
output envelope.  When the stacked residual D - B H is not exactly zero,
dt (D - B H) M C2 x is added per substep (a first-order splitting).  Rooms
that share one abstraction and controller are quantized and looked up
together, one grid lookup per group and step.

Trials are independent; each draws its Gaussian increments from its own
counter-based stream split off the master seed, so results are bitwise
reproducible regardless of chunking or worker count.  The substeps of an
interval are streamed a block at a time (at most `_SUBSTEP_BLOCK_ENTRIES`
normals per chunk), each trial continuing its stream in order, and the
output envelope is folded in per substep, so the simulator's memory is
O(C x n_total) for C trials per chunk, independent of the substep count.
The empirical violation frequency is reported with an exact one-sided
Clopper-Pearson upper confidence bound for comparison against the
theoretical guarantee; the bound is one Beta quantile, computed with
`scipy.special.betaincinv` so the package never imports `scipy.stats`.
"""
from __future__ import annotations

import csv
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.special

from .abstraction import FiniteAbstraction, UniformGrid
from .certificates import StorageCertificate
from .errors import (
    AbstractStateLost,
    ConfigError,
    DimensionMismatch,
    StaleControllerTable,
    StaleLatch,
)
from .model import AffineSystem, InterconnectionSpec, as_matrix, as_vector
from .synthesis import Controller

#: substeps per block are capped so that one block of normals holds at most
#: this many entries per chunk (C x block x n_total)
_SUBSTEP_BLOCK_ENTRIES = 1 << 16


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


def em_step(sys: AffineSystem, x, nu, w, dt: float, z) -> np.ndarray:
    """One Euler-Maruyama step: x + (A x + B nu + D w + b) dt + G sqrt(dt) z."""
    x = as_vector(x)
    z = as_vector(z)
    drift = sys.A @ x + sys.B @ as_vector(nu) + sys.b
    if sys.p:
        drift = drift + sys.D @ as_vector(w)
    return x + dt * drift + math.sqrt(dt) * (sys.G @ z)


def clopper_pearson_upper(violations: int, trials: int, confidence: float = 0.95) -> float:
    """Exact one-sided upper confidence bound on a binomial proportion.

    The Beta(v + 1, n - v) quantile at `confidence`, taken from
    `scipy.special.betaincinv` (what `scipy.stats.beta.ppf` evaluates).
    """
    if not 0 <= violations <= trials or trials < 1:
        raise DimensionMismatch("violations", "need 0 <= violations <= trials")
    if violations == trials:
        return 1.0
    return float(scipy.special.betaincinv(violations + 1, trials - violations, confidence))


@dataclass
class SimConfig:
    """Monte Carlo settings; one Brownian path per trial per master seed."""

    n_trials: int
    horizon: int
    epsilon: float
    n_substeps: int = 20
    rng_seed: int = 0
    chunk_size: int = 128
    record_outputs: bool = False
    max_workers: int | None = None

    def __post_init__(self):
        for name in ("n_trials", "horizon", "n_substeps", "chunk_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"simulation.{name} must be >= 1")

    def workers(self) -> int:
        if self.max_workers is not None:
            return max(1, self.max_workers)
        env = os.environ.get("STOCHSYM_THREADS", "")
        return max(1, int(env)) if env.isdigit() and env else 1


@dataclass
class SimulationSummary:
    n_trials: int
    n_violations: int
    violation_frequency: float
    cp95_upper: float
    epsilon: float
    horizon: int
    n_substeps: int
    rng_seed: int
    mean_sup_error: float
    max_sup_error: float
    output_min: float
    output_max: float
    violation_free_output_min: float
    violation_free_output_max: float
    convergence: None = None  # always None; summary readers still look it up

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass(eq=False)
class SimulationResult:
    """Per-trial arrays of one Monte Carlo run; row t belongs to trial t."""

    summary: SimulationSummary
    step_errors: np.ndarray  # (n_trials, horizon + 1) sampled output mismatch
    output_min: np.ndarray   # (n_trials,) smallest external output, substeps included
    output_max: np.ndarray   # (n_trials,) largest external output, substeps included
    outputs: np.ndarray | None = None           # (n_trials, horizon + 1, q1) if recorded
    abstract_outputs: np.ndarray | None = None  # same shape, abstract side


@dataclass(eq=False)
class _Op:
    """Batched block-diagonal map on the last axis; diagonal fast path when possible."""

    dense_t: np.ndarray | None
    diag: np.ndarray | None

    @classmethod
    def stack(cls, mats: list) -> "_Op":
        mats = [as_matrix(m) for m in mats]
        if mats and all(m.shape[0] == m.shape[1] and (
                m.shape[0] == 1 or not np.any(m - np.diag(m.diagonal())))
                for m in mats):
            return cls(dense_t=None, diag=np.concatenate([m.diagonal() for m in mats]))
        full = scipy.linalg.block_diag(*mats) if mats else np.zeros((0, 0))
        if full.ndim != 2:  # block_diag of empties degenerates
            full = np.zeros((0, 0))
        return cls(dense_t=full.T.copy(), diag=None)

    @property
    def out_dim(self) -> int:
        return self.diag.size if self.diag is not None else self.dense_t.shape[1]

    def __call__(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self.diag is not None:
            return np.multiply(x, self.diag, out=out)
        return np.matmul(x, self.dense_t, out=out)


def _exact_step(f: np.ndarray, gg: np.ndarray, dt: float):
    """(phi, gain, L) of dx = (F x + c) dt + G dW over dt, with gg = G G^T.

    phi and gain come from expm([[F, I], [0, 0]] dt); L L^T is phi times the
    upper right block of the Van Loan expm([[-F, gg], [0, F^T]] dt).  L comes
    from `eigh` with negative eigenvalues clipped to 0 (G may be rank-deficient).
    """
    n = f.shape[0]
    zero = np.zeros((n, n))
    top = scipy.linalg.expm(np.block([[f, np.eye(n)], [zero, zero]]) * dt)
    phi, gain = top[:n, :n], top[:n, n:]
    van_loan = scipy.linalg.expm(np.block([[-f, gg], [zero, f.T]]) * dt)
    cov = phi @ van_loan[:n, n:]
    lam, vec = np.linalg.eigh(0.5 * (cov + cov.T))
    return phi, gain, vec * np.sqrt(np.clip(lam, 0.0, None))


@dataclass(eq=False)
class _Substep:
    """Exact-transition substep operators for one substep count."""

    n: int
    phi: _Op                # e^{F dt}
    gain: _Op               # int_0^dt e^{F s} ds, applied to c_k
    noise: _Op              # L, applied to n standard normals per subsystem
    residual: _Op | None    # dt (D - B H); None when Con_3 cancels the coupling


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
        return self.table[step if self.table.shape[0] > 1 else 0][idx]


class _Network:
    """Stacked operators and per-group lookup data for batched simulation."""

    def __init__(self, systems, ic, discs, abstractions, controllers, certs, horizon):
        if not (len(systems) == len(discs) == len(abstractions)
                == len(controllers) == len(certs) == ic.n_subsystems):
            raise DimensionMismatch("network", "per-subsystem argument lists disagree")
        taus = {d.tau for d in discs}
        if len(taus) != 1:
            raise DimensionMismatch("tau", "all subsystems must share one sampling time")
        self.tau = discs[0].tau

        state_slices = []
        off = 0
        for s in systems:
            state_slices.append(slice(off, off + s.n))
            off += s.n
        self.n_total = off

        self.B = _Op.stack([s.B for s in systems])
        self.C1 = _Op.stack([s.C1 for s in systems])
        self.C2 = _Op.stack([s.C2 for s in systems])
        self.K = _Op.stack([c.K for c in certs])
        self.P = _Op.stack([c.P for c in certs])
        self.Q = _Op.stack([c.Q for c in certs])
        self.H = _Op.stack([c.H for c in certs])
        self.C1P = _Op.stack([s.C1 @ c.P for s, c in zip(systems, certs)])
        self.C2P = _Op.stack([s.C2 @ c.P for s, c in zip(systems, certs)])
        self.D_tilde = _Op.stack([d.D_tilde for d in discs])
        self.R_tilde = _Op.stack([d.R_tilde for d in discs])
        self.stochastic = any(not d.noise_free for d in discs)
        self.b = np.concatenate([s.b for s in systems])
        self.M = ic.M
        self.abs_noise_dim = sum(d.R_tilde.shape[1] for d in discs)
        self._closed_loop = [s.A + s.B @ c.K for s, c in zip(systems, certs)]
        self._diffusion = [s.G @ s.G.T for s in systems]
        residual = [s.D - s.B @ c.H for s, c in zip(systems, certs)]
        self._residual = residual if any(np.any(r) for r in residual) else None

        for i, (s, a) in enumerate(zip(systems, abstractions)):
            if s.m != s.n:
                raise DimensionMismatch("B", f"subsystem {i}: refinement needs m == n")
            if a.grid.state.dim != s.n:
                raise DimensionMismatch("grid", f"subsystem {i}: state grid dim mismatch")
        members: dict = {}
        for i, (a, c) in enumerate(zip(abstractions, controllers)):
            members.setdefault((id(a), id(c)), []).append(i)
        self.groups = []
        for rooms in members.values():
            a, c = abstractions[rooms[0]], controllers[rooms[0]]
            cols = np.concatenate([np.arange(state_slices[i].start, state_slices[i].stop)
                                   for i in rooms])
            if np.array_equal(cols, np.arange(cols[0], cols[0] + cols.size)):
                cols = slice(int(cols[0]), int(cols[0]) + cols.size)
            t = c.table if c.table.ndim == 2 else c.table[None, :]
            if 1 < t.shape[0] < horizon:
                raise StaleControllerTable(rooms[0], t.shape[0], horizon)
            self.groups.append(_Group(
                rooms=len(rooms), cols=cols, grid=a.grid.state,
                input_centers=a.grid.input.centers(),
                table=np.hstack([t, -np.ones((t.shape[0], 1), dtype=np.int64)]),
            ))

    def coupling(self, z2: np.ndarray) -> np.ndarray:
        """w = M zeta2 for each row of z2."""
        return np.ascontiguousarray((self.M @ z2.T).T)

    def substep(self, n_substeps: int) -> _Substep:
        dt = self.tau / n_substeps
        residual = None
        if self._residual is not None:
            residual = _Op.stack([dt * r for r in self._residual])
        # keyed by value: a ring of identical rooms costs one pair of expm calls
        exact: dict = {}
        blocks = []
        for f, gg in zip(self._closed_loop, self._diffusion):
            key = (f.shape, f.tobytes(), gg.tobytes())
            if key not in exact:
                exact[key] = _exact_step(f, gg, dt)
            blocks.append(exact[key])
        phi, gain, noise = zip(*blocks)
        return _Substep(n=n_substeps, phi=_Op.stack(phi), gain=_Op.stack(gain),
                        noise=_Op.stack(noise), residual=residual)


def _raise_if_lost(masks, trial_offset: int, step: int) -> None:
    """AbstractStateLost naming the lowest trial with a lost subsystem at `step`."""
    lost = None
    for m in masks:
        if m.any():
            rows = m.any(axis=1)
            lost = rows if lost is None else lost | rows
    if lost is not None:
        raise AbstractStateLost(trial_offset + int(np.flatnonzero(lost)[0]), step)


def _quantize(net: _Network, points: np.ndarray, Xhat: np.ndarray, idx: list,
              trial_offset: int, step: int) -> None:
    """Cell indices of `points` per group into `idx`, their centers into `Xhat`."""
    for g, group in enumerate(net.groups):
        idx[g] = group.grid.locate_many(group.view(points))
    _raise_if_lost([i == group.grid.n_points for i, group in zip(idx, net.groups)],
                   trial_offset, step)
    for g, group in enumerate(net.groups):
        Xhat[:, group.cols] = group.grid.centers()[idx[g]].reshape(len(Xhat), -1)


def _simulate_chunk(net: _Network, sub: _Substep, horizon: int,
                    x0: np.ndarray, streams, trial_offset: int,
                    record_outputs: bool):
    C = len(streams)
    # per trial: its abstract normals first, then n_substeps x n_total
    # concrete normals per interval
    gens = [np.random.Generator(np.random.Philox(s)) for s in streams]
    abs_noise = None
    if net.stochastic:
        abs_noise = np.stack([g.standard_normal((horizon, net.abs_noise_dim))
                              for g in gens])

    X = np.tile(x0, (C, 1))
    Xhat = np.empty_like(X)
    V = np.empty_like(X)
    idx = [None] * len(net.groups)
    _quantize(net, X, Xhat, idx, trial_offset, 0)

    errors = np.empty((C, horizon + 1))
    out_min = np.full(C, np.inf)
    out_max = np.full(C, -np.inf)
    out_rec = np.empty((C, horizon + 1, net.C1.out_dim)) if record_outputs else None
    out_hat_rec = np.empty_like(out_rec) if record_outputs else None
    # the substeps of an interval are streamed `block` at a time; buffers are
    # O(C x n_total) whatever the substep count
    block = min(sub.n, max(1, _SUBSTEP_BLOCK_ENTRIES // (C * net.n_total)))
    normals = np.empty((C, block, net.n_total))
    drive = np.empty_like(X)
    nxt = np.empty_like(X)

    def extremes(z):
        np.minimum(out_min, z.min(axis=1), out=out_min)
        np.maximum(out_max, z.max(axis=1), out=out_max)

    def record(k):
        z = net.C1(X)
        zh = net.C1P(Xhat)
        errors[:, k] = np.linalg.norm(z - zh, axis=1)
        extremes(z)
        if record_outputs:
            out_rec[:, k] = z
            out_hat_rec[:, k] = zh

    record(0)
    for k in range(horizon):
        w_hat = net.coupling(net.C2P(Xhat))
        actions = [group.actions(i, k) for group, i in zip(net.groups, idx)]
        _raise_if_lost([a < 0 for a in actions], trial_offset, k)
        for group, a in zip(net.groups, actions):
            V[:, group.cols] = group.input_centers[a].reshape(C, -1)

        # nu(t) = K x(t) - H w(t) + nu_latched; c_k = B nu_latched + b enters
        # every substep of the interval, so gain c_k is added to its noise
        p_xhat = net.P(Xhat)
        w_latch = net.coupling(net.C2(X))
        nu_latched = (X - p_xhat - net.K(p_xhat) - net.Q(Xhat)
                      + net.H(w_latch - w_hat))
        offset = sub.gain(net.B(nu_latched) + net.b)
        # the substeps alternate between two state buffers, so no operator
        # writes onto its own input
        for j0 in range(0, sub.n, block):
            z = normals[:, :min(block, sub.n - j0)]
            # each trial continues its interval's normals in stream order
            for c, gen in enumerate(gens):
                gen.standard_normal(out=z[c])
            for j in range(z.shape[1]):
                sub.noise(z[:, j], out=drive)
                drive += offset
                sub.phi(X, out=nxt)
                nxt += drive
                if sub.residual is not None:
                    nxt += sub.residual(net.coupling(net.C2(X)))
                X, nxt = nxt, X
                extremes(net.C1(X))

        target = Xhat + V + net.D_tilde(w_hat)
        if net.stochastic:
            target += net.R_tilde(abs_noise[:, k])
        _quantize(net, target, Xhat, idx, trial_offset, k + 1)
        record(k + 1)

    return errors, out_min, out_max, out_rec, out_hat_rec


def _run_batch(net, config: SimConfig, x0, streams):
    chunks = []
    for start in range(0, config.n_trials, config.chunk_size):
        stop = min(start + config.chunk_size, config.n_trials)
        chunks.append((start, streams[start:stop]))
    results = [None] * len(chunks)
    sub = net.substep(config.n_substeps)

    def work(pos):
        start, chunk = chunks[pos]
        return _simulate_chunk(net, sub, config.horizon, x0, chunk,
                               start, config.record_outputs)

    workers = config.workers()
    if workers > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for pos, res in enumerate(pool.map(work, range(len(chunks)))):
                results[pos] = res
    else:
        for pos in range(len(chunks)):
            results[pos] = work(pos)

    errors = np.concatenate([r[0] for r in results])
    out_min = np.concatenate([r[1] for r in results])
    out_max = np.concatenate([r[2] for r in results])
    out_rec = (np.concatenate([r[3] for r in results]) if config.record_outputs else None)
    out_hat_rec = (np.concatenate([r[4] for r in results]) if config.record_outputs
                   else None)
    return errors, out_min, out_max, out_rec, out_hat_rec


def cosimulate(
    systems: list[AffineSystem],
    ic: InterconnectionSpec,
    discs: list,
    abstractions: list[FiniteAbstraction],
    controllers: list[Controller],
    certs: list[StorageCertificate],
    config: SimConfig,
    x0,
) -> SimulationResult:
    """Closed-loop Monte Carlo of the concrete network against its abstraction.

    Per trial: the abstract network starts at the quantized concrete initial
    state and both evolve in lockstep; the concrete internal input is
    recomputed continuously from current states through M, while the abstract
    one uses sampled abstract outputs.  The sampled output mismatch
    || zeta(k tau) - zeta_hat(k) || is recorded for k = 0 .. horizon and the
    violation flag marks trials whose supremum reaches config.epsilon.

    Each substep is the exact Gaussian transition of the latched interval
    dynamics (plus the first-order residual term when D != B H), so the
    sampled errors do not depend on `config.n_substeps`; the substep count
    sets only how finely the output envelope between samples is resolved.
    """
    net = _Network(systems, ic, discs, abstractions, controllers, certs,
                   config.horizon)
    x0 = as_vector(x0)
    if x0.size != net.n_total:
        raise DimensionMismatch("x0", f"expected {net.n_total} states")

    # trial streams are the children of the master seed's first child; the
    # second child is unused, and keeping the split keeps each seed's streams
    trial_ss = np.random.SeedSequence(config.rng_seed).spawn(2)[0]
    errors, out_min, out_max, out_rec, out_hat_rec = _run_batch(
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
        epsilon=config.epsilon,
        horizon=config.horizon,
        n_substeps=config.n_substeps,
        rng_seed=config.rng_seed,
        mean_sup_error=float(sup.mean()),
        max_sup_error=float(sup.max()),
        output_min=float(out_min.min()),
        output_max=float(out_max.max()),
        violation_free_output_min=float(out_min[vf].min()) if vf.any() else math.nan,
        violation_free_output_max=float(out_max[vf].max()) if vf.any() else math.nan,
    )

    return SimulationResult(summary=summary, step_errors=errors,
                            output_min=out_min, output_max=out_max,
                            outputs=out_rec, abstract_outputs=out_hat_rec)


def write_trajectories_csv(result: SimulationResult, path) -> None:
    """Long-format per-step rows (trial, k, err, sup_err) plus outputs when recorded."""
    errors = result.step_errors
    running = np.maximum.accumulate(errors, axis=1)
    steps = range(errors.shape[1])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        head = ["trial", "k", "err", "sup_err"]
        if result.outputs is not None:
            q1 = result.outputs.shape[2]
            head += [f"out_{i}" for i in range(q1)] + [f"out_hat_{i}" for i in range(q1)]
        writer.writerow(head)
        for t in range(errors.shape[0]):
            rows = zip(itertools.repeat(t), steps, errors[t].tolist(), running[t].tolist())
            if result.outputs is not None:
                rows = ([*row, *out, *out_hat] for row, out, out_hat in zip(
                    rows, result.outputs[t].tolist(), result.abstract_outputs[t].tolist()))
            writer.writerows(rows)
