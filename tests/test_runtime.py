import dataclasses
import itertools
import json
import math
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import stochsym as st
from stochsym.errors import AbstractStateLost, CheckFailed, StaleControllerTable, StaleLatch
from stochsym.runtime import (
    BIT_GENERATOR,
    InterfaceState,
    clopper_pearson_upper,
    interface_input,
    interface_terms,
    write_trajectories_csv,
)

from conftest import ROOM, room_certificate, room_system, traced_peak


def chunk_trials(monkeypatch, trials, n_total):
    """Split the trials of an `n_total`-state network into chunks of at most
    `trials`, by setting the simulator's entry budget to trials x n_total."""
    from stochsym import runtime

    monkeypatch.setattr(runtime, "_CHUNK_ENTRIES", trials * n_total)


def room_state(**kw):
    defaults = dict(K=-140.0, P=1.0, Q=-0.21, H=0.1, tau=0.1, step=0,
                    xi_latch=[20.6], xi_hat=[20.55], w_hat=[41.1], w_latch=[41.1])
    defaults.update(kw)
    return InterfaceState(**defaults)


class TestInterface:
    def test_synchronized_point_reduces_to_feedforward(self):
        # xi = P xihat and w = w_latch = w_hat: only -Q xihat - H w_hat remains
        s = room_state(xi_latch=[20.55])
        nu = interface_input(s, [20.55], [41.1], 0.0)
        assert nu == pytest.approx([0.21 * 20.55 - 0.1 * 41.1])

    def test_zero_gains_pure_offset(self):
        s = room_state(K=0.0, Q=0.0, H=0.0)
        nu = interface_input(s, [20.9], [41.1], 0.05)
        assert nu == pytest.approx([20.6 - 20.55])

    def test_room_values_exact_formula(self):
        # K(xi - P xihat) - Q xihat + (xi_latch - P xihat)
        #   + H (w_latch - w_hat) - H w(t)
        # = -7 + 4.3155 + 0.05 + 0 - 4.11
        nu = interface_input(room_state(), [20.6], [41.1], 0.05)
        assert nu == pytest.approx([-6.7445], abs=1e-12)

    def test_termwise_scaling(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            xi_hat = rng.normal(size=2)
            base = InterfaceState(
                K=rng.normal(size=(2, 2)), P=rng.normal(size=(2, 2)),
                Q=rng.normal(size=(2, 2)), H=rng.normal(size=(2, 1)),
                tau=0.1, step=0, xi_latch=rng.normal(size=2), xi_hat=xi_hat,
                w_hat=rng.normal(size=1), w_latch=rng.normal(size=1))
            xi_t = rng.normal(size=2)
            w_t = rng.normal(size=1)
            t0 = interface_terms(base, xi_t, w_t)
            # double every mismatch while keeping xi_hat and w(t) fixed
            p_xh = base.P @ base.xi_hat
            xi2 = p_xh + 2 * (xi_t - p_xh)
            doubled = InterfaceState(
                K=base.K, P=base.P, Q=base.Q, H=base.H, tau=0.1, step=0,
                xi_latch=p_xh + 2 * (base.xi_latch - p_xh), xi_hat=xi_hat,
                w_hat=base.w_hat, w_latch=base.w_hat + 2 * (base.w_latch - base.w_hat))
            t1 = interface_terms(doubled, xi2, w_t)
            for key in ("feedback", "offset", "internal_latched"):
                assert t1[key] == pytest.approx(2 * t0[key], rel=1e-9, abs=1e-12)
            for key in ("drift_match", "internal_current"):
                assert t1[key] == pytest.approx(t0[key], rel=1e-12)

    def test_stale_latch_detected(self):
        with pytest.raises(StaleLatch):
            interface_input(room_state(step=0), [20.6], [41.1], 0.15)


def exact_scalar_step(sys_, cert, x, nu_latched, dt, z):
    """Exact transition of a scalar room under the refinement law over dt.

    With f = A + B K and c = B nu_latched + b the room follows
    dx = (f x + c) dt + g dW: Con_3 (D = B H) cancels the coupling.
    """
    f = float(sys_.A[0, 0] + sys_.B[0, 0] * cert.K[0, 0])
    c = float(sys_.B[0, 0] * nu_latched + sys_.b[0])
    g = float(sys_.G[0, 0])
    return (math.exp(f * dt) * x + math.expm1(f * dt) / f * c
            + g * math.sqrt(math.expm1(2 * f * dt) / (2 * f)) * z)


def ring_of_one_group(n):
    """Ring interconnection of n scalar rooms that all belong to group 0."""
    from stochsym.cli import circular_coupling
    return st.InterconnectionSpec(M=circular_coupling(n), mu=np.ones(n),
                                  subsystem_dims=[(1, 1, 1, 1)],
                                  group_of=np.zeros(n, dtype=int))


def small_network(n=3, g=0.0, bias=None, tracking_rate=200.0):
    """n-room ring of one group, with adjustable noise/offset for runtime tests.

    Returns (systems, ic, fas, ctrls, certs), one list entry per group.
    """
    base = room_system()
    sys_ = st.AffineSystem(
        A=base.A, B=base.B, C1=base.C1, C2=base.C2, D=base.D,
        G=g, b=base.b if bias is None else bias,
        state_box=base.state_box, input_box=base.input_box,
        internal_box=base.internal_box)
    disc = st.DiscretizationSpec(tau=0.1, D_tilde=0.0, R_tilde=0.0)
    k = (-tracking_rate + 0.105) / 0.5
    cert = room_certificate(k_gain=k)
    grid = st.AbstractionGrid(
        state=st.UniformGrid.cover(sys_.state_box, [0.005]),
        input=st.UniformGrid.cover(sys_.input_box, [1e-4]),
        internal=st.UniformGrid.cover(sys_.internal_box, [2.0]))
    fa = st.build_deterministic(sys_, disc, grid)
    ctrl = st.safety_fixpoint(fa, st.SafetySpec(safe_box=st.Box([20.0], [21.0])))
    return [sys_], ring_of_one_group(n), [fa], [ctrl], [cert]


class TestCosimulate:
    def test_noise_free_synced_start_stays_tight(self, monkeypatch):
        # G = 0, b = 0, start on a representative: quantization is the only
        # error source and stays below the one-step input kick + cell radius
        systems, ic, fas, ctrls, certs = small_network(g=0.0, bias=0.0)
        grid = fas[0].grid.state
        x0 = np.full(3, grid.center(grid.locate([20.5]))[0])
        chunk_trials(monkeypatch, 2, x0.size)
        cfg = st.SimConfig(n_trials=3, horizon=12, epsilon=0.05, n_substeps=20,
                           rng_seed=0)
        res = st.cosimulate(systems, ic, fas, ctrls, certs, cfg, x0)
        # one abstract input kick (<= 0.01) + cell radius + tracking residue
        bound = math.sqrt(3) * (0.01 + 0.0025 + 0.005)
        assert res.summary.max_sup_error <= bound
        assert res.summary.n_violations == 0

    def test_seeded_reproducibility_bitwise(self, monkeypatch):
        systems, ic, fas, ctrls, certs = small_network(g=0.3)
        x0 = np.full(3, 20.5025)
        chunk_trials(monkeypatch, 4, x0.size)
        cfg = st.SimConfig(n_trials=6, horizon=5, epsilon=0.5, n_substeps=10,
                           rng_seed=99)
        a = st.cosimulate(systems, ic, fas, ctrls, certs, cfg, x0)
        b = st.cosimulate(systems, ic, fas, ctrls, certs, cfg, x0)
        assert np.array_equal(a.step_errors, b.step_errors)
        assert a.summary.to_dict() == b.summary.to_dict()

    def test_chunking_does_not_change_statistics(self, monkeypatch):
        systems, ic, fas, ctrls, certs = small_network(g=0.3)
        x0 = np.full(3, 20.5025)
        cfg = st.SimConfig(n_trials=7, horizon=4, epsilon=0.5, n_substeps=8, rng_seed=5)
        runs = []
        for trials in (7, 2):
            chunk_trials(monkeypatch, trials, x0.size)
            runs.append(st.cosimulate(systems, ic, fas, ctrls, certs, cfg, x0))
        assert np.array_equal(runs[0].step_errors, runs[1].step_errors)

    def test_worker_count_does_not_change_statistics(self, monkeypatch):
        systems, ic, fas, ctrls, certs = small_network(g=0.3)
        x0 = np.full(3, 20.5025)
        chunk_trials(monkeypatch, 2, x0.size)
        cfg = st.SimConfig(n_trials=8, horizon=4, epsilon=0.5, n_substeps=8, rng_seed=5)
        runs = []
        for workers in ("1", "4"):
            monkeypatch.setenv("STOCHSYM_THREADS", workers)
            runs.append(st.cosimulate(systems, ic, fas, ctrls, certs, cfg, x0))
        assert np.array_equal(runs[0].step_errors, runs[1].step_errors)

    def test_interface_matches_scalar_reference_inside_run(self):
        # one noise-free step of the batched engine equals a hand-rolled
        # scalar exact-step integration driven by interface_input
        systems, ic, fas, ctrls, certs = small_network(g=0.0)
        grid = fas[0].grid.state
        x0 = np.array([20.387, 20.502, 20.731])
        cfg = st.SimConfig(n_trials=1, horizon=1, epsilon=9.9, n_substeps=4,
                           rng_seed=0, record_outputs=True)
        res = st.cosimulate(systems, ic, fas, ctrls, certs, cfg, x0)

        m = ic.M
        idx = [grid.locate([v]) for v in x0]
        xhat = np.array([grid.center(i)[0] for i in idx])
        what = m @ xhat
        actions = [ctrls[0].action(idx[i]) for i in range(3)]
        nu_hat = np.array([fas[0].grid.input.center(a)[0] for a in actions])
        x = x0.copy()
        w_latch = m @ x0
        dt = 0.1 / 4
        for _ in range(4):
            nu = np.empty(3)
            for i in range(3):
                s = InterfaceState(K=certs[0].K, P=certs[0].P, Q=certs[0].Q,
                                   H=certs[0].H, tau=0.1, step=0,
                                   xi_latch=[x0[i]], xi_hat=[xhat[i]],
                                   w_hat=[what[i]], w_latch=[w_latch[i]])
                # the latched part of the law: its value at xi = w = 0
                nu[i] = interface_input(s, [0.0], [0.0], 0.0)[0]
            for i in range(3):
                x[i] = exact_scalar_step(systems[0], certs[0], x[i], nu[i], dt, 0.0)
        xhat_next = np.array([
            grid.center(grid.locate([xhat[i] + nu_hat[i]]))[0] for i in range(3)])
        expected_err = np.linalg.norm(x - xhat_next)
        assert res.step_errors[0, 1] == pytest.approx(expected_err, rel=1e-10)

    def test_noise_free_errors_do_not_depend_on_substeps(self):
        # the exact step composes: n steps of dt equal one step of n dt
        systems, ic, fas, ctrls, certs = small_network(g=0.0)
        x0 = np.array([20.387, 20.502, 20.731])
        runs = [st.cosimulate(systems, ic, fas, ctrls, certs, st.SimConfig(
                    n_trials=2, horizon=6, epsilon=9.9, n_substeps=n, rng_seed=3),
                    x0).step_errors
                for n in (1, 4, 40)]
        assert np.all(runs[0][:, 1:] > 0)
        for other in runs[1:]:
            np.testing.assert_allclose(other, runs[0], rtol=1e-12, atol=0)

    def test_one_interval_moments_match_closed_form(self, monkeypatch):
        # x(tau) of a noisy room started on a representative is Gaussian
        # with the closed-form mean and variance of the exact transition
        systems, ic, fas, ctrls, certs = small_network(g=0.3)
        grid = fas[0].grid.state
        x0 = np.full(3, grid.center(grid.locate([20.5]))[0])
        chunk_trials(monkeypatch, 4096, x0.size)
        cfg = st.SimConfig(n_trials=20_000, horizon=1, epsilon=9.9, n_substeps=4,
                           rng_seed=8, record_outputs=True)
        res = st.cosimulate(systems, ic, fas, ctrls, certs, cfg, x0)
        finals = res.outputs[:, 1, :].ravel()  # three independent rooms

        sys_, cert, tau = systems[0], certs[0], fas[0].disc.tau
        w0 = 2.0 * x0[0]  # ring: both neighbours, concrete and abstract alike
        s = InterfaceState(K=cert.K, P=cert.P, Q=cert.Q, H=cert.H, tau=tau,
                           step=0, xi_latch=x0[:1], xi_hat=x0[:1],
                           w_hat=[w0], w_latch=[w0])
        nu = interface_input(s, [0.0], [0.0], 0.0)[0]
        # one exact step over tau: z = 0 gives the mean, z = 1 adds one sd
        mean = exact_scalar_step(sys_, cert, x0[0], nu, tau, 0.0)
        var = (exact_scalar_step(sys_, cert, x0[0], nu, tau, 1.0) - mean) ** 2
        n = finals.size
        assert abs(finals.mean() - mean) <= 4 * math.sqrt(var / n)
        assert abs(finals.var(ddof=1) - var) <= 4 * var * math.sqrt(2 / (n - 1))


class TestExactOperators:
    @pytest.mark.parametrize("f, g", [
        ([[-1.3, 0.8], [-2.1, -0.4]], [[0.6], [-0.2]]),   # full-rank covariance
        ([[-1.0, 2.0], [0.0, -3.0]], [[0.7], [0.0]]),     # G along an eigenvector
        ([[-1.0, 2.0], [0.0, -3.0]], [[0.0], [0.0]]),     # no noise
    ])
    def test_non_diagonal_block_with_rank_one_noise(self, f, g):
        import scipy.linalg

        from stochsym import runtime

        f, g, dt = np.array(f), np.array(g), 0.37
        gg = g @ g.T
        phi, gain, chol = runtime._exact_step(f, gg, dt)
        e = scipy.linalg.expm(f * dt)
        assert np.max(np.abs(phi - e)) <= 1e-12
        assert np.max(np.abs(gain - np.linalg.solve(f, e - np.eye(2)))) <= 1e-12
        # the covariance solves F S + S F^T = e^{F dt} G G^T e^{F^T dt} - G G^T
        cov = chol @ chol.T
        assert np.max(np.abs(f @ cov + cov @ f.T - (e @ gg @ e.T - gg))) <= 1e-12
        if not gg.any():
            assert not chol.any()


    @settings(max_examples=60, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1), tau=hst.floats(0.01, 1.0),
           n=hst.integers(2, 40))
    def test_interval_map_composes_the_substep_maps(self, seed, tau, n):
        # a non-diagonal F and rank-one noise: one exact step over tau is n
        # exact steps of tau / n, map by map
        rng = np.random.default_rng(seed)
        f = rng.uniform(-3.0, 3.0, (2, 2))
        f[0, 1] = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0)
        g = rng.uniform(-1.0, 1.0, (2, 1))
        assert_interval_composes(f, g @ g.T, tau, n)

    @pytest.mark.parametrize("f, g", [
        ([[-1.3, 0.8], [-2.1, -0.4]], [[0.6], [-0.2]]),
        ([[-1.0, 2.0], [0.0, -3.0]], [[0.7], [0.0]]),
        ([[-1.0, 2.0], [0.0, -3.0]], [[0.0], [0.0]]),
    ], ids=["full-rank", "eigenvector", "no-noise"])
    def test_interval_map_composes_on_the_fixed_blocks(self, f, g):
        g = np.array(g)
        assert_interval_composes(np.array(f), g @ g.T, 0.37, 40)


def assert_interval_composes(f, gg, tau, n):
    """`_exact_step` over tau against the n-fold composition of its step over
    tau / n: phi^n, sum phi^i gain and sum phi^i L L^T phi^iT, to 1e-12
    relative (Frobenius)."""
    from stochsym import runtime

    phi, gain, chol = runtime._exact_step(f, gg, tau)
    p, g, l = runtime._exact_step(f, gg, tau / n)
    power, gains, cov = np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))
    for _ in range(n):
        gains += power @ g
        cov += power @ l @ l.T @ power.T
        power = power @ p
    for got, want in ((phi, power), (gain, gains), (chol @ chol.T, cov)):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _van_loan_block(f, gg, dt):
    """The matrix `_exact_step` exponentiates."""
    n = f.shape[0]
    zero = np.zeros((n, n))
    return np.block([[-f, gg, zero], [zero, f.T, np.eye(n)], [zero, zero, zero]]) * dt


def _room_block(tracking_rate):
    sys_ = room_system()
    cert = room_certificate(k_gain=(-tracking_rate + 0.105) / 0.5)
    # the demo's substep: tau over 40
    return _van_loan_block(sys_.A + sys_.B @ cert.K, sys_.G @ sys_.G.T, ROOM["tau"] / 40)


def _read_blocks(a):
    """(a, rows, cols) twice: the blocks of e^a that `_exact_step` reads phi
    and gain from (the middle block row, right of its first block), then
    the block it reads the covariance from (top middle)."""
    n = a.shape[0] // 3
    return [(a, slice(n, 2 * n), slice(n, None)), (a, slice(None, n), slice(n, 2 * n))]


_WHOLE = (slice(None), slice(None))


class TestExpm:
    """`runtime._expm` against `scipy.linalg.expm`, to 1e-13 relative
    (Frobenius); on `_exact_step`'s matrix each block it reads is compared
    on its own, since the covariance block can be far smaller than the rest."""

    @pytest.mark.parametrize("a, rows, cols", [
        *_read_blocks(_room_block(50.0)), *_read_blocks(_room_block(200.0)),
        *_read_blocks(_van_loan_block(np.array([[-1.3, 0.8], [-2.1, -0.4]]),
                                      np.array([[0.36, -0.12], [-0.12, 0.04]]), 0.37)),
        *_read_blocks(_van_loan_block(np.array([[-1.0, 2.0], [0.0, -3.0]]),
                                      np.array([[0.49, 0.0], [0.0, 0.0]]), 0.37)),
        *_read_blocks(_van_loan_block(np.array([[-1.0, 2.0], [0.0, -3.0]]),
                                      np.zeros((2, 2)), 0.37)),
        (np.zeros((3, 3)), *_WHOLE),
        (np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 3.0], [0.0, 0.0, 0.0]]), *_WHOLE),  # nilpotent
        # Moler and Van Loan's; 5 squarings
        (np.array([[-49.0, 24.0], [-64.0, 31.0]]), *_WHOLE),
    ], ids=["room-50-phi", "room-50-cov", "room-200-phi", "room-200-cov",
            "full-rank-phi", "full-rank-cov", "eigenvector-phi", "eigenvector-cov",
            "no-noise-phi", "no-noise-cov", "zero", "nilpotent", "squarings"])
    def test_matches_scipy(self, a, rows, cols):
        import scipy.linalg

        from stochsym import runtime

        got, want = runtime._expm(a)[rows, cols], scipy.linalg.expm(a)[rows, cols]
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_scalar_van_loan_block_is_exact_at_any_scaling(self):
        # phi = e^{f dt}, gain = (e^{f dt} - 1) / f and the covariance
        # g^2 (e^{2 f dt} - 1) / (2 f) for a 1 x 1 F, so n substeps of dt
        # compose to one step of n dt
        from stochsym import runtime

        f, gg = -199.895, 0.25
        for dt in (0.1, 0.025, 0.0025):
            e = runtime._expm(_van_loan_block(np.array([[f]]), np.array([[gg]]), dt))
            phi, gain, cov = e[1, 1], e[1, 2], e[1, 1] * e[0, 1]
            assert phi == pytest.approx(math.exp(f * dt), rel=3e-16, abs=0)
            assert gain == pytest.approx(math.expm1(f * dt) / f, rel=3e-16, abs=0)
            assert cov == pytest.approx(gg * math.expm1(2 * f * dt) / (2 * f), rel=5e-16, abs=0)


def stochastic_network(n=3, sigma=0.002):
    """Coarse-grid ring of one group whose abstraction is a sampled Markov kernel."""
    base = room_system()
    sys_ = st.AffineSystem(
        A=base.A, B=base.B, C1=base.C1, C2=base.C2, D=base.D, G=0.2, b=base.b,
        state_box=base.state_box, input_box=st.Box([-0.075], [0.075]),
        internal_box=base.internal_box)
    disc = st.DiscretizationSpec(tau=0.1, D_tilde=0.0, R_tilde=sigma)
    cert = room_certificate(k_gain=(-200.0 + 0.105) / 0.5)
    grid = st.AbstractionGrid(
        state=st.UniformGrid.cover(sys_.state_box, [0.05]),
        input=st.UniformGrid.cover(sys_.input_box, [0.05]),
        internal=st.UniformGrid.cover(sys_.internal_box, [2.0]))
    fa = st.build_stochastic(sys_, disc, grid)
    ctrl = st.safety_value_iteration(
        fa, st.SafetySpec(safe_box=st.Box([20.0], [21.0]), horizon=6))
    return [sys_], ring_of_one_group(n), [fa], [ctrl], [cert]


class TestStochasticClosedLoop:
    def test_end_to_end_with_sampled_abstraction(self, monkeypatch):
        systems, ic, fas, ctrls, certs = stochastic_network()
        grid = fas[0].grid.state
        x0 = np.full(3, grid.center(grid.locate([20.5]))[0])
        chunk_trials(monkeypatch, 8, x0.size)
        cfg = st.SimConfig(n_trials=20, horizon=6, epsilon=0.6, n_substeps=20, rng_seed=4)
        res = st.cosimulate(systems, ic, fas, ctrls, certs, cfg, x0)
        assert res.summary.n_trials == 20
        assert np.all(np.isfinite(res.step_errors))
        # the abstract state jitters by the sampled noise as well, so errors
        # are nonzero but stay near the per-step kick scale
        assert 0.0 < res.summary.max_sup_error < 0.6

    def test_sampled_abstract_path_is_seed_reproducible(self, monkeypatch):
        systems, ic, fas, ctrls, certs = stochastic_network()
        grid = fas[0].grid.state
        x0 = np.full(3, grid.center(grid.locate([20.5]))[0])
        cfg = st.SimConfig(n_trials=9, horizon=4, epsilon=0.6, n_substeps=10, rng_seed=21)
        runs = []
        for trials in (4, 3):
            chunk_trials(monkeypatch, trials, x0.size)
            runs.append(st.cosimulate(systems, ic, fas, ctrls, certs, cfg, x0))
        assert np.array_equal(runs[0].step_errors, runs[1].step_errors)


def test_calling_thread_runs_chunks_beside_its_helpers(monkeypatch):
    # more workers than cores and a short switch interval: every worker
    # count gives the arrays of one worker, and the caller runs chunks too
    from stochsym import runtime

    threads = []
    simulate_chunk = runtime._simulate_chunk

    def spy(*args):
        threads.append(threading.get_ident())
        return simulate_chunk(*args)

    monkeypatch.setattr(runtime, "_simulate_chunk", spy)
    systems, ic, fas, ctrls, certs = small_network(g=0.3)
    x0 = np.full(3, 20.5025)
    runs = {}
    chunk_trials(monkeypatch, 1, x0.size)
    cfg = st.SimConfig(n_trials=9, horizon=2, epsilon=0.5, n_substeps=4, rng_seed=5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3, 8):
            threads.clear()
            monkeypatch.setenv("STOCHSYM_THREADS", str(workers))
            runs[workers] = st.cosimulate(systems, ic, fas, ctrls, certs, cfg, x0)
            assert len(threads) == 9
            assert threading.get_ident() in threads
            assert len(set(threads)) <= workers
    finally:
        sys.setswitchinterval(interval)
    for res in runs.values():
        for field in ("step_errors", "output_min", "output_max"):
            assert np.array_equal(getattr(res, field), getattr(runs[1], field))


def test_chunks_are_balanced_and_bounded_by_chunk_size(monkeypatch):
    from stochsym.runtime import _chunks

    # 100 rooms: the default budget holds 163 trials
    assert _chunks(64, 2, 100) == [(0, 32), (32, 64)]
    assert _chunks(200, 2, 100) == [(0, 100), (100, 200)]
    assert _chunks(3, 8, 100) == [(0, 1), (1, 2), (2, 3)]
    chunk_trials(monkeypatch, 2, 3)
    assert _chunks(7, 3, 3) == [(0, 2), (2, 4), (4, 6), (6, 7)]
    for n, size, workers in itertools.product(range(1, 30), range(1, 9), range(1, 5)):
        chunk_trials(monkeypatch, size, 3)
        chunks = _chunks(n, workers, 3)
        lengths = [b - a for a, b in chunks]
        assert chunks[0][0] == 0 and chunks[-1][1] == n
        assert all(a == b for (_, a), (b, _) in zip(chunks, chunks[1:]))
        assert max(lengths) <= size and max(lengths) - min(lengths) <= 1
        assert len(chunks) >= min(workers, n)


@settings(max_examples=300, deadline=None)
@given(n_trials=hst.integers(1, 5000), workers=hst.integers(1, 16),
       n_total=hst.integers(1, 40_000))
def test_chunks_keep_within_the_entry_budget(n_trials, workers, n_total):
    from stochsym.runtime import _CHUNK_ENTRIES, _chunks

    def fits(trials):  # one trial alone may exceed the budget
        return trials == 1 or trials * n_total <= _CHUNK_ENTRIES

    chunks = _chunks(n_trials, workers, n_total)
    lengths = [b - a for a, b in chunks]
    assert chunks[0][0] == 0 and chunks[-1][1] == n_trials
    assert all(a == b for (_, a), (b, _) in zip(chunks, chunks[1:]))
    assert max(lengths) - min(lengths) <= 1
    assert len(chunks) >= min(workers, n_trials)
    assert fits(max(lengths))
    # and no more chunks than those two rules need
    fewer = len(chunks) - 1
    assert fewer < min(workers, n_trials) or not fits(-(-n_trials // fewer))


def wide_ring():
    """A 2000-room ring, where the entry budget holds 8 trials, and a start
    whose trials violate epsilon = 0.815 at steps 1 to 4 or never."""
    return small_network(n=2000, g=0.3), np.full(2000, 20.5025)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_entry_budget_does_not_change_a_wide_ring(monkeypatch, workers):
    # 20 trials in chunks of 7, 7 and 6 against one chunk per worker under a
    # budget raised past every trial: the same arrays, bit for bit
    from stochsym import runtime

    sizes = []
    simulate_chunk = runtime._simulate_chunk

    def spy(net, horizon, x0, streams, *args):
        sizes.append(len(streams))
        return simulate_chunk(net, horizon, x0, streams, *args)

    monkeypatch.setattr(runtime, "_simulate_chunk", spy)
    monkeypatch.setenv("STOCHSYM_THREADS", workers)
    net, x0 = wide_ring()
    cfg = st.SimConfig(n_trials=20, horizon=4, epsilon=0.815, n_substeps=6, rng_seed=7)
    runs = {}
    for budget in (runtime._CHUNK_ENTRIES, cfg.n_trials * x0.size):
        sizes.clear()
        monkeypatch.setattr(runtime, "_CHUNK_ENTRIES", budget)
        runs[budget] = st.cosimulate(*net, cfg, x0), sorted(sizes)
    (bounded, bounded_sizes), (whole, whole_sizes) = runs.values()
    assert bounded_sizes == [6, 7, 7]
    assert whole_sizes == [cfg.n_trials // int(workers)] * int(workers)
    assert 0 < bounded.summary.n_violations < cfg.n_trials
    for field in ("step_errors", "output_min", "output_max"):
        assert np.array_equal(getattr(bounded, field), getattr(whole, field)), field
    assert bounded.summary.to_dict() == whole.summary.to_dict()


def test_peak_memory_does_not_grow_with_trials(monkeypatch):
    # chunks of 8 trials of 2000 rooms, two of them at 16 trials and eight
    # at 64: the peak grows by less than one chunk's (8, 2000) state buffer,
    # where chunks of all the trials would hold four times the buffers.  One
    # worker: with two, how the threads' blocks overlap moves the peak by
    # a few hundred kB
    monkeypatch.setenv("STOCHSYM_THREADS", "1")
    net, x0 = wide_ring()
    peaks = {}
    for trials in (16, 64):
        cfg = st.SimConfig(n_trials=trials, horizon=4, epsilon=0.815, n_substeps=6,
                           rng_seed=7)
        _, peaks[trials] = traced_peak(st.cosimulate, *net, cfg, x0)
    assert peaks[64] - peaks[16] < 8 * x0.size * 8


def test_cosimulate_reads_no_kernel(monkeypatch):
    # the caller's abstractions keep their kernels, and views of their grids
    # and discs, which hold none, give the same run
    from stochsym import runtime

    systems, ic, fas, ctrls, certs = stochastic_network()
    kernels = [fa.kernel for fa in fas]
    x0 = np.full(3, 20.5025)
    cfg = st.SimConfig(n_trials=6, horizon=4, epsilon=0.6, n_substeps=5, rng_seed=3)
    res = st.cosimulate(systems, ic, fas, ctrls, certs, cfg, x0)
    assert all(fa.kernel is k for fa, k in zip(fas, kernels))
    views = [runtime.AbstractionView(fa.grid, fa.disc) for fa in fas]
    seen = st.cosimulate(systems, ic, views, ctrls, certs, cfg, x0)
    for field in ("step_errors", "output_min", "output_max"):
        assert np.array_equal(getattr(seen, field), getattr(res, field)), field


def test_thread_env_var_caps_workers(monkeypatch):
    cfg = st.SimConfig(n_trials=1, horizon=1, epsilon=1.0)
    monkeypatch.delenv("STOCHSYM_THREADS", raising=False)
    assert cfg.workers() == min(2, len(os.sched_getaffinity(0)))
    monkeypatch.setenv("STOCHSYM_THREADS", "6")
    assert cfg.workers() == 6


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan, math.inf])
def test_sim_config_rejects_a_non_positive_or_non_finite_epsilon(epsilon):
    # a negative radius counts every trial as violating while the bound,
    # even in eps, stays small; NaN counts none
    with pytest.raises(st.errors.ConfigError, match="bound.epsilon"):
        st.SimConfig(n_trials=1, horizon=1, epsilon=epsilon)


def test_clopper_pearson_closed_forms():
    # zero successes: 1 - alpha^(1/n); all failures: 1
    n = 500
    assert clopper_pearson_upper(0, n) == pytest.approx(1 - 0.05 ** (1 / n), rel=1e-12)
    assert clopper_pearson_upper(n, n) == 1.0
    # k of n: the bound p satisfies Binom(n, p){X <= k} = 0.05
    import scipy.stats
    k = 17
    p = clopper_pearson_upper(k, n)
    assert scipy.stats.binom.cdf(k, n, p) == pytest.approx(0.05, rel=1e-9)


def test_clopper_pearson_lower_closed_forms():
    # every trial violating: the lower bound is alpha^(1/n); none: 0
    assert st.clopper_pearson_lower(64, 64) == pytest.approx(0.05 ** (1 / 64), rel=1e-12)
    assert st.clopper_pearson_lower(0, 64) == 0.0
    import scipy.stats

    for v, n in [(v, n) for n in (1, 7, 64, 500) for v in range(1, n + 1, max(1, n // 9))]:
        lower = st.clopper_pearson_lower(v, n)
        assert lower == pytest.approx(scipy.stats.beta.ppf(1 - 0.95, v, n - v + 1),
                                      rel=1e-10), (v, n)
        # the defining equation: Binom(n, lower){X >= v} = 0.05
        assert scipy.stats.binom.sf(v - 1, n, lower) == pytest.approx(0.05, rel=1e-9), (v, n)
        assert lower <= v / n <= clopper_pearson_upper(v, n)
    with pytest.raises(st.errors.DimensionMismatch):
        st.clopper_pearson_lower(5, 4)


def test_clopper_pearson_matches_beta_quantile():
    # the bound is the Beta(v + 1, n - v) quantile that scipy.stats computes,
    # and it solves the defining equation Binom(n, upper){X <= v} = 0.05
    import scipy.stats

    pairs = [(v, n) for n in range(1, 121) for v in range(n)]
    pairs += [(v, n) for n in (1000, 10000) for v in range(51)]
    for v, n in pairs:
        upper = clopper_pearson_upper(v, n)
        assert upper == pytest.approx(scipy.stats.beta.ppf(0.95, v + 1, n - v),
                                      rel=1e-10), (v, n)
        assert scipy.stats.binom.cdf(v, n, upper) == pytest.approx(0.05, rel=1e-9), (v, n)


def test_trajectory_csv_layout(tmp_path):
    systems, ic, fas, ctrls, certs = small_network(g=0.1)
    x0 = np.full(3, 20.5025)
    cfg = st.SimConfig(n_trials=2, horizon=3, epsilon=0.5, n_substeps=5,
                       rng_seed=2, record_outputs=True)
    res = st.cosimulate(systems, ic, fas, ctrls, certs, cfg, x0)
    path = tmp_path / "traj.csv"
    write_trajectories_csv(res, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("trial,k,err,sup_err,out_0")
    assert len(lines) == 1 + 2 * 4


def scalar_reference(systems, ic, fas, ctrls, certs, cfg, x0):
    """Trial-by-trial replay of a network of scalar rooms through
    `interface_input` and `exact_scalar_step`, on the normals of each trial's
    stream: its abstract normals first, then each interval's substep normals.

    Returns (step_errors, lost_at): lost_at[t] is None, or the step at which
    trial t first loses an abstract state.
    """
    # each room's own objects, from its group's
    systems, fas, ctrls, certs = ([objects[g] for g in ic.group_of] for objects
                                  in (systems, fas, ctrls, certs))
    discs = [fa.disc for fa in fas]
    n = len(systems)
    dt = discs[0].tau / cfg.n_substeps
    m = ic.M
    stochastic = any(not d.noise_free for d in discs)
    streams = np.random.SeedSequence(cfg.rng_seed).spawn(2)[0].spawn(cfg.n_trials)
    grids = [fa.grid.state for fa in fas]
    errors = np.full((cfg.n_trials, cfg.horizon + 1), np.nan)
    lost_at = [None] * cfg.n_trials
    for t, ss in enumerate(streams):
        gen = np.random.Generator(BIT_GENERATOR(ss))
        s_abs = gen.standard_normal((cfg.horizon, n)) if stochastic else None
        x = np.array(x0, dtype=float)
        idx = [grids[i].locate(x[i:i + 1]) for i in range(n)]

        def quantized():
            return np.array([grids[i].center(idx[i])[0] for i in range(n)])

        def out_error(xhat):
            zeta = np.array([(systems[i].C1 @ x[i:i + 1])[0] for i in range(n)])
            zeta_hat = np.array([(fas[i].output_map @ xhat[i:i + 1])[0]
                                 for i in range(n)])
            return np.linalg.norm(zeta - zeta_hat)

        xhat = quantized()
        errors[t, 0] = out_error(xhat)
        for k in range(cfg.horizon):
            w_hat = m @ np.array([(systems[i].C2 @ certs[i].P @ xhat[i:i + 1])[0]
                                  for i in range(n)])
            actions = [ctrls[i].action(idx[i], k) for i in range(n)]
            if min(actions) < 0:
                lost_at[t] = k
                break
            nu_hat = [fas[i].grid.input.center(actions[i])[0] for i in range(n)]
            w_latch = m @ x
            states = [InterfaceState(K=certs[i].K, P=certs[i].P, Q=certs[i].Q,
                                     H=certs[i].H, tau=discs[i].tau, step=k,
                                     xi_latch=x[i:i + 1], xi_hat=xhat[i:i + 1],
                                     w_hat=w_hat[i:i + 1], w_latch=w_latch[i:i + 1])
                      for i in range(n)]
            z = gen.standard_normal((cfg.n_substeps, n))
            for j in range(cfg.n_substeps):
                time_ = k * discs[0].tau + j * dt
                # the latched part of the law: its value at xi = w = 0
                nu = [interface_input(states[i], [0.0], [0.0], time_)[0]
                      for i in range(n)]
                x = np.array([exact_scalar_step(systems[i], certs[i], x[i], nu[i], dt, z[j, i])
                              for i in range(n)])
            target = [xhat[i] + nu_hat[i] + discs[i].D_tilde[0, 0] * w_hat[i]
                      + (discs[i].R_tilde[0, 0] * s_abs[k, i] if stochastic else 0.0)
                      for i in range(n)]
            idx = [grids[i].locate([target[i]]) for i in range(n)]
            if any(idx[i] == grids[i].n_points for i in range(n)):
                lost_at[t] = k + 1
                break
            xhat = quantized()
            errors[t, k + 1] = out_error(xhat)
    return errors, lost_at


def mixed_network(g=0.3, tracking_rate=40.0):
    """3-room ring with H = D/B in two interleaved groups, rooms (0, 2) and
    (1,), each with its own abstraction and controller."""
    systems, ic, fas, _, certs = small_network(g=g, tracking_rate=tracking_rate)
    ic = st.InterconnectionSpec(M=ic.M, mu=ic.mu, subsystem_dims=[(1, 1, 1, 1)] * 2,
                                group_of=[0, 1, 0])
    cert = dataclasses.replace(certs[0], H=systems[0].D / systems[0].B)
    pairs = []
    for width in (0.005, 0.01):
        grid = st.AbstractionGrid(
            state=st.UniformGrid.cover(systems[0].state_box, [width]),
            input=st.UniformGrid.cover(systems[0].input_box, [1e-4]),
            internal=st.UniformGrid.cover(systems[0].internal_box, [2.0]))
        fa = st.build_deterministic(systems[0], fas[0].disc, grid)
        pairs.append((fa, st.safety_fixpoint(
            fa, st.SafetySpec(safe_box=st.Box([20.0], [21.0])))))
    fas, ctrls = (list(objects) for objects in zip(*pairs))
    return systems * 2, ic, fas, ctrls, [cert] * 2


def _force_dense(monkeypatch):
    """Make every stacked operator of the simulator take the path of a
    non-diagonal block: a product with its block-diagonal CSR."""
    from stochsym import runtime

    stack = runtime._Op.stack

    def dense_stack(mats, group_of):
        op = stack(mats, group_of)
        if op.diag is None:
            return op
        return runtime._Op(diag=None, csr=st.CSR.from_dense(np.diag(op.diag)))

    monkeypatch.setattr(runtime._Op, "stack", dense_stack)


class TestFusedSubstepOracle:
    def test_noisy_run_matches_scalar_interface_law(self, monkeypatch):
        net = mixed_network()
        x0 = np.array([20.4012, 20.5537, 20.6981])
        chunk_trials(monkeypatch, 2, x0.size)
        cfg = st.SimConfig(n_trials=5, horizon=4, epsilon=9.9, n_substeps=8, rng_seed=17)
        res = st.cosimulate(*net, cfg, x0)
        want, lost_at = scalar_reference(*net, cfg, x0)
        assert lost_at == [None] * 5
        assert np.all(want > 0)
        np.testing.assert_allclose(res.step_errors, want, rtol=1e-12, atol=0)

    def test_nonzero_d_tilde_enters_the_abstract_target(self):
        # D_tilde w_hat moves each abstract target: the run matches the
        # scalar replay, and differs from the run without the term
        systems, ic, fas, ctrls, certs = small_network(g=0.3, tracking_rate=40.0)
        disc = st.DiscretizationSpec(tau=0.1, D_tilde=1e-4, R_tilde=0.0)
        fa = st.build_deterministic(systems[0], disc, fas[0].grid)
        ctrl = st.safety_fixpoint(fa, st.SafetySpec(safe_box=st.Box([20.0], [21.0])))
        net = (systems, ic, [fa], [ctrl], certs)
        x0 = np.array([20.4012, 20.5537, 20.6981])
        cfg = st.SimConfig(n_trials=5, horizon=4, epsilon=9.9, n_substeps=8, rng_seed=17)
        res = st.cosimulate(*net, cfg, x0)
        want, lost_at = scalar_reference(*net, cfg, x0)
        assert lost_at == [None] * 5
        np.testing.assert_allclose(res.step_errors, want, rtol=1e-12, atol=0)
        plain = st.cosimulate(systems, ic, fas, ctrls, certs, cfg, x0)
        assert not np.array_equal(res.step_errors, plain.step_errors)

    def test_dense_operators_match_diagonal_fast_path(self, monkeypatch):
        # every operator of the rooms is diagonal; forcing the CSR product
        # path must give the same errors
        net = mixed_network()
        x0 = np.array([20.4012, 20.5537, 20.6981])
        chunk_trials(monkeypatch, 3, x0.size)
        cfg = st.SimConfig(n_trials=4, horizon=3, epsilon=9.9, n_substeps=8, rng_seed=2)
        fast = st.cosimulate(*net, cfg, x0)
        _force_dense(monkeypatch)
        dense = st.cosimulate(*net, cfg, x0)
        np.testing.assert_allclose(dense.step_errors, fast.step_errors,
                                   rtol=1e-12, atol=0)

    def test_lost_trial_and_step_are_reported(self, monkeypatch):
        net = stochastic_network(sigma=0.15)
        grid = net[2][0].grid.state
        x0 = np.full(3, grid.center(grid.locate([20.5]))[0])
        cfg = st.SimConfig(n_trials=8, horizon=6, epsilon=9.9, n_substeps=20, rng_seed=18)
        # the run reports what one chunk of all trials meets: the first step
        # where any trial is lost and the lowest trial lost there.  With this
        # seed a trial of lower index is lost only later, so the report is
        # not simply the first lost trial, and with chunks of 2 or 4 the
        # first chunk's own loss is that later one
        errors, lost_at = scalar_reference(*net, cfg, x0)
        step = min(k for k in lost_at if k is not None)
        trial = lost_at.index(step)
        assert (trial, step) == (5, 3)
        for size in (2, 4):
            first_chunk = lost_at[:size]
            assert trial >= size and any(k is not None and k > step for k in first_chunk)
        # the abstract path does not read the concrete one, so trials that
        # violate first (and take interval steps from then on) do not
        # change the report; at 0.3, trials 2 and 5 violate at step 1
        assert first_violations(errors[:, :2], 0.3) == [None, None, 1, None, None, 1, None, None]
        for epsilon, trials, workers in itertools.product((9.9, 0.3), (2, 4, 8), (1, 2)):
            chunk_trials(monkeypatch, trials, x0.size)
            monkeypatch.setenv("STOCHSYM_THREADS", str(workers))
            with pytest.raises(AbstractStateLost) as info:
                st.cosimulate(*net, dataclasses.replace(cfg, epsilon=epsilon), x0)
            assert (info.value.trial, info.value.step) == (trial, step)


class TestGroupIndex:
    def test_stacked_operators_match_per_room_reference(self):
        # one matrix per group laid out by an interleaved group_of equals the
        # same matrices listed per room, bit for bit, on both paths
        from stochsym import runtime

        group_of = np.array([1, 0, 2, 0, 1, 1])
        rng = np.random.default_rng(4)
        for mats in ([rng.standard_normal((1, 1)) for _ in range(3)],
                     [rng.standard_normal(shape) for shape in ((2, 2), (1, 3), (2, 1))]):
            grouped = runtime._Op.stack(mats, group_of)
            per_room = runtime._Op.stack([mats[g] for g in group_of], np.arange(6))
            assert (grouped.diag is None) == (per_room.diag is None)
            if grouped.diag is not None:
                assert np.array_equal(grouped.diag, per_room.diag)
            else:  # canonical CSRs (sorted, no zeros): equal arrays, equal entries
                assert np.array_equal(grouped.csr.toarray(), per_room.csr.toarray())
                assert grouped.csr.nnz == per_room.csr.nnz

    def test_grouped_network_simulates_like_its_rooms(self, monkeypatch):
        # the two interleaved groups of mixed_network against each room
        # given its own objects: the same arrays, bit for bit
        systems, ic, fas, ctrls, certs = mixed_network()
        rooms = st.InterconnectionSpec(M=ic.M, mu=ic.mu, subsystem_dims=[(1, 1, 1, 1)] * 3)
        per_room = [[objects[g] for g in ic.group_of]
                    for objects in (systems, fas, ctrls, certs)]
        x0 = np.array([20.4012, 20.5537, 20.6981])
        chunk_trials(monkeypatch, 2, x0.size)
        cfg = st.SimConfig(n_trials=5, horizon=4, epsilon=9.9, n_substeps=8,
                           rng_seed=17, record_outputs=True)
        grouped = st.cosimulate(systems, ic, fas, ctrls, certs, cfg, x0)
        alone = st.cosimulate(per_room[0], rooms, *per_room[1:], cfg, x0)
        for field in ("step_errors", "output_min", "output_max", "outputs",
                      "abstract_outputs"):
            assert np.array_equal(getattr(grouped, field), getattr(alone, field))


class TestSubstepStreaming:
    @pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
    @pytest.mark.parametrize("network", ["con3", "grouped"])
    def test_blocks_match_whole_interval(self, monkeypatch, dense, network):
        # 7 substeps in blocks of 1, of 3 (the last one partial) and in one
        # block: the same normals in the same order, hence the same arrays
        from stochsym import runtime

        blocks_run = []
        simulate_chunk = runtime._simulate_chunk

        def spy(*args):
            blocks_run.append(args[-1])
            return simulate_chunk(*args)

        monkeypatch.setattr(runtime, "_simulate_chunk", spy)

        if dense:
            _force_dense(monkeypatch)
        if network == "grouped":
            net = mixed_network()
            x0 = np.array([20.4012, 20.5537, 20.6981])
        else:
            net = small_network(n=12, g=0.3, tracking_rate=40.0)
            x0 = np.linspace(20.3, 20.7, 12)
        if dense:
            assert runtime._Network(*net, 4, 7).phi.diag is None
        trials, n_total = 4, x0.size
        cfg = st.SimConfig(n_trials=trials, horizon=4, epsilon=9.9, n_substeps=7,
                           rng_seed=23)
        runs = {}
        for block in (7, 1, 3):
            monkeypatch.setattr(runtime, "_SUBSTEP_BLOCK_ENTRIES",
                                block * trials * n_total)
            blocks_run.clear()
            runs[block] = st.cosimulate(*net, cfg, x0)
            assert blocks_run and set(blocks_run) == {block}
        whole = runs[7]
        assert np.all(whole.step_errors[:, 1:] > 0)
        for block in (1, 3):
            for field in ("step_errors", "output_min", "output_max"):
                assert np.array_equal(getattr(runs[block], field), getattr(whole, field))

    def test_non_square_output_map_envelope(self, monkeypatch):
        # C1 = [1; -1] per room reads (x, -x): the states are those of
        # C1 = 1, so the envelope is that run's, mirrored, and every sampled
        # error is sqrt(2) times that run's
        systems, *rest = small_network(n=3, g=0.3, tracking_rate=40.0)
        mirrored = dataclasses.replace(systems[0], C1=np.array([[1.0], [-1.0]]))
        x0 = np.array([20.387, 20.502, 20.731])
        chunk_trials(monkeypatch, 3, x0.size)
        cfg = st.SimConfig(n_trials=6, horizon=4, epsilon=9.9, n_substeps=11, rng_seed=8)
        plain = st.cosimulate(systems, *rest, cfg, x0)
        both = st.cosimulate([mirrored], *rest, cfg, x0)
        assert np.array_equal(both.output_min, np.minimum(plain.output_min, -plain.output_max))
        assert np.array_equal(both.output_max, np.maximum(plain.output_max, -plain.output_min))
        assert np.allclose(both.step_errors, math.sqrt(2) * plain.step_errors,
                           rtol=1e-12, atol=0.0)

    def test_square_output_map_scales_the_envelope(self, monkeypatch):
        # C1 = I is not applied (the states are the outputs) and C1 = 2 I is
        # multiplied in: the states are the same, and scaling by a power of
        # two is exact, so the envelope and every sampled error double exactly
        from stochsym import runtime

        systems, *rest = small_network(n=3, g=0.3, tracking_rate=40.0)
        doubled = dataclasses.replace(systems[0], C1=np.array([[2.0]]))
        assert runtime._Network(systems, *rest, 4, 11).C1.identity
        assert not runtime._Network([doubled], *rest, 4, 11).C1.identity
        x0 = np.array([20.387, 20.502, 20.731])
        chunk_trials(monkeypatch, 3, x0.size)
        cfg = st.SimConfig(n_trials=6, horizon=4, epsilon=9.9, n_substeps=11,
                           rng_seed=8, record_outputs=True)
        plain = st.cosimulate(systems, *rest, cfg, x0)
        twice = st.cosimulate([doubled], *rest, cfg, x0)
        for field in ("output_min", "output_max", "step_errors", "outputs",
                      "abstract_outputs"):
            assert np.array_equal(getattr(twice, field), 2.0 * getattr(plain, field)), field
        assert np.all(plain.step_errors[:, 1:] > 0)

    def test_peak_memory_does_not_grow_with_substeps(self):
        # the substep buffers are capped at _SUBSTEP_BLOCK_ENTRIES normals
        # across the chunks in flight (2 MiB); a whole-interval buffer at
        # 4000 substeps would be 128 x 4000 x 3 doubles, 12.3 MB
        from stochsym import runtime

        net = small_network(n=3)
        x0 = np.array([20.387, 20.502, 20.731])
        peaks = {}
        for n_sub in (4, 4000):
            cfg = st.SimConfig(n_trials=128, horizon=2, epsilon=9.9,
                               n_substeps=n_sub, rng_seed=1)
            _, peaks[n_sub] = traced_peak(st.cosimulate, *net, cfg, x0)
        cap = runtime._SUBSTEP_BLOCK_ENTRIES * 8
        # plus the slack a 2^16-entry cap had under a 1 MB bound
        slack = 1_000_000 - (1 << 16) * 8
        assert peaks[4000] - peaks[4] <= cap + slack


def first_violations(step_errors, epsilon):
    """Each trial's first sample at or above epsilon, None when it has none."""
    return [int(np.argmax(row >= epsilon)) if np.any(row >= epsilon) else None
            for row in step_errors]


def spy_exact_step(monkeypatch):
    """The dt of every `_exact_step` call the simulator makes, in a list."""
    from stochsym import runtime

    dts = []
    exact_step = runtime._exact_step

    def spy(f, gg, dt):
        dts.append(dt)
        return exact_step(f, gg, dt)

    monkeypatch.setattr(runtime, "_exact_step", spy)
    return dts


class TestViolatedTrials:
    """A trial whose sample reaches epsilon takes one exact step per later
    interval; the violation-free ones keep their substeps, bit for bit."""

    def test_one_interval_moments_after_a_violating_start(self, monkeypatch):
        # started off its cell centre, every trial's k = 0 error reaches
        # epsilon, so x(tau) comes from the interval step alone: Gaussian with
        # the closed-form mean and variance of the exact transition.  A slow
        # loop (e^{F tau} = e^-4) keeps the moments apart from one substep's
        systems, ic, fas, ctrls, certs = small_network(g=0.3, tracking_rate=40.0)
        grid = fas[0].grid.state
        centre = grid.center(grid.locate([20.5]))[0]
        x0 = np.full(3, centre + 0.002)
        chunk_trials(monkeypatch, 4096, x0.size)
        cfg = st.SimConfig(n_trials=20_000, horizon=1, epsilon=0.003, n_substeps=4,
                           rng_seed=8, record_outputs=True)
        res = st.cosimulate(systems, ic, fas, ctrls, certs, cfg, x0)
        assert res.summary.n_violations == cfg.n_trials
        assert res.summary.substep_intervals == 0
        # the envelope is the first sample's alone
        assert np.all(res.output_min == x0[0]) and np.all(res.output_max == x0[0])
        finals = res.outputs[:, 1, :].ravel()  # three independent rooms

        sys_, cert, tau = systems[0], certs[0], fas[0].disc.tau
        s = InterfaceState(K=cert.K, P=cert.P, Q=cert.Q, H=cert.H, tau=tau, step=0,
                           xi_latch=x0[:1], xi_hat=[centre], w_hat=[2.0 * centre],
                           w_latch=[2.0 * x0[0]])
        nu = interface_input(s, [0.0], [0.0], 0.0)[0]
        mean = exact_scalar_step(sys_, cert, x0[0], nu, tau, 0.0)
        var = (exact_scalar_step(sys_, cert, x0[0], nu, tau, 1.0) - mean) ** 2
        n = finals.size
        assert abs(finals.mean() - mean) <= 4 * math.sqrt(var / n)
        assert abs(finals.var(ddof=1) - var) <= 4 * var * math.sqrt(2 / (n - 1))

    @pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
    @pytest.mark.parametrize("network", ["deterministic", "stochastic", "violated-at-start"])
    def test_violation_free_trials_are_bitwise_unchanged(self, monkeypatch, network, dense):
        # at 0.001 every trial's k = 0 error (0.00166) reaches epsilon, so each
        # interval steps the whole chunk at once with the interval map
        if dense:
            _force_dense(monkeypatch)
        if network != "stochastic":
            net = small_network(n=3, g=0.3, tracking_rate=40.0)
            x0 = np.array([20.387, 20.502, 20.731])
            epsilon = 0.09 if network == "deterministic" else 0.001
        else:
            net = stochastic_network()
            grid = net[2][0].grid.state
            x0, epsilon = np.full(3, grid.center(grid.locate([20.5]))[0]), 0.1
        dts = spy_exact_step(monkeypatch)
        cfg = st.SimConfig(n_trials=8, horizon=6, epsilon=9.9, n_substeps=7,
                           rng_seed=23, record_outputs=True)
        free = st.cosimulate(*net, cfg, x0)
        # nothing violates at 9.9, so the interval maps are never built
        assert free.summary.n_violations == 0
        assert dts and all(dt == 0.1 / 7 for dt in dts)
        first = first_violations(free.step_errors, epsilon)
        if network == "violated-at-start":
            assert first == [0] * cfg.n_trials
        else:  # trials violate at different steps, and some never do
            assert None in first and len({k for k in first if k is not None}) >= 2

        runs = []
        for trials, workers in itertools.product((1, 2, 3), ("1", "2")):
            chunk_trials(monkeypatch, trials, x0.size)
            monkeypatch.setenv("STOCHSYM_THREADS", workers)
            runs.append(st.cosimulate(*net, dataclasses.replace(cfg, epsilon=epsilon), x0))
        res = runs[0]
        assert 0.1 in dts
        for other in runs[1:]:
            for field in ("step_errors", "output_min", "output_max", "outputs",
                          "abstract_outputs"):
                assert np.array_equal(getattr(other, field), getattr(res, field)), field
            assert other.summary.to_dict() == res.summary.to_dict()

        assert first_violations(res.step_errors, epsilon) == first
        assert res.summary.n_violations == sum(k is not None for k in first)
        assert res.summary.substep_intervals == sum(
            cfg.horizon if k is None else k for k in first)
        for t, k in enumerate(first):
            upto = cfg.horizon + 1 if k is None else k + 1
            assert np.array_equal(res.step_errors[t, :upto], free.step_errors[t, :upto])
            assert np.array_equal(res.outputs[t, :upto], free.outputs[t, :upto])
            if k is None:
                assert res.output_min[t] == free.output_min[t]
                assert res.output_max[t] == free.output_max[t]
        # the violating trials drew other normals after their first violation
        assert not np.array_equal(res.step_errors, free.step_errors)
        kept = np.array([k is None for k in first])
        if kept.any():
            assert res.summary.violation_free_output_min == free.output_min[kept].min()
            assert res.summary.violation_free_output_max == free.output_max[kept].max()
        else:  # the envelope is the first sample's alone
            assert res.summary.violation_free_output_min is None
            assert np.array_equal(res.output_min, res.outputs[:, 0].min(axis=1))
            assert np.array_equal(res.output_max, res.outputs[:, 0].max(axis=1))
        if network == "deterministic":
            # no abstract normals come first in a stream, so a shorter run is
            # the same path cut short: its envelope is the one up to the
            # first violating sample
            for t, k in enumerate(first):
                if k is not None:
                    cut = st.cosimulate(*net, dataclasses.replace(cfg, horizon=k), x0)
                    assert res.output_min[t] == cut.output_min[t]
                    assert res.output_max[t] == cut.output_max[t]

    def test_con3_failure_is_rejected_before_any_draw(self, monkeypatch):
        # H = 0 leaves D - B H = D: Con_3 fails verify's tolerance, so the
        # simulator refuses the network before it builds a map or draws
        systems, ic, fas, ctrls, certs = mixed_network()
        certs = [dataclasses.replace(c, H=0.0) for c in certs]
        dts = spy_exact_step(monkeypatch)
        cfg = st.SimConfig(n_trials=8, horizon=6, epsilon=0.2, n_substeps=7, rng_seed=23)
        with pytest.raises(CheckFailed) as info:
            st.cosimulate(systems, ic, fas, ctrls, certs, cfg, np.full(3, 20.5))
        assert info.value.condition == "Con_3"
        assert dts == []

    def test_rounding_dust_in_d_minus_bh_is_not_simulated(self, tmp_path):
        # two-state rooms whose solved H leaves D - B H at rounding level:
        # verify passes them, and the simulator takes D = B H, so a trial
        # keeps its substeps only up to its first violating sample
        from stochsym import cli

        out = tmp_path / "out"
        cfg = cli.generate_rooms(n=4, n_trials=16, out_dir=str(out))
        room = {
            "A": [[-0.105, 0.02], [0.02, -0.03]], "B": [[0.5, 0.1], [0.05, 0.2]],
            "C1": [[1.0, 0.0]], "C2": [[1.0, 0.0]], "D": [[0.05], [0.0]],
            "G": [[0.5, 0.0], [0.0, 0.1]], "b": [-0.005, 0.0],
            "state_box": {"lower": [20.0, 19.0], "upper": [21.0, 22.0]},
            "input_box": {"lower": [-0.01, -0.01], "upper": [0.01, 0.01]},
            "internal_box": {"lower": [40.0], "upper": [42.0]}}
        cfg["systems"]["template"] = room
        cfg["discretization"].update(D_tilde=[[0.0], [0.0]], R_tilde=[[0.0], [0.0]])
        cfg["grid"] = {"state_widths": [0.05, 0.15], "input_widths": [0.005, 0.005],
                       "internal_widths": [2.0]}
        kappa_tilde = cfg["certificates"]["values"][0]["kappa_tilde"]
        cfg["certificates"] = {"mode": "solve", "kappa_tilde": kappa_tilde,
                               "kappa_bar": 0.499, "Xbar11": [[1e-3]], "Xbar12": [[0.0]],
                               "Xbar21": [[0.0]], "Xbar22": [[-5e-3]]}
        cfg["simulation"]["x0"] = [20.525, 20.475] * 4
        cfg["bound"]["epsilon"] = 0.2
        assert cli.run_pipeline(cfg, seed=1) == 0

        cert = json.loads((out / "certificates.json").read_text())["groups"][0]["certificate"]
        dust = np.array(room["D"]) - np.array(room["B"]) @ np.array(cert["H"])
        assert np.any(dust != 0.0) and np.all(np.abs(dust) < 1e-15)
        summary = json.loads((out / "simulation_summary.json").read_text())
        horizon, epsilon = summary["horizon"], summary["epsilon"]
        errors = np.loadtxt(out / "trajectories.csv", delimiter=",", skiprows=1,
                            usecols=2).reshape(summary["n_trials"], horizon + 1)
        first = first_violations(errors, epsilon)
        assert summary["n_violations"] == sum(k is not None for k in first) > 0
        assert summary["substep_intervals"] == sum(
            horizon if k is None else k for k in first)


class TestControllerHorizon:
    def test_time_varying_table_shorter_than_horizon_is_rejected(self):
        systems, ic, fas, ctrls, certs = stochastic_network()
        grid = fas[0].grid.state
        x0 = np.full(3, grid.center(grid.locate([20.5]))[0])
        assert ctrls[0].table.shape[0] == 6
        cfg = st.SimConfig(n_trials=2, horizon=7, epsilon=0.6, n_substeps=20)
        with pytest.raises(StaleControllerTable) as info:
            st.cosimulate(systems, ic, fas, ctrls, certs, cfg, x0)
        assert (info.value.steps, info.value.horizon) == (6, 7)
        assert isinstance(info.value, st.errors.ConfigError)

    def test_one_row_time_varying_table_is_stale(self):
        # a time-varying table of one step is no stationary policy: it
        # covers one of the 9 steps, like any other too-short table
        systems, ic, fas, ctrls, certs = stochastic_network()
        grid = fas[0].grid.state
        x0 = np.full(3, grid.center(grid.locate([20.5]))[0])
        one_step = st.Controller(kind="time-varying-map",
                                 table=ctrls[0].table[:1].copy(),
                                 winning_set=ctrls[0].winning_set)
        cfg = st.SimConfig(n_trials=2, horizon=9, epsilon=0.6, n_substeps=20)
        with pytest.raises(StaleControllerTable) as info:
            st.cosimulate(systems, ic, fas, [one_step], certs, cfg, x0)
        assert (info.value.steps, info.value.horizon) == (1, 9)


def test_trajectory_csv_rows_match_arrays(tmp_path, monkeypatch):
    systems, ic, fas, ctrls, certs = small_network(g=0.1)
    x0 = np.full(3, 20.5025)
    chunk_trials(monkeypatch, 2, x0.size)
    cfg = st.SimConfig(n_trials=3, horizon=2, epsilon=0.5, n_substeps=5,
                       rng_seed=4, record_outputs=True)
    res = st.cosimulate(systems, ic, fas, ctrls, certs, cfg, x0)
    path = tmp_path / "traj.csv"
    write_trajectories_csv(res, path)
    want = ["trial,k,err,sup_err,out_0,out_1,out_2,out_hat_0,out_hat_1,out_hat_2"]
    for t in range(3):
        for k in range(3):
            vals = [res.step_errors[t, k], res.step_errors[t, :k + 1].max(),
                    *res.outputs[t, k], *res.abstract_outputs[t, k]]
            want.append(",".join([str(t), str(k)] + [repr(float(v)) for v in vals]))
    assert path.read_text() == "\n".join(want) + "\n"


@pytest.mark.parametrize("per_chunk", [0, 1, 2])
@pytest.mark.parametrize("recorded", [False, True])
def test_trajectory_rows_are_csv_writer_rows(tmp_path, monkeypatch, recorded, per_chunk):
    # errors that fall and rise again (sup_err is their running maximum),
    # repeated values and a -0.0, written one or two trials at a time; a
    # budget below one trial's fields still writes one trial at a time
    import csv

    from stochsym import runtime

    # 4 steps of 4 fields, or of 8 with two outputs
    monkeypatch.setattr(runtime, "_EXPORT_ENTRIES", per_chunk * 4 * (8 if recorded else 4) + 3)
    errors = np.array([[0.3, 0.1, 0.2, 0.5], [-0.0, 0.1, 0.1, 1e-300],
                       [2.5, 2.5, 0.0, 3.0], [0.1, 0.2, 0.1, 0.2], [1 / 3, 0.7, 0.7, 0.2]])
    outputs = abstract = None
    if recorded:
        outputs = np.random.default_rng(1).standard_normal((5, 4, 2))
        abstract = np.round(outputs, 2)
    res = runtime.SimulationResult(summary=None, step_errors=errors, output_min=None,
                                   output_max=None, outputs=outputs, abstract_outputs=abstract)
    chunks = []
    reprs = runtime._reprs
    monkeypatch.setattr(runtime, "_reprs", lambda a: chunks.append(len(a)) or reprs(a))
    write_trajectories_csv(res, tmp_path / "traj.csv")
    assert chunks == [1] * 5 if per_chunk < 2 else [2, 2, 1]  # trials per chunk
    running = np.maximum.accumulate(errors, axis=1)
    assert not np.array_equal(running, errors)
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["trial", "k", "err", "sup_err"]
                        + (["out_0", "out_1", "out_hat_0", "out_hat_1"] if recorded else []))
        for t in range(5):
            for k in range(4):
                row = [t, k, float(errors[t, k]), float(running[t, k])]
                if recorded:
                    row += outputs[t, k].tolist() + abstract[t, k].tolist()
                writer.writerow(row)
    assert (tmp_path / "traj.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestCoupling:
    def test_dense_room_block_stacks_sparse(self):
        # one dense 2 x 2 block over 2000 rooms: a block-diagonal CSR, where
        # an n_total x n_total matrix would take 128 MB
        from stochsym import runtime

        rng = np.random.default_rng(6)
        m, n = rng.standard_normal((2, 2)), 2000
        op, peak = traced_peak(runtime._Op.stack, [m], np.zeros(n, dtype=np.intp))
        assert op.diag is None and op.out_dim == 2 * n
        assert peak < 5e6
        x = rng.standard_normal((8, 2 * n))
        want = (x.reshape(8, n, 2) @ m.T).reshape(8, 2 * n)
        assert op(x, out=x) is x  # in place, as the noise map runs
        assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))

    def test_sparse_ring_keeps_no_dense_copy(self):
        from stochsym import runtime

        systems, ic, fas, ctrls, certs = small_network(n=1000)
        net = runtime._Network(systems, ic, fas, ctrls, certs, 1, 1)
        # the simulator multiplies with the interconnection's own CSR matrix
        assert net.M is ic.M and ic.M.nnz == 2000
        z2 = np.random.default_rng(3).standard_normal((16, 1000))
        want = z2 @ ic.M.toarray().T
        out = np.empty_like(z2)
        assert net.coupling(z2, out=out) is out
        got = out
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_trial_major_coupling_matches_the_transposed_product(self):
        # w = M zeta2 on the (trials, rooms) layout, against the product of
        # M with each trial's column, bit for bit
        from stochsym import runtime

        systems, ic, fas, ctrls, certs = small_network(n=100)
        net = runtime._Network(systems, ic, fas, ctrls, certs, 1, 1)
        z2 = np.random.default_rng(8).standard_normal((16, 100))
        z2[:, ::3] = 0.0
        out = np.empty_like(z2)
        net.coupling(z2, out=out)
        assert np.array_equal(out.view(np.int64), (ic.M @ z2.T).T.view(np.int64))

    def test_skipped_identity_maps_change_no_bit(self, monkeypatch):
        # these rooms' P, C2 and C2 P are identities, so the simulator skips
        # them.  A run that applies every map (no _Op marked identity), on
        # the diagonal path and through the CSR products of `_force_dense`,
        # gives the same bits
        from stochsym import runtime

        net = mixed_network()
        x0 = np.array([20.4012, 20.5537, 20.6981])
        cfg = st.SimConfig(n_trials=8, horizon=5, epsilon=0.075, n_substeps=8, rng_seed=9)
        ops = runtime._Network(*net, cfg.horizon, cfg.n_substeps)
        assert ops.P.identity and ops.C2.identity and ops.C2P.identity
        skipped = st.cosimulate(*net, cfg, x0)
        violated = skipped.step_errors.max(axis=1) >= cfg.epsilon
        assert violated.any() and not violated.all()  # both kinds of step run

        post_init = runtime._Op.__post_init__

        def apply_every_map(op):
            post_init(op)
            op.identity = False

        monkeypatch.setattr(runtime._Op, "__post_init__", apply_every_map)
        applied = st.cosimulate(*net, cfg, x0)
        _force_dense(monkeypatch)
        dense = st.cosimulate(*net, cfg, x0)
        for run in (applied, dense):
            for field in ("step_errors", "output_min", "output_max"):
                assert np.array_equal(getattr(run, field), getattr(skipped, field))
