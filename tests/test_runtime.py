import dataclasses
import math

import numpy as np
import pytest

import stochsym as st
from stochsym.errors import AbstractStateLost, StaleControllerTable, StaleLatch
from stochsym.runtime import (
    InterfaceState,
    clopper_pearson_upper,
    interface_input,
    interface_terms,
    write_trajectories_csv,
)

from conftest import ROOM, room_certificate, room_system, traced_peak


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


class TestEmStep:
    def test_pure_linear_drift_exact(self):
        sys_ = st.AffineSystem(A=np.zeros((2, 2)), B=np.eye(2), C1=np.eye(2),
                               C2=np.eye(2), D=np.zeros((2, 0)), G=np.zeros((2, 1)),
                               b=np.zeros(2), state_box=st.Box([-9, -9], [9, 9]),
                               input_box=st.Box([-9, -9], [9, 9]),
                               internal_box=st.Box(np.zeros(0), np.zeros(0)))
        for n_sub in (1, 3, 20):
            x = np.array([1.0, -2.0])
            nu = np.array([0.3, 0.7])
            dt = 0.1 / n_sub
            for _ in range(n_sub):
                x = st.em_step(sys_, x, nu, np.zeros(0), dt, np.zeros(1))
            assert x == pytest.approx([1.0 + 0.03, -2.0 + 0.07], rel=1e-12)

    def test_scalar_ode_convergence_order(self):
        # against the exact solution e^{a tau} x0; halving dt halves the error
        a = -1.7
        sys_ = st.AffineSystem(A=a, B=0.0, C1=1.0, C2=1.0, D=np.zeros((1, 0)),
                               G=0.0, b=0.0, state_box=st.Box([-9], [9]),
                               input_box=st.Box([-1], [1]),
                               internal_box=st.Box(np.zeros(0), np.zeros(0)))
        exact = math.exp(a * 0.5) * 2.0
        errs = []
        for n_sub in (50, 100, 200):
            x = np.array([2.0])
            dt = 0.5 / n_sub
            for _ in range(n_sub):
                x = st.em_step(sys_, x, np.zeros(1), np.zeros(0), dt, np.zeros(1))
            errs.append(abs(x.item() - exact))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.1)

    def test_brownian_variance(self):
        # pure diffusion: Var[x(tau) - x(0)] = g^2 tau within 3 standard errors
        g, tau, n_sub, trials = 0.7, 0.4, 8, 4000
        sys_ = st.AffineSystem(A=0.0, B=0.0, C1=1.0, C2=1.0, D=np.zeros((1, 0)),
                               G=g, b=0.0, state_box=st.Box([-99], [99]),
                               input_box=st.Box([-1], [1]),
                               internal_box=st.Box(np.zeros(0), np.zeros(0)))
        rng = np.random.default_rng(123)
        dt = tau / n_sub
        finals = np.empty(trials)
        for t in range(trials):
            x = np.zeros(1)
            for _ in range(n_sub):
                x = st.em_step(sys_, x, np.zeros(1), np.zeros(0), dt,
                               rng.standard_normal(1))
            finals[t] = x[0]
        var = finals.var()
        target = g * g * tau
        se = target * math.sqrt(2.0 / (trials - 1))
        assert abs(var - target) <= 3 * se

    def test_one_interval_moments_converge_weakly_at_first_order(self):
        # EM is affine in (x, z), so its one-interval mean and variance follow
        # exactly from em_step itself: m <- step(m, z=0) and
        # v <- slope^2 v + noise^2.  Against the simulator's exact step both
        # errors halve as the substep count doubles.
        from stochsym import runtime

        f, g, tau, x0, nu = -1.7, 0.6, 0.5, 2.0, 0.4
        sys_ = st.AffineSystem(A=f, B=1.0, C1=1.0, C2=1.0, D=np.zeros((1, 0)),
                               G=g, b=0.3, state_box=st.Box([-9], [9]),
                               input_box=st.Box([-1], [1]),
                               internal_box=st.Box(np.zeros(0), np.zeros(0)))
        phi, gain, chol = runtime._exact_step(sys_.A, sys_.G @ sys_.G.T, tau)
        mean_exact = (phi @ [x0] + gain @ (sys_.B @ [nu] + sys_.b)).item()
        var_exact = (chol @ chol.T).item()

        def step(x, dt, z):
            return st.em_step(sys_, [x], [nu], np.zeros(0), dt, [z]).item()

        mean_errs, var_errs = [], []
        for n_sub in (20, 40, 80, 160):
            dt = tau / n_sub
            slope = step(1.0, dt, 0.0) - step(0.0, dt, 0.0)
            noise = step(0.0, dt, 1.0) - step(0.0, dt, 0.0)
            mean, var = x0, 0.0
            for _ in range(n_sub):
                mean = step(mean, dt, 0.0)
                var = slope * slope * var + noise * noise
            mean_errs.append(abs(mean - mean_exact))
            var_errs.append(abs(var - var_exact))
        for errs in (mean_errs, var_errs):
            assert errs[0] > 1e-4
            for coarse, fine in zip(errs, errs[1:]):
                assert coarse / fine == pytest.approx(2.0, rel=0.05)


def exact_scalar_step(sys_, cert, x, nu_latched, w_t, dt, z):
    """Exact transition of a scalar room under the refinement law over dt.

    With f = A + B K and c = B nu_latched + b the room follows
    dx = (f x + c) dt + g dW plus (D - B H) w(t) dt; the last term is added
    as dt (D - B H) w_t.
    """
    f = float(sys_.A[0, 0] + sys_.B[0, 0] * cert.K[0, 0])
    c = float(sys_.B[0, 0] * nu_latched + sys_.b[0])
    g = float(sys_.G[0, 0])
    residual = float(sys_.D[0, 0] - sys_.B[0, 0] * cert.H[0, 0])
    return (math.exp(f * dt) * x + math.expm1(f * dt) / f * c
            + g * math.sqrt(math.expm1(2 * f * dt) / (2 * f)) * z
            + dt * residual * w_t)


def small_network(n=3, g=0.0, bias=None, tracking_rate=200.0):
    """n-room ring with adjustable noise/offset for runtime tests."""
    base = room_system()
    sys_ = st.AffineSystem(
        A=base.A, B=base.B, C1=base.C1, C2=base.C2, D=base.D,
        G=g, b=base.b if bias is None else bias,
        state_box=base.state_box, input_box=base.input_box,
        internal_box=base.internal_box)
    systems = [sys_] * n
    from stochsym.cli import circular_coupling
    ic = st.InterconnectionSpec(M=circular_coupling(n), mu=np.ones(n),
                                subsystem_dims=[(1, 1, 1, 1)] * n)
    disc = st.DiscretizationSpec(tau=0.1, D_tilde=0.0, R_tilde=0.0)
    k = (-tracking_rate + 0.105) / 0.5
    cert = room_certificate(k_gain=k)
    grid = st.AbstractionGrid(
        state=st.UniformGrid.cover(sys_.state_box, [0.005]),
        input=st.UniformGrid.cover(sys_.input_box, [1e-4]),
        internal=st.UniformGrid.cover(sys_.internal_box, [2.0]))
    fa = st.build_deterministic(sys_, disc, grid)
    ctrl = st.safety_fixpoint(fa, st.SafetySpec(safe_box=st.Box([20.0], [21.0])))
    return systems, ic, [disc] * n, [fa] * n, [ctrl] * n, [cert] * n


class TestCosimulate:
    def test_noise_free_synced_start_stays_tight(self):
        # G = 0, b = 0, start on a representative: quantization is the only
        # error source and stays below the one-step input kick + cell radius
        systems, ic, discs, fas, ctrls, certs = small_network(g=0.0, bias=0.0)
        grid = fas[0].grid.state
        x0 = np.full(3, grid.center(grid.locate([20.5]))[0])
        cfg = st.SimConfig(n_trials=3, horizon=12, epsilon=0.05, n_substeps=20,
                           rng_seed=0, chunk_size=2)
        res = st.cosimulate(systems, ic, discs, fas, ctrls, certs, cfg, x0)
        # one abstract input kick (<= 0.01) + cell radius + tracking residue
        bound = math.sqrt(3) * (0.01 + 0.0025 + 0.005)
        assert res.summary.max_sup_error <= bound
        assert res.summary.n_violations == 0

    def test_seeded_reproducibility_bitwise(self):
        systems, ic, discs, fas, ctrls, certs = small_network(g=0.3)
        x0 = np.full(3, 20.5025)
        cfg = st.SimConfig(n_trials=6, horizon=5, epsilon=0.5, n_substeps=10,
                           rng_seed=99, chunk_size=4)
        a = st.cosimulate(systems, ic, discs, fas, ctrls, certs, cfg, x0)
        b = st.cosimulate(systems, ic, discs, fas, ctrls, certs, cfg, x0)
        assert np.array_equal(a.step_errors, b.step_errors)
        assert a.summary.to_dict() == b.summary.to_dict()

    def test_chunking_does_not_change_statistics(self):
        systems, ic, discs, fas, ctrls, certs = small_network(g=0.3)
        x0 = np.full(3, 20.5025)
        base = st.SimConfig(n_trials=7, horizon=4, epsilon=0.5, n_substeps=8,
                            rng_seed=5, chunk_size=7)
        rechunked = st.SimConfig(n_trials=7, horizon=4, epsilon=0.5, n_substeps=8,
                                 rng_seed=5, chunk_size=2)
        a = st.cosimulate(systems, ic, discs, fas, ctrls, certs, base, x0)
        b = st.cosimulate(systems, ic, discs, fas, ctrls, certs, rechunked, x0)
        assert np.array_equal(a.step_errors, b.step_errors)

    def test_worker_count_does_not_change_statistics(self):
        systems, ic, discs, fas, ctrls, certs = small_network(g=0.3)
        x0 = np.full(3, 20.5025)
        one = st.SimConfig(n_trials=8, horizon=4, epsilon=0.5, n_substeps=8,
                           rng_seed=5, chunk_size=2, max_workers=1)
        four = st.SimConfig(n_trials=8, horizon=4, epsilon=0.5, n_substeps=8,
                            rng_seed=5, chunk_size=2, max_workers=4)
        a = st.cosimulate(systems, ic, discs, fas, ctrls, certs, one, x0)
        b = st.cosimulate(systems, ic, discs, fas, ctrls, certs, four, x0)
        assert np.array_equal(a.step_errors, b.step_errors)

    def test_interface_matches_scalar_reference_inside_run(self):
        # one noise-free step of the batched engine equals a hand-rolled
        # scalar exact-step integration driven by interface_input
        systems, ic, discs, fas, ctrls, certs = small_network(g=0.0)
        grid = fas[0].grid.state
        x0 = np.array([20.387, 20.502, 20.731])
        cfg = st.SimConfig(n_trials=1, horizon=1, epsilon=9.9, n_substeps=4,
                           rng_seed=0, chunk_size=1, record_outputs=True)
        res = st.cosimulate(systems, ic, discs, fas, ctrls, certs, cfg, x0)

        m = ic.M
        idx = [grid.locate([v]) for v in x0]
        xhat = np.array([grid.center(i)[0] for i in idx])
        what = m @ xhat
        actions = [ctrls[i].action(idx[i]) for i in range(3)]
        nu_hat = np.array([fas[0].grid.input.center(a)[0] for a in actions])
        x = x0.copy()
        w_latch = m @ x0
        dt = 0.1 / 4
        for _ in range(4):
            w_t = m @ x
            nu = np.empty(3)
            for i in range(3):
                s = InterfaceState(K=certs[i].K, P=certs[i].P, Q=certs[i].Q,
                                   H=certs[i].H, tau=0.1, step=0,
                                   xi_latch=[x0[i]], xi_hat=[xhat[i]],
                                   w_hat=[what[i]], w_latch=[w_latch[i]])
                # the latched part of the law: its value at xi = w = 0
                nu[i] = interface_input(s, [0.0], [0.0], 0.0)[0]
            for i in range(3):
                x[i] = exact_scalar_step(systems[i], certs[i], x[i], nu[i],
                                         w_t[i], dt, 0.0)
        xhat_next = np.array([
            grid.center(grid.locate([xhat[i] + nu_hat[i]]))[0] for i in range(3)])
        expected_err = np.linalg.norm(x - xhat_next)
        assert res.step_errors[0, 1] == pytest.approx(expected_err, rel=1e-10)

    def test_noise_free_errors_do_not_depend_on_substeps(self):
        # the exact step composes: n steps of dt equal one step of n dt
        systems, ic, discs, fas, ctrls, certs = small_network(g=0.0)
        x0 = np.array([20.387, 20.502, 20.731])
        runs = [st.cosimulate(systems, ic, discs, fas, ctrls, certs, st.SimConfig(
                    n_trials=2, horizon=6, epsilon=9.9, n_substeps=n, rng_seed=3,
                    chunk_size=2), x0).step_errors
                for n in (1, 4, 40)]
        assert np.all(runs[0][:, 1:] > 0)
        for other in runs[1:]:
            np.testing.assert_allclose(other, runs[0], rtol=1e-12, atol=0)

    def test_one_interval_moments_match_closed_form(self):
        # x(tau) of a noisy room started on a representative is Gaussian
        # with the closed-form mean and variance of the exact transition
        systems, ic, discs, fas, ctrls, certs = small_network(g=0.3)
        grid = fas[0].grid.state
        x0 = np.full(3, grid.center(grid.locate([20.5]))[0])
        cfg = st.SimConfig(n_trials=20_000, horizon=1, epsilon=9.9, n_substeps=4,
                           rng_seed=8, chunk_size=4096, record_outputs=True)
        res = st.cosimulate(systems, ic, discs, fas, ctrls, certs, cfg, x0)
        finals = res.outputs[:, 1, :].ravel()  # three independent rooms

        sys_, cert, tau = systems[0], certs[0], discs[0].tau
        w0 = 2.0 * x0[0]  # ring: both neighbours, concrete and abstract alike
        s = InterfaceState(K=cert.K, P=cert.P, Q=cert.Q, H=cert.H, tau=tau,
                           step=0, xi_latch=x0[:1], xi_hat=x0[:1],
                           w_hat=[w0], w_latch=[w0])
        nu = interface_input(s, [0.0], [0.0], 0.0)[0]
        # one exact step over tau: z = 0 gives the mean, z = 1 adds one sd
        mean = exact_scalar_step(sys_, cert, x0[0], nu, w0, tau, 0.0)
        var = (exact_scalar_step(sys_, cert, x0[0], nu, w0, tau, 1.0) - mean) ** 2
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


def stochastic_network(n=3, sigma=0.002):
    """Coarse-grid ring whose abstraction is a sampled Markov kernel."""
    base = room_system()
    sys_ = st.AffineSystem(
        A=base.A, B=base.B, C1=base.C1, C2=base.C2, D=base.D, G=0.2, b=base.b,
        state_box=base.state_box, input_box=st.Box([-0.075], [0.075]),
        internal_box=base.internal_box)
    from stochsym.cli import circular_coupling
    ic = st.InterconnectionSpec(M=circular_coupling(n), mu=np.ones(n),
                                subsystem_dims=[(1, 1, 1, 1)] * n)
    disc = st.DiscretizationSpec(tau=0.1, D_tilde=0.0, R_tilde=sigma)
    cert = room_certificate(k_gain=(-200.0 + 0.105) / 0.5)
    grid = st.AbstractionGrid(
        state=st.UniformGrid.cover(sys_.state_box, [0.05]),
        input=st.UniformGrid.cover(sys_.input_box, [0.05]),
        internal=st.UniformGrid.cover(sys_.internal_box, [2.0]))
    fa = st.build_stochastic(sys_, disc, grid)
    ctrl = st.safety_value_iteration(
        fa, st.SafetySpec(safe_box=st.Box([20.0], [21.0]), horizon=6))
    return [sys_] * n, ic, [disc] * n, [fa] * n, [ctrl] * n, [cert] * n


class TestStochasticClosedLoop:
    def test_end_to_end_with_sampled_abstraction(self):
        systems, ic, discs, fas, ctrls, certs = stochastic_network()
        grid = fas[0].grid.state
        x0 = np.full(3, grid.center(grid.locate([20.5]))[0])
        cfg = st.SimConfig(n_trials=20, horizon=6, epsilon=0.6, n_substeps=20,
                           rng_seed=4, chunk_size=8)
        res = st.cosimulate(systems, ic, discs, fas, ctrls, certs, cfg, x0)
        assert res.summary.n_trials == 20
        assert np.all(np.isfinite(res.step_errors))
        # the abstract state jitters by the sampled noise as well, so errors
        # are nonzero but stay near the per-step kick scale
        assert 0.0 < res.summary.max_sup_error < 0.6

    def test_sampled_abstract_path_is_seed_reproducible(self):
        systems, ic, discs, fas, ctrls, certs = stochastic_network()
        grid = fas[0].grid.state
        x0 = np.full(3, grid.center(grid.locate([20.5]))[0])
        cfg = st.SimConfig(n_trials=9, horizon=4, epsilon=0.6, n_substeps=10,
                           rng_seed=21, chunk_size=4)
        a = st.cosimulate(systems, ic, discs, fas, ctrls, certs, cfg, x0)
        cfg2 = st.SimConfig(n_trials=9, horizon=4, epsilon=0.6, n_substeps=10,
                            rng_seed=21, chunk_size=3)
        b = st.cosimulate(systems, ic, discs, fas, ctrls, certs, cfg2, x0)
        assert np.array_equal(a.step_errors, b.step_errors)


def test_thread_env_var_caps_workers(monkeypatch):
    cfg = st.SimConfig(n_trials=1, horizon=1, epsilon=1.0)
    monkeypatch.delenv("STOCHSYM_THREADS", raising=False)
    assert cfg.workers() == 1
    monkeypatch.setenv("STOCHSYM_THREADS", "6")
    assert cfg.workers() == 6
    explicit = st.SimConfig(n_trials=1, horizon=1, epsilon=1.0, max_workers=2)
    assert explicit.workers() == 2


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


def test_clopper_pearson_matches_beta_quantile_exactly():
    # the bound is the Beta(v + 1, n - v) quantile that scipy.stats computes
    import scipy.stats

    pairs = [(v, n) for n in range(1, 121) for v in range(n)]
    pairs += [(v, n) for n in (1000, 10000) for v in range(51)]
    for v, n in pairs:
        assert clopper_pearson_upper(v, n) == float(
            scipy.stats.beta.ppf(0.95, v + 1, n - v)), (v, n)


def test_trajectory_csv_layout(tmp_path):
    systems, ic, discs, fas, ctrls, certs = small_network(g=0.1)
    x0 = np.full(3, 20.5025)
    cfg = st.SimConfig(n_trials=2, horizon=3, epsilon=0.5, n_substeps=5,
                       rng_seed=2, chunk_size=2, record_outputs=True)
    res = st.cosimulate(systems, ic, discs, fas, ctrls, certs, cfg, x0)
    path = tmp_path / "traj.csv"
    write_trajectories_csv(res, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("trial,k,err,sup_err,out_0")
    assert len(lines) == 1 + 2 * 4


def scalar_reference(systems, ic, discs, fas, ctrls, certs, cfg, x0):
    """Trial-by-trial replay of a network of scalar rooms through
    `interface_input` and `exact_scalar_step`, on the normals of each trial's
    stream: its abstract normals first, then each interval's substep normals.

    Returns (step_errors, lost_at): lost_at[t] is None, or the step at which
    trial t first loses an abstract state.
    """
    n = len(systems)
    dt = discs[0].tau / cfg.n_substeps
    m = ic.M
    stochastic = any(not d.noise_free for d in discs)
    streams = np.random.SeedSequence(cfg.rng_seed).spawn(2)[0].spawn(cfg.n_trials)
    grids = [fa.grid.state for fa in fas]
    errors = np.full((cfg.n_trials, cfg.horizon + 1), np.nan)
    lost_at = [None] * cfg.n_trials
    for t, ss in enumerate(streams):
        gen = np.random.Generator(np.random.Philox(ss))
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
            w_hat = m @ np.array([(fas[i].internal_output_map @ xhat[i:i + 1])[0]
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
                w_t = m @ x
                time_ = k * discs[0].tau + j * dt
                # the latched part of the law: its value at xi = w = 0
                nu = [interface_input(states[i], [0.0], [0.0], time_)[0]
                      for i in range(n)]
                x = np.array([exact_scalar_step(systems[i], certs[i], x[i], nu[i],
                                                w_t[i], dt, z[j, i]) for i in range(n)])
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
    """3-room ring with H = 0 (so D - B H != 0) and two distinct
    abstraction/controller pairs placed on rooms (0, 2) and (1,)."""
    systems, ic, discs, _, _, certs = small_network(g=g, tracking_rate=tracking_rate)
    cert = dataclasses.replace(certs[0], H=0.0)
    pairs = []
    for width in (0.005, 0.01):
        grid = st.AbstractionGrid(
            state=st.UniformGrid.cover(systems[0].state_box, [width]),
            input=st.UniformGrid.cover(systems[0].input_box, [1e-4]),
            internal=st.UniformGrid.cover(systems[0].internal_box, [2.0]))
        fa = st.build_deterministic(systems[0], discs[0], grid)
        pairs.append((fa, st.safety_fixpoint(
            fa, st.SafetySpec(safe_box=st.Box([20.0], [21.0])))))
    fas = [pairs[0][0], pairs[1][0], pairs[0][0]]
    ctrls = [pairs[0][1], pairs[1][1], pairs[0][1]]
    return systems, ic, discs, fas, ctrls, [cert] * 3


def _force_dense(monkeypatch):
    """Make every stacked operator of the simulator a dense matmul."""
    from stochsym import runtime

    stack = runtime._Op.stack

    def dense_stack(mats):
        op = stack(mats)
        if op.diag is None:
            return op
        return runtime._Op(dense_t=np.diag(op.diag), diag=None)

    monkeypatch.setattr(runtime._Op, "stack", dense_stack)


class TestFusedSubstepOracle:
    def test_noisy_run_matches_scalar_interface_law(self):
        net = mixed_network()
        x0 = np.array([20.4012, 20.5537, 20.6981])
        cfg = st.SimConfig(n_trials=5, horizon=4, epsilon=9.9, n_substeps=8,
                           rng_seed=17, chunk_size=2)
        res = st.cosimulate(*net, cfg, x0)
        want, lost_at = scalar_reference(*net, cfg, x0)
        assert lost_at == [None] * 5
        assert np.all(want > 0)
        np.testing.assert_allclose(res.step_errors, want, rtol=1e-12, atol=0)

    def test_dense_operators_match_diagonal_fast_path(self, monkeypatch):
        # every operator of the rooms is diagonal; forcing the dense matmul
        # path must give the same errors
        net = mixed_network()
        x0 = np.array([20.4012, 20.5537, 20.6981])
        cfg = st.SimConfig(n_trials=4, horizon=3, epsilon=9.9, n_substeps=8,
                           rng_seed=2, chunk_size=3)
        fast = st.cosimulate(*net, cfg, x0)
        _force_dense(monkeypatch)
        dense = st.cosimulate(*net, cfg, x0)
        np.testing.assert_allclose(dense.step_errors, fast.step_errors,
                                   rtol=1e-12, atol=0)

    def test_lost_trial_and_step_are_reported(self):
        net = stochastic_network(sigma=0.15)
        grid = net[3][0].grid.state
        x0 = np.full(3, grid.center(grid.locate([20.5]))[0])
        cfg = st.SimConfig(n_trials=8, horizon=6, epsilon=9.9, n_substeps=20,
                           rng_seed=3, chunk_size=8)
        # one chunk: the run stops at the first step where any trial is lost
        # and names the lowest trial lost there; with this seed a trial of
        # lower index is lost only later, so the report is not simply the
        # first lost trial
        _, lost_at = scalar_reference(*net, cfg, x0)
        step = min(k for k in lost_at if k is not None)
        trial = lost_at.index(step)
        assert any(k is not None and k > step for k in lost_at[:trial])
        with pytest.raises(AbstractStateLost) as info:
            st.cosimulate(*net, cfg, x0)
        assert (info.value.trial, info.value.step) == (trial, step)


class TestSubstepStreaming:
    @pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
    @pytest.mark.parametrize("network", ["con3", "residual"])
    def test_blocks_match_whole_interval(self, monkeypatch, dense, network):
        # 7 substeps in blocks of 1, of 3 (the last one partial) and in one
        # block: the same normals in the same order, hence the same arrays
        from stochsym import runtime

        if dense:
            _force_dense(monkeypatch)
        if network == "residual":
            net = mixed_network()
            x0 = np.array([20.4012, 20.5537, 20.6981])
        else:
            net = small_network(n=12, g=0.3, tracking_rate=40.0)
            x0 = np.linspace(20.3, 20.7, 12)
        if dense:
            assert runtime._Network(*net, 4).substep(7).phi.diag is None
        trials, n_total = 4, x0.size
        cfg = st.SimConfig(n_trials=trials, horizon=4, epsilon=9.9, n_substeps=7,
                           rng_seed=23, chunk_size=trials)
        runs = {}
        for block in (7, 1, 3):
            monkeypatch.setattr(runtime, "_SUBSTEP_BLOCK_ENTRIES",
                                block * trials * n_total)
            runs[block] = st.cosimulate(*net, cfg, x0)
        whole = runs[7]
        assert np.all(whole.step_errors[:, 1:] > 0)
        for block in (1, 3):
            for field in ("step_errors", "output_min", "output_max"):
                assert np.array_equal(getattr(runs[block], field), getattr(whole, field))

    def test_peak_memory_does_not_grow_with_substeps(self):
        # the substep buffers are capped at _SUBSTEP_BLOCK_ENTRIES normals per
        # chunk; whole-interval buffers at 400 substeps would be 3 x 1.2 MB
        net = small_network(n=3)
        x0 = np.array([20.387, 20.502, 20.731])
        peaks = {}
        for n_sub in (4, 400):
            cfg = st.SimConfig(n_trials=128, horizon=2, epsilon=9.9,
                               n_substeps=n_sub, rng_seed=1, chunk_size=128)
            _, peaks[n_sub] = traced_peak(st.cosimulate, *net, cfg, x0)
        assert peaks[400] - peaks[4] <= 1_000_000


class TestControllerHorizon:
    def test_time_varying_table_shorter_than_horizon_is_rejected(self):
        systems, ic, discs, fas, ctrls, certs = stochastic_network()
        grid = fas[0].grid.state
        x0 = np.full(3, grid.center(grid.locate([20.5]))[0])
        assert ctrls[0].table.shape[0] == 6
        cfg = st.SimConfig(n_trials=2, horizon=7, epsilon=0.6, n_substeps=20)
        with pytest.raises(StaleControllerTable) as info:
            st.cosimulate(systems, ic, discs, fas, ctrls, certs, cfg, x0)
        assert (info.value.steps, info.value.horizon) == (6, 7)
        assert isinstance(info.value, st.errors.ConfigError)

    def test_one_row_table_is_stationary(self):
        systems, ic, discs, fas, ctrls, certs = stochastic_network()
        grid = fas[0].grid.state
        x0 = np.full(3, grid.center(grid.locate([20.5]))[0])
        stationary = st.Controller(kind="time-varying-map",
                                   table=ctrls[0].table[:1].copy(),
                                   winning_set=ctrls[0].winning_set)
        cfg = st.SimConfig(n_trials=2, horizon=9, epsilon=0.6, n_substeps=20)
        res = st.cosimulate(systems, ic, discs, fas, [stationary] * 3, certs, cfg, x0)
        assert np.all(np.isfinite(res.step_errors))


def test_trajectory_csv_rows_match_arrays(tmp_path):
    systems, ic, discs, fas, ctrls, certs = small_network(g=0.1)
    x0 = np.full(3, 20.5025)
    cfg = st.SimConfig(n_trials=3, horizon=2, epsilon=0.5, n_substeps=5,
                       rng_seed=4, chunk_size=2, record_outputs=True)
    res = st.cosimulate(systems, ic, discs, fas, ctrls, certs, cfg, x0)
    path = tmp_path / "traj.csv"
    write_trajectories_csv(res, path)
    want = ["trial,k,err,sup_err,out_0,out_1,out_2,out_hat_0,out_hat_1,out_hat_2"]
    for t in range(3):
        for k in range(3):
            vals = [res.step_errors[t, k], res.step_errors[t, :k + 1].max(),
                    *res.outputs[t, k], *res.abstract_outputs[t, k]]
            want.append(",".join([str(t), str(k)] + [repr(float(v)) for v in vals]))
    assert path.read_text() == "\n".join(want) + "\n"


class TestCoupling:
    def test_sparse_ring_keeps_no_dense_copy(self):
        from stochsym import runtime

        systems, ic, discs, fas, ctrls, certs = small_network(n=1000)
        net = runtime._Network(systems, ic, discs, fas, ctrls, certs, 1)
        # the simulator multiplies with the interconnection's own CSR matrix
        assert net.M is ic.M and ic.M.nnz == 2000
        z2 = np.random.default_rng(3).standard_normal((16, 1000))
        want = z2 @ ic.M.toarray().T
        got = net.coupling(z2)
        assert got.flags.c_contiguous
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
