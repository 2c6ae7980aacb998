import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import stochsym as st
from stochsym.certificates import StorageCertificate, validate_certificate
from stochsym.errors import (
    CheckFailed,
    DimensionMismatch,
    Infeasible,
    KappaBarOutOfRange,
    NotPositiveDefinite,
    UnboundedStateBox,
)

from conftest import ROOM, random_psd, room_certificate, room_system

KT_ROOM = st.kappa_tilde_from(0.499, 0.5, 0.1)  # decay rate implied by kappa = 0.5


def scalar_system(a, b=0.0, d=0.0, g=0.0, bias=0.0):
    return st.AffineSystem(
        A=a, B=b if b else 1e-300, C1=1.0, C2=1.0, D=d, G=g if g else 1e-300,
        b=bias, state_box=st.Box([-1.0], [1.0]), input_box=st.Box([-1.0], [1.0]),
        internal_box=st.Box([-1.0], [1.0]),
    )


class TestLyapunov:
    def test_equality_case_margin_zero(self):
        sys_ = st.AffineSystem(A=-1.0, B=0.0, C1=1.0, C2=1.0, D=0.0, G=1.0, b=0.0,
                               state_box=st.Box([-1], [1]), input_box=st.Box([-1], [1]),
                               internal_box=st.Box([-1], [1]))
        res = st.check_lyapunov(sys_, 1.0, 0.0, 2.0)
        assert res.ok
        assert res.margin == pytest.approx(0.0, abs=1e-12)

    def test_room_strong_gain(self, room):
        res = st.check_lyapunov(room, 1.0, -140.0, 69.08)
        assert res.ok
        # 2(A + BK) = -140.21, residual 140.21 - 69.08
        assert res.margin == pytest.approx(140.21 - 69.08, rel=1e-12)

    def test_unstable_open_loop_violates(self):
        sys_ = st.AffineSystem(A=1.0, B=0.0, C1=1.0, C2=1.0, D=0.0, G=1.0, b=0.0,
                               state_box=st.Box([-1], [1]), input_box=st.Box([-1], [1]),
                               internal_box=st.Box([-1], [1]))
        res = st.check_lyapunov(sys_, 1.0, 0.0, 1.0)
        assert not res.ok
        assert res.margin < 0

    def test_rejects_indefinite_m_bar(self, room):
        with pytest.raises(NotPositiveDefinite):
            st.check_lyapunov(room, -1.0, 0.0, 1.0)

    @pytest.mark.parametrize("scale", [1.0, 0.5, 0.25, 0.1])
    def test_monotone_in_decay_rate(self, room, scale):
        # passing at kappa_tilde implies passing at every smaller rate
        assert st.check_lyapunov(room, 1.0, -140.0, 69.08 * scale).ok

    def test_verdict_invariant_under_m_bar_scaling(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 3)) - 3 * np.eye(3)
        sys_ = st.AffineSystem(A=a, B=np.zeros((3, 1)), C1=np.eye(3), C2=np.eye(3),
                               D=np.zeros((3, 0)), G=np.ones((3, 1)), b=np.zeros(3),
                               state_box=st.Box(-np.ones(3), np.ones(3)),
                               input_box=st.Box([-1], [1]),
                               internal_box=st.Box(np.zeros(0), np.zeros(0)))
        m = random_psd(rng, 3)
        k = np.zeros((1, 3))
        for kt in (0.1, 1.0, 4.0):
            assert (st.check_lyapunov(sys_, m, k, kt).ok
                    == st.check_lyapunov(sys_, 4.0 * m, k, kt).ok)


class TestGeometric:
    def test_room_reference_values(self, room):
        res = st.check_geometric(room, 1.0, -0.21, 0.1)
        assert res.ok
        assert res.residual_q < 1e-12 and res.residual_h < 1e-12

    def test_unmatchable_drift(self):
        sys_ = st.AffineSystem(A=1.0, B=0.0, C1=1.0, C2=1.0, D=0.0, G=1.0, b=0.0,
                               state_box=st.Box([-1], [1]), input_box=st.Box([-1], [1]),
                               internal_box=st.Box([-1], [1]))
        res = st.check_geometric(sys_, 1.0, 5.0, 0.0)
        assert not res.ok_input_match
        assert res.residual_q == pytest.approx(1.0)

    def test_verdict_invariant_under_m_bar_scaling(self, room):
        # geometric equalities do not involve M_bar at all
        r1 = st.check_geometric(room, 1.0, -0.21, 0.1)
        assert r1.ok


class TestSolveCandidates:
    def test_room_closed_form(self, room):
        cand = st.solve_candidates(room, KT_ROOM)
        assert cand.K.item() <= -68.85
        assert cand.K.item() == pytest.approx((-KT_ROOM / 2 + 0.105) / 0.5, rel=1e-12)
        assert cand.M_bar.item() == 1.0
        assert cand.Q.item() == pytest.approx(-0.21, rel=1e-12)
        assert cand.H.item() == pytest.approx(0.1, rel=1e-12)
        assert st.check_lyapunov(room, cand.M_bar, cand.K, KT_ROOM).ok

    def test_integrator(self):
        sys_ = st.AffineSystem(A=0.0, B=1.0, C1=1.0, C2=1.0, D=0.5, G=1.0, b=0.0,
                               state_box=st.Box([-1], [1]), input_box=st.Box([-1], [1]),
                               internal_box=st.Box([-1], [1]))
        cand = st.solve_candidates(sys_, 2.0)
        assert cand.K.item() <= -1.0
        assert cand.M_bar.item() == 1.0
        assert cand.Q.item() == 0.0
        assert cand.H.item() == pytest.approx(0.5)

    def test_unstabilizable(self):
        sys_ = st.AffineSystem(A=1.0, B=0.0, C1=1.0, C2=1.0, D=0.0, G=1.0, b=0.0,
                               state_box=st.Box([-1], [1]), input_box=st.Box([-1], [1]),
                               internal_box=st.Box([-1], [1]))
        with pytest.raises(Infeasible):
            st.solve_candidates(sys_, 1.0)

    def test_singular_b_fails_the_decay_condition(self):
        # the second state is matched but the first has no actuation: with
        # P = I, Con_2 forces A = B Q, so A + B K is singular for every K
        sys_ = st.AffineSystem(A=np.diag([-10.0, 0.0]), B=np.diag([0.0, 1.0]),
                               C1=np.eye(2), C2=np.eye(2), D=np.zeros((2, 1)),
                               G=np.eye(2), b=np.zeros(2),
                               state_box=st.Box(-np.ones(2), np.ones(2)),
                               input_box=st.Box(-np.ones(2), np.ones(2)),
                               internal_box=st.Box([-1], [1]))
        with pytest.raises(Infeasible) as exc:
            st.solve_candidates(sys_, 1.0)
        assert exc.value.condition == "Con_1"

    def test_non_square_b_rejected(self):
        sys_ = st.AffineSystem(A=-1.0, B=[[1.0, 0.5]], C1=1.0, C2=1.0, D=0.0, G=1.0,
                               b=0.0, state_box=st.Box([-1], [1]),
                               input_box=st.Box([-1, -1], [1, 1]),
                               internal_box=st.Box([-1], [1]))
        with pytest.raises(DimensionMismatch):
            st.solve_candidates(sys_, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(n=hst.integers(1, 4), p=hst.integers(0, 2), seed=hst.integers(0, 2**32 - 1),
           kappa_tilde=hst.floats(0.5, 100.0))
    def test_closed_form_meets_every_condition(self, n, p, seed, kappa_tilde):
        # B = U diag(s) V^T with random orthogonal U, V and s in [0.5, 2]: a
        # non-diagonal B of condition number at most 4
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        b = u @ np.diag(rng.uniform(0.5, 2.0, n)) @ v.T
        a = rng.uniform(-5.0, 5.0, (n, n))
        sys_ = st.AffineSystem(A=a, B=b, C1=np.eye(n), C2=np.eye(n),
                               D=rng.standard_normal((n, p)), G=np.eye(n),
                               b=np.zeros(n), state_box=st.Box(-np.ones(n), np.ones(n)),
                               input_box=st.Box(-np.ones(n), np.ones(n)),
                               internal_box=st.Box(-np.ones(p), np.ones(p)))
        cand = st.solve_candidates(sys_, kappa_tilde)
        assert np.array_equal(cand.M_bar, np.eye(n)) and np.array_equal(cand.P, np.eye(n))
        assert st.check_lyapunov(sys_, cand.M_bar, cand.K, kappa_tilde).ok
        assert st.check_geometric(sys_, cand.P, cand.Q, cand.H).ok
        target = -0.5 * kappa_tilde * np.eye(n)
        assert (np.linalg.norm(a + b @ cand.K - target)
                <= 1e-12 * np.linalg.norm(target))

    def test_general_multivariable_pair(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 4))
        sys_ = st.AffineSystem(A=a, B=np.eye(4), C1=np.eye(4), C2=np.eye(4),
                               D=np.zeros((4, 1)), G=np.ones((4, 1)), b=np.zeros(4),
                               state_box=st.Box(-np.ones(4), np.ones(4)),
                               input_box=st.Box(-np.ones(4), np.ones(4)),
                               internal_box=st.Box([-1], [1]))
        cand = st.solve_candidates(sys_, 3.0)
        assert st.check_lyapunov(sys_, cand.M_bar, cand.K, 3.0).ok
        assert st.check_geometric(sys_, cand.P, cand.Q, cand.H).ok


class TestDissipativity:
    def test_room_reference_blocks(self, room, room_cert):
        res = st.check_dissipativity_lmi(room_cert, room, 0.1)
        assert res.ok
        # by-hand residual: diag(kappa_bar - 2 pi e tau B^2, 0)
        e = math.exp(-KT_ROOM * 0.1)
        expected_11 = 0.499 - 2 * e * 0.1 * 0.25
        assert res.residual[0, 0] == pytest.approx(expected_11, rel=1e-12)
        assert res.residual[1, 1] == pytest.approx(0.0, abs=1e-15)

    def test_kappa_bar_boundary_rejected(self, room, room_cert):
        bad = StorageCertificate(**{**room_cert.to_dict(), "kappa_bar": 0.0})
        with pytest.raises(KappaBarOutOfRange):
            st.check_dissipativity_lmi(bad, room, 0.1)

    def test_large_pi_violates_internal_block(self, room, room_cert):
        # pi = 4 pushes the internal-input block past its Xbar11 budget
        bad = StorageCertificate(**{**room_cert.to_dict(), "pi": 4.0})
        res = st.check_dissipativity_lmi(bad, room, 0.1)
        assert not res.ok
        assert res.residual[1, 1] < 0

    def test_room_without_internal_inputs(self, room, room_cert, noise_free_disc):
        # p = 0: the zero-size blocks leave the state block alone, bit for bit
        # the reference room's, and the constants do not read D
        lone = st.AffineSystem(A=room.A, B=room.B, C1=room.C1, C2=room.C2,
                               D=np.zeros((1, 0)), G=room.G, b=room.b,
                               state_box=room.state_box, input_box=room.input_box,
                               internal_box=st.Box(np.zeros(0), np.zeros(0)))
        cert = StorageCertificate(**{**room_cert.to_dict(), "H": np.zeros((1, 0)),
                                     "Xbar11": np.zeros((0, 0)), "Xbar12": np.zeros((0, 1)),
                                     "Xbar21": np.zeros((1, 0))})
        res = st.check_dissipativity_lmi(cert, lone, 0.1)
        ref = st.check_dissipativity_lmi(room_cert, room, 0.1)
        assert res.ok and res.residual.shape == (1, 1)
        assert res.residual[0, 0] == ref.residual[0, 0] == res.margin
        assert res.margin == pytest.approx(0.49895, rel=1e-12)
        disc = st.DiscretizationSpec(tau=0.1, D_tilde=np.zeros((1, 0)), R_tilde=0.0)
        assert (st.derive_constants(cert, lone, disc)
                == st.derive_constants(room_cert, room, noise_free_disc))

    def test_requires_square_gain(self):
        sys_ = st.AffineSystem(A=np.eye(2) * -1, B=np.ones((2, 1)), C1=np.eye(2),
                               C2=np.eye(2), D=np.ones((2, 1)), G=np.ones((2, 1)),
                               b=np.zeros(2), state_box=st.Box(-np.ones(2), np.ones(2)),
                               input_box=st.Box([-1], [1]), internal_box=st.Box([-1], [1]))
        cert = StorageCertificate(
            M_bar=np.eye(2), K=np.zeros((1, 2)), P=np.eye(2), Q=np.zeros((1, 2)),
            H=np.zeros((1, 1)), kappa_tilde=1.0, pi=1.0, kappa_bar=0.4,
            Xbar11=0.0, Xbar12=np.zeros((1, 2)), Xbar21=np.zeros((2, 1)),
            Xbar22=np.zeros((2, 2)))
        with pytest.raises(DimensionMismatch):
            st.check_dissipativity_lmi(cert, sys_, 0.1)

    def test_joint_rescale_recomputed(self, room, room_cert):
        # pi -> pi/c with M_bar -> c M_bar and X blocks rescaled keeps the verdict,
        # established by recomputation rather than assumption
        c = 4.0
        scaled = StorageCertificate(**{
            **room_cert.to_dict(),
            "pi": room_cert.pi / c,
            "M_bar": (c * room_cert.M_bar).tolist(),
            "Xbar11": (c * room_cert.Xbar11).tolist(),
            "Xbar22": (c * room_cert.Xbar22).tolist(),
        })
        base = st.check_dissipativity_lmi(room_cert, room, 0.1)
        res = st.check_dissipativity_lmi(scaled, room, 0.1)
        assert res.ok == base.ok
        # inconsistent rescale (M_bar only) must be re-checked, not assumed:
        # kappa_bar c M_bar grows while the B-block grows the same way, but the
        # Xbar22 budget is unscaled, so the verdict can flip for large c
        lopsided = StorageCertificate(**{
            **room_cert.to_dict(), "M_bar": [[4000.0]],
        })
        res2 = st.check_dissipativity_lmi(lopsided, room, 0.1)
        assert isinstance(res2.ok, bool)


class TestGammaSlope:
    def test_unit_box_formula(self, room_cert):
        sys_ = room_system()
        # M=1, P=1 on [20, 21]: Delta = max |x - x''| = 1, so L = 2 lam_max ||P|| Delta
        # = 2.  The difference is (a - b)^T M (a + b) with a = x - P x',
        # b = x - P x'', at most lam_max ||P|| ||x' - x''|| (||a|| + ||b||): no
        # lam_max ||P||^2 diameter term (+1 here) is needed
        assert st.gamma_slope_bound(room_cert, sys_) == 2.0

    def test_degenerate_p(self, room, room_cert):
        cert = StorageCertificate(**{**room_cert.to_dict(), "P": [[0.0]]})
        assert st.gamma_slope_bound(cert, room) == 0.0

    def test_unbounded_box_rejected(self, room_cert):
        sys_ = room_system()
        bad = st.AffineSystem(A=sys_.A, B=sys_.B, C1=sys_.C1, C2=sys_.C2, D=sys_.D,
                              G=sys_.G, b=sys_.b,
                              state_box=st.Box([20.0], [np.inf]),
                              input_box=sys_.input_box, internal_box=sys_.internal_box)
        with pytest.raises(UnboundedStateBox):
            st.gamma_slope_bound(room_cert, bad)


class TestDeriveConstants:
    def test_room_constants(self, room, room_cert, noise_free_disc):
        const = st.derive_constants(room_cert, room, noise_free_disc)
        assert const.kappa == pytest.approx(0.5, abs=1e-12)
        assert const.rho_ext_slope == pytest.approx(2.0)
        e = math.exp(-KT_ROOM * 0.1)
        expected_psi = e * 0.1 * (0.25 + 1.0 * 0.005**2)
        assert const.psi == pytest.approx(expected_psi, rel=1e-12)
        assert const.psi == pytest.approx(2.50025e-5, rel=1e-4)
        assert const.alpha_coeff == pytest.approx(1.0)

    def test_no_noise_no_offset_gives_zero_psi(self, noise_free_disc):
        sys_ = st.AffineSystem(A=-0.105, B=0.5, C1=1.0, C2=1.0, D=0.05, G=0.0, b=0.0,
                               state_box=st.Box([20.0], [21.0]),
                               input_box=st.Box([-1], [1]),
                               internal_box=st.Box([40.0], [42.0]))
        const = st.derive_constants(room_certificate(), sys_, noise_free_disc)
        assert const.psi == 0.0

    def test_psi_scales_with_m_bar_exactly(self, room, noise_free_disc):
        base = room_certificate()
        c = 4.0  # power of two: scaling is exact in floating point
        scaled = StorageCertificate(**{
            **base.to_dict(),
            "M_bar": (c * base.M_bar).tolist(),
            "Xbar11": (c * base.Xbar11).tolist(),
            "Xbar22": (c * base.Xbar22).tolist(),
        })
        c0 = st.derive_constants(base, room, noise_free_disc)
        c1 = st.derive_constants(scaled, room, noise_free_disc)
        assert c1.kappa == c0.kappa
        assert c1.psi == c * c0.psi

    def test_rho_ext_slope_scales_with_m_bar_exactly(self, room, noise_free_disc):
        # the slope is derived from M_bar (lam_max scales by c), not read
        base = room_certificate()
        c = 4.0
        scaled = StorageCertificate(**{
            **base.to_dict(),
            "M_bar": (c * base.M_bar).tolist(),
            "Xbar11": (c * base.Xbar11).tolist(),
            "Xbar22": (c * base.Xbar22).tolist(),
        })
        c0 = st.derive_constants(base, room, noise_free_disc)
        c1 = st.derive_constants(scaled, room, noise_free_disc)
        assert c0.rho_ext_slope == 2.0
        assert c1.rho_ext_slope == c * c0.rho_ext_slope

    def test_noise_free_never_exceeds_noisy_psi(self, room):
        rng = np.random.default_rng(3)
        cert = room_certificate()
        clean = st.DiscretizationSpec(tau=0.1, D_tilde=0.0, R_tilde=0.0)
        base = st.derive_constants(cert, room, clean)
        for _ in range(20):
            noisy = st.DiscretizationSpec(tau=0.1,
                                          D_tilde=rng.uniform(0, 0.5),
                                          R_tilde=rng.uniform(1e-3, 0.5))
            full = st.derive_constants(cert, room, noisy,
                                       w_hat_bound=rng.uniform(0, 50.0), delta=0.005)
            assert base.psi <= full.psi

    def test_noise_free_feedthrough_closed_form(self, room, noise_free_disc):
        # R_tilde = 0 with D_tilde != 0: the quantization and trace terms drop,
        # and the feedthrough term joins psi0
        cert = StorageCertificate(**{**room_certificate().to_dict(), "eta_bar": 0.5,
                                     "eta_bar_p": 2.0, "eta_bar_pp": 4.0})
        clean = st.derive_constants(cert, room, noise_free_disc)
        d_tilde, w_hat = -0.3, 41.0
        disc = st.DiscretizationSpec(tau=0.1, D_tilde=d_tilde, R_tilde=0.0)
        const = st.derive_constants(cert, room, disc, w_hat_bound=w_hat)
        L = st.gamma_slope_bound(cert, room)
        assert L == clean.rho_ext_slope == 2.0
        assert const.rho_ext_slope == pytest.approx(L * (1 + 1 / 0.5) * (1 + 2.0) * (1 + 4.0),
                                                    rel=1e-15)
        d_term = L * (1 + 1 / 0.5) * (1 + 2.0) * (1 + 1 / 4.0) * abs(d_tilde) * w_hat
        assert const.psi == pytest.approx(clean.psi + d_term, rel=1e-15)
        assert (const.kappa, const.alpha_coeff) == (clean.kappa, clean.alpha_coeff)

    def test_kappa_strictly_inside_unit_interval(self, room, noise_free_disc):
        rng = np.random.default_rng(8)
        for _ in range(20):
            kb = rng.uniform(0.05, 0.9)
            gap = rng.uniform(0.005, min(0.09, 0.99 - kb))
            kt = st.kappa_tilde_from(kb, kb + gap, 0.1)
            scale = 1.0 * gap * 0.1  # pi e^{-kt tau} tau, with e^{-kt tau} = gap
            cert = StorageCertificate(**{
                **room_certificate().to_dict(),
                "kappa_bar": kb, "kappa_tilde": kt,
                "K": [[(-0.5 * kt + 0.105) / 0.5]],
                "Xbar11": [[scale * 0.05**2]],  # exactly the D-block budget
                "Xbar22": [[0.0]],
            })
            const = st.derive_constants(cert, room, noise_free_disc)
            assert 0.0 < const.kappa < 1.0
            assert const.kappa == pytest.approx(kb + gap, rel=1e-12)

    def test_check_failure_propagates(self, room, noise_free_disc, room_cert):
        bad = StorageCertificate(**{**room_cert.to_dict(), "Q": [[5.0]]})
        with pytest.raises(CheckFailed) as exc:
            st.derive_constants(bad, room, noise_free_disc)
        assert exc.value.condition == "Con_2"


def test_kappa_tilde_from_round_trip():
    kt = st.kappa_tilde_from(0.499, 0.5, 0.1)
    assert math.exp(-kt * 0.1) == pytest.approx(1e-3, rel=1e-12)
    assert kt == pytest.approx(69.0775527898, rel=1e-9)


def test_certificate_json_round_trip(room_cert):
    # to_dict, JSON text and back
    restored = StorageCertificate(**json.loads(json.dumps(room_cert.to_dict())))
    assert restored.to_dict() == room_cert.to_dict()
    assert validate_certificate(restored, 0.1)
