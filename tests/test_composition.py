import math

import numpy as np
import pytest
import scipy.optimize

import stochsym as st
from stochsym.certificates import SstfConstants, StorageCertificate
from stochsym.cli import circular_coupling
from stochsym.errors import DimensionMismatch, StructureMismatch, WeightNotPositive

from conftest import room_certificate, traced_peak

E_TERM = 1e-3  # decay factor matching the reference rooms
A_BLOCK = E_TERM * 0.1 * 0.05**2
D_BLOCK = -E_TERM * 0.1 * 0.25


def scalar_cert(a, d, x12=0.0) -> StorageCertificate:
    return StorageCertificate(
        M_bar=1.0, K=-10.0, P=1.0, Q=0.0, H=0.0, kappa_tilde=69.0, tau=0.1,
        pi=1.0, kappa_bar=0.4, Xbar11=a, Xbar12=x12, Xbar21=x12, Xbar22=d,
    )


class TestBuildXcmp:
    def test_single_subsystem_blocks(self):
        x = st.build_x_cmp([scalar_cert(3.0, -7.0)], [1.0])
        assert np.array_equal(x, np.array([[3.0, 0.0], [0.0, -7.0]]))

    def test_hundred_rooms_structure(self):
        certs = [room_certificate()] * 100
        x = st.build_x_cmp(certs, np.ones(100))
        a = certs[0].Xbar11.item()
        d = certs[0].Xbar22.item()
        expected = np.block([
            [a * np.eye(100), np.zeros((100, 100))],
            [np.zeros((100, 100)), d * np.eye(100)],
        ])
        assert np.array_equal(x, expected)

    def test_weights_scale_linearly(self):
        cert = scalar_cert(2.0, -3.0, x12=0.5)
        assert np.array_equal(st.build_x_cmp([cert], [2.0]),
                              2.0 * st.build_x_cmp([cert], [1.0]))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(WeightNotPositive):
            st.build_x_cmp([scalar_cert(1.0, -1.0)], [0.0])


class TestCompositionalLmi:
    def test_hundred_room_ring(self):
        certs = [room_certificate()] * 100
        x = st.build_x_cmp(certs, np.ones(100))
        res = st.check_compositional_lmi(circular_coupling(100), x)
        assert res.ok
        # closed form: a ||M||^2 + d with ||M|| = 2 for the ring
        assert res.margin == pytest.approx(4 * A_BLOCK + D_BLOCK, rel=1e-9)

    def test_zero_matrix_margin_zero(self):
        res = st.check_compositional_lmi(np.eye(2), np.zeros((4, 4)))
        assert res.ok
        assert res.margin == 0.0

    def test_identity_blocks_violate(self):
        res = st.check_compositional_lmi(np.eye(2), np.eye(4))
        assert not res.ok
        assert res.margin == pytest.approx(2.0)


class TestGershgorin:
    def test_ring_certified(self):
        res = st.gershgorin_fast_check(circular_coupling(100), A_BLOCK, D_BLOCK)
        assert res.ok
        assert res.row_sum == 2.0
        assert res.bound == pytest.approx(4 * A_BLOCK + D_BLOCK, rel=1e-12)

    def test_zero_coupling_any_nonpositive_d(self):
        assert st.gershgorin_fast_check(np.zeros((3, 3)), 1.0, -1e-9).ok

    def test_conservative_bound_inconclusive(self):
        res = st.gershgorin_fast_check(np.eye(2), 1.0, 0.0)
        assert not res.ok  # inconclusive, eigenvalue check would also refuse

    def test_scalar_params_extraction(self):
        certs = [room_certificate()] * 5
        a, d = st.scalar_block_params(certs, np.ones(5))
        assert a == certs[0].Xbar11.item()
        assert d == certs[0].Xbar22.item()

    def test_scalar_params_rejects_coupled_blocks(self):
        with pytest.raises(StructureMismatch):
            st.scalar_block_params([scalar_cert(1.0, -1.0, x12=0.2)], [1.0])

    def test_scalar_params_with_non_dyadic_weight(self):
        # w * x / w does not round-trip in floats; structure must still match
        certs = [room_certificate()] * 4
        a, d = st.scalar_block_params(certs, np.full(4, 3.0))
        assert a == 3.0 * certs[0].Xbar11.item()
        assert d == 3.0 * certs[0].Xbar22.item()

    def test_fast_path_implies_eigen_check(self):
        # gershgorin ok => LMI ok on random scalar-block ring networks;
        # the reverse is deliberately not claimed
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(3, 8))
            a = float(rng.uniform(0, 0.2))
            d = -float(rng.uniform(0, 1.0))
            m = circular_coupling(n)
            fast = st.gershgorin_fast_check(m, a, d)
            certs = [scalar_cert(a, d)] * n
            lmi = st.check_compositional_lmi(m, st.build_x_cmp(certs, np.ones(n)))
            if fast.ok:
                assert lmi.ok


def constants(a=1.0, k=0.5, c=2.0, psi=1e-5) -> SstfConstants:
    return SstfConstants(alpha_coeff=a, kappa=k, rho_ext_slope=c, psi=psi)


class TestComposeSsf:
    def test_hundred_identical_rooms(self):
        cs = [constants(psi=2.50025e-5)] * 100
        net = st.compose_ssf(cs, np.ones(100), mode="stacked",
                             output_maps=[np.eye(1)] * 100)
        assert net.rho_ext_slope == 20.0
        assert net.kappa == 0.5
        assert net.psi == 100 * 2.50025e-5
        assert net.alpha_coeff == 1.0

    def test_singleton_modes_agree(self):
        c = [constants(a=0.7)]
        general = st.compose_ssf(c, [1.0], mode="general")
        stacked = st.compose_ssf(c, [1.0], mode="stacked", output_maps=[np.eye(1)])
        assert general.alpha_coeff == pytest.approx(stacked.alpha_coeff)
        assert general.kappa == stacked.kappa
        assert general.psi == stacked.psi

    def test_two_subsystem_general_alpha(self):
        net = st.compose_ssf([constants(), constants()], [1.0, 1.0], mode="general")
        assert net.alpha_coeff == pytest.approx(0.5, rel=1e-12)

    def test_general_alpha_matches_simplex_oracle(self):
        # brute-force the worst-case split max sum sqrt(s_i / a_i) over the
        # weighted simplex, then invert numerically
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            a = rng.uniform(0.2, 3.0, n)
            mu = rng.uniform(0.2, 3.0, n)
            s_total = float(rng.uniform(0.5, 4.0))

            def neg(v):
                return -np.sum(np.sqrt(np.maximum(v, 0) / a))

            res = scipy.optimize.minimize(
                neg, x0=np.full(n, s_total / np.sum(mu)), method="SLSQP",
                bounds=[(0, None)] * n,
                constraints=[{"type": "eq", "fun": lambda v: np.dot(mu, v) - s_total}],
                options={"maxiter": 500, "ftol": 1e-14},
            )
            alpha_bar = -res.fun
            cs = [constants(a=float(ai)) for ai in a]
            net = st.compose_ssf(cs, mu, mode="general")
            # inversion: alpha(alpha_bar(s)) should recover s
            assert net.alpha(alpha_bar) == pytest.approx(s_total, rel=1e-6)

    def test_slope_matches_sphere_oracle(self):
        # maximize sum mu_i c_i s_i over the nonnegative unit sphere numerically
        rng = np.random.default_rng(10)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            c = rng.uniform(0.0, 3.0, n)
            mu = rng.uniform(0.2, 3.0, n)
            w = mu * c

            def neg(v):
                return -np.dot(w, v)

            res = scipy.optimize.minimize(
                neg, x0=np.full(n, 1.0 / math.sqrt(n)), method="SLSQP",
                bounds=[(0, None)] * n,
                constraints=[{"type": "eq",
                              "fun": lambda v: np.dot(v, v) - 1.0}],
                options={"maxiter": 500, "ftol": 1e-14},
            )
            cs = [constants(c=float(ci)) for ci in c]
            net = st.compose_ssf(cs, mu, mode="general")
            assert net.rho_ext_slope == pytest.approx(-res.fun, abs=1e-6 * (1 + abs(res.fun)))

    def test_kappa_is_max_independent_of_weights(self):
        rng = np.random.default_rng(2)
        kappas = [0.2, 0.45, 0.3]
        cs = [constants(k=k) for k in kappas]
        for _ in range(10):
            mu = rng.uniform(0.1, 5.0, 3)
            net = st.compose_ssf(cs, mu, mode="general")
            assert net.kappa == max(kappas)

    def test_psi_linear_in_components_and_weights(self):
        base = [constants(psi=1e-4), constants(psi=3e-4)]
        mu = np.array([2.0, 5.0])
        net = st.compose_ssf(base, mu, mode="general")
        assert net.psi == pytest.approx(2.0 * 1e-4 + 5.0 * 3e-4, rel=1e-15)
        doubled = [constants(psi=2e-4), constants(psi=6e-4)]
        assert st.compose_ssf(doubled, mu, mode="general").psi == pytest.approx(
            2 * net.psi, rel=1e-15)

    def test_general_mode_no_less_conservative_than_stacked(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            a = float(rng.uniform(0.2, 4.0))
            cs = [constants(a=a)] * n
            mu = np.ones(n)
            g = st.compose_ssf(cs, mu, mode="general")
            s = st.compose_ssf(cs, mu, mode="stacked", output_maps=[np.eye(1)] * n)
            assert g.alpha_coeff <= s.alpha_coeff + 1e-15

    def test_rejects_malformed_duck_typed_constants(self):
        # constants built outside the validated dataclass still get checked
        from types import SimpleNamespace
        from stochsym.errors import NonLinearRho, NonQuadraticAlpha
        bad_rho = SimpleNamespace(alpha_coeff=1.0, kappa=0.5,
                                  rho_ext_slope=float("nan"), psi=0.0)
        with pytest.raises(NonLinearRho):
            st.compose_ssf([bad_rho], [1.0], mode="general")
        bad_alpha = SimpleNamespace(alpha_coeff=-2.0, kappa=0.5,
                                    rho_ext_slope=1.0, psi=0.0)
        with pytest.raises(NonQuadraticAlpha):
            st.compose_ssf([bad_alpha], [1.0], mode="general")

    def test_stacked_mode_requires_square_output(self):
        with pytest.raises(StructureMismatch):
            st.compose_ssf([constants()], [1.0], mode="stacked",
                           output_maps=[np.ones((2, 1))])

    def test_stacked_mode_rank_checks_each_map_of_an_iterator(self):
        # a generator frees each map after its turn, so the singular last
        # map may reuse an earlier one's id; it must still be rank-checked
        n = 10
        maps = (np.eye(2) if i < n - 1 else np.zeros((2, 2)) for i in range(n))
        with pytest.raises(StructureMismatch):
            st.compose_ssf([constants()] * n, np.ones(n), mode="stacked",
                           output_maps=maps)

    def test_composition_result_serializes_with_margin(self):
        certs = [room_certificate()] * 3
        x = st.build_x_cmp(certs, np.ones(3))
        lmi = st.check_compositional_lmi(circular_coupling(3), x)
        net = st.compose_ssf([constants()] * 3, np.ones(3), mode="general")
        res = st.CompositionResult(x_cmp=x, lmi_margin=-lmi.margin, ssf=net, q_tilde=3)
        d = res.to_dict()
        assert d["lmi_margin"] == -lmi.margin
        assert d["q_tilde"] == 3
        assert "x_cmp" in d


def random_supply_cert(rng, p, q) -> StorageCertificate:
    """Certificate with p internal inputs, q internal outputs and dense,
    nonzero coupling blocks Xbar12 and Xbar21 (not each other's transpose)."""
    a = rng.standard_normal((p, p))
    d = rng.standard_normal((q, q))
    return StorageCertificate(
        M_bar=1.0, K=-10.0, P=1.0, Q=0.0, H=0.0, kappa_tilde=69.0, tau=0.1,
        pi=1.0, kappa_bar=0.4, Xbar11=a @ a.T, Xbar12=rng.standard_normal((p, q)),
        Xbar21=rng.standard_normal((q, p)), Xbar22=-(d @ d.T),
    )


class TestBlockNetworkForm:
    @pytest.mark.parametrize("density", [1.0, 0.1])
    def test_matches_dense_triple_product(self, density):
        # 60 x 90 coupling, fully filled or 10% filled
        rng = np.random.default_rng(12)
        n, p, q = 30, 2, 3
        certs = [random_supply_cert(rng, p, q) for _ in range(n)]
        mu = rng.uniform(0.5, 2.0, n)
        m = rng.standard_normal((n * p, n * q)) * (rng.uniform(size=(n * p, n * q)) < density)
        x = st.build_x_cmp(certs, mu)
        stacked = np.vstack([m, np.eye(n * q)])
        dense = stacked.T @ x @ stacked
        want = 0.5 * (dense + dense.T)
        blocks = st.supply_blocks(certs, mu)
        assert blocks.shape == x.shape
        assert np.array_equal(blocks.dense(), x)
        got = st.network_form(m, blocks)
        assert np.array_equal(got, got.T)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

        top = np.linalg.eigvalsh(want)[-1]
        for arg in (x, blocks):  # the dense oracle and the pipeline's blocks
            lmi = st.check_compositional_lmi(m, arg)
            assert lmi.margin == pytest.approx(top, rel=1e-12)

    def test_ring_margin_matches_circulant_spectrum(self):
        # a M^T M + d I with M the ring's adjacency: its eigenvalues are
        # a (2 cos(2 pi k / n))^2 + d, largest at k = n / 2
        n = 400
        cert = room_certificate()
        a, d = cert.Xbar11.item(), cert.Xbar22.item()
        lmi = st.check_compositional_lmi(
            circular_coupling(n), st.supply_blocks([cert] * n, np.ones(n)))
        circulant = max(a * (2 * math.cos(2 * math.pi * k / n)) ** 2 + d
                        for k in range(n))
        assert lmi.ok
        assert lmi.margin == pytest.approx(circulant, rel=1e-12)

    def test_rejects_blocks_of_the_wrong_size(self):
        blocks = st.supply_blocks([scalar_cert(1.0, -1.0)] * 3, np.ones(3))
        with pytest.raises(DimensionMismatch):
            st.check_compositional_lmi(np.eye(4), blocks)


def test_result_without_matrix_keeps_shape():
    net = st.compose_ssf([constants()], [1.0], mode="general")
    res = st.CompositionResult(x_cmp=None, lmi_margin=1.0, ssf=net, q_tilde=3,
                               x_cmp_shape=(6, 6))
    d = res.to_dict()
    assert d["x_cmp_shape"] == [6, 6] and "x_cmp" not in d


def test_compose_stage_never_builds_x_cmp(tmp_path):
    # 400 rooms: X_cmp would be 800 x 800 doubles (5.12 MB); the stage holds
    # the q x q form and a temporary or two of the same size (1.28 MB each)
    import json

    from stochsym import cli

    bundle = cli.load_config(cli.generate_rooms(n=400, out_dir=str(tmp_path)))
    tmp_path.mkdir(exist_ok=True)
    ctx = {"out": tmp_path}
    cli._stage_verify(bundle, ctx)
    x_cmp_bytes = 800 * 800 * 8
    _, peak = traced_peak(cli._stage_compose, bundle, ctx)
    assert peak < x_cmp_bytes
    payload = json.loads((tmp_path / "composition.json").read_text())
    assert payload["x_cmp_shape"] == [800, 800] and "x_cmp" not in payload
