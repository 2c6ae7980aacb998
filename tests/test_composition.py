import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
import scipy.sparse.linalg

import stochsym as st
from stochsym.certificates import SstfConstants, StorageCertificate
from stochsym.cli import circular_coupling
from stochsym.errors import DimensionMismatch, WeightNotPositive

from conftest import room_certificate, traced_peak

E_TERM = 1e-3  # decay factor matching the reference rooms
A_BLOCK = E_TERM * 0.1 * 0.05**2
D_BLOCK = -E_TERM * 0.1 * 0.25


def scalar_cert(a, d, x12=0.0) -> StorageCertificate:
    return StorageCertificate(
        M_bar=1.0, K=-10.0, P=1.0, Q=0.0, H=0.0, kappa_tilde=69.0,
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


def scalar_blocks(a, d, n) -> st.SupplyBlocks:
    """Unit-weight blocks of n identical scalar subsystems (a I, 0, 0, d I)."""
    return st.supply_blocks([scalar_cert(a, d)] * n, np.ones(n))


class TestCompositionalLmi:
    def test_hundred_room_ring(self):
        blocks = st.supply_blocks([room_certificate()] * 100, np.ones(100))
        res = st.check_compositional_lmi(st.network_form(circular_coupling(100), blocks))
        assert res.ok
        # closed form: a ||M||^2 + d with ||M|| = 2 for the ring
        assert res.margin == pytest.approx(4 * A_BLOCK + D_BLOCK, rel=1e-9)

    def test_zero_matrix_margin_zero(self):
        res = st.check_compositional_lmi(
            st.network_form(np.eye(2), scalar_blocks(0.0, 0.0, 2)))
        assert res.ok
        assert res.margin == 0.0

    def test_identity_blocks_violate(self):
        res = st.check_compositional_lmi(
            st.network_form(np.eye(2), scalar_blocks(1.0, 1.0, 2)))
        assert not res.ok
        assert res.margin == pytest.approx(2.0)

    def test_weighted_ring_bisects_to_dense_top(self):
        # mu from U[0.5, 1.5]: 1^T F 1 / n is below the top eigenvalue and
        # the Gershgorin bound above it, so the bracket has to be bisected
        n = 240
        mu = np.random.default_rng(5).uniform(0.5, 1.5, n)
        form = st.network_form(circular_coupling(n),
                               st.supply_blocks([room_certificate()] * n, mu))
        top = np.linalg.eigvalsh(form.toarray())[-1]
        lmi = st.check_compositional_lmi(form)
        assert lmi.factorizations > 0
        assert st.gershgorin_fast_check(form).bound > lmi.margin
        assert lmi.ok and not lmi.violated
        assert lmi.margin >= top
        assert lmi.margin == pytest.approx(top, rel=1e-12)
        assert lmi.lower <= top <= lmi.margin

    def test_pivoted_factorization_is_inconclusive(self, monkeypatch):
        # the hub's Gershgorin bound (2) is not conclusive; a factorization
        # that exchanged rows proves nothing, so the bracket stays at
        # [1^T F 1 / n, bound] = [-1, 2] and the verdict neither passes nor fails
        real = scipy.sparse.linalg.splu

        def pivoted(a, **kwargs):
            lu = real(a, **kwargs)
            return SimpleNamespace(perm_r=lu.perm_r[::-1].copy(), perm_c=lu.perm_c, U=lu.U)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", pivoted)
        form = st.network_form(hub_coupling(4), scalar_blocks(1.0, -2.0, 4))
        lmi = st.check_compositional_lmi(form)
        assert not lmi.ok and not lmi.violated
        assert (lmi.lower, lmi.margin) == (-1.0, 2.0)
        assert lmi.factorizations == 1


def hub_coupling(n) -> np.ndarray:
    """Every internal input reads room 0's output: a non-symmetric star."""
    m = np.zeros((n, n))
    m[:, 0] = 1.0
    return m


def random_coupling(rng, kind, p, q) -> np.ndarray:
    if kind == "ring":
        return circular_coupling(p).toarray()
    if kind == "hub":
        return hub_coupling(p) * rng.uniform(0.5, 2.0)
    mask = rng.uniform(size=(p, q)) < 0.4
    if kind == "nonnegative":
        return rng.uniform(0.0, 2.0, (p, q)) * mask
    return rng.standard_normal((p, q)) * mask  # random-sign, rectangular


class TestGershgorin:
    def test_ring_certified(self):
        res = st.gershgorin_fast_check(st.network_form(
            circular_coupling(100), scalar_blocks(A_BLOCK, D_BLOCK, 100)))
        assert res.ok
        assert res.bound == pytest.approx(4 * A_BLOCK + D_BLOCK, rel=1e-12)

    def test_thousand_room_ring_bound_is_circulant_value(self):
        # the ring's form a M^T M + d I has diagonal 2a + d and two off-diagonal
        # entries a per row, so the disc edge 4a + d is also its top eigenvalue
        cert = room_certificate()
        a, d = cert.Xbar11.item(), cert.Xbar22.item()
        res = st.gershgorin_fast_check(st.network_form(
            circular_coupling(1000), st.supply_blocks([cert] * 1000, np.ones(1000))))
        assert res.ok
        assert res.bound == pytest.approx(4 * a + d, rel=1e-12)

    def test_zero_coupling_any_nonpositive_d(self):
        assert st.gershgorin_fast_check(
            st.network_form(np.zeros((3, 3)), scalar_blocks(1.0, -1e-9, 3))).ok

    def test_conservative_bound_inconclusive(self):
        res = st.gershgorin_fast_check(
            st.network_form(np.eye(2), scalar_blocks(1.0, 0.0, 2)))
        assert not res.ok  # inconclusive, eigenvalue check would also refuse

    def test_sparse_row_sums_match_dense_formula(self):
        # the disc edges of the form, summed in O(nnz), against dense numpy
        rng = np.random.default_rng(8)
        n, p, q = 30, 2, 3
        dense = rng.standard_normal((n * p, n * q)) * (rng.uniform(size=(n * p, n * q)) < 0.1)
        blocks = st.supply_blocks([random_supply_cert(rng, p, q) for _ in range(n)],
                                  rng.uniform(0.5, 2.0, n))
        res = st.gershgorin_fast_check(
            st.network_form(scipy.sparse.csr_matrix(dense), blocks))
        form = st.network_form(dense, blocks).toarray()
        off = np.sum(np.abs(form), axis=1) - np.abs(np.diag(form))
        want = np.max(np.diag(form) + off)
        assert res.bound == pytest.approx(want, rel=1e-12)

    def test_hub_is_inconclusive(self):
        # a row-sum bound on ||M|| reads the hub (column sums 4, row sums 1)
        # as certified; the form's top eigenvalue is 4 - 2 = +2
        m = hub_coupling(4)
        blocks = scalar_blocks(1.0, -2.0, 4)
        form = st.network_form(m, blocks)
        fast = st.gershgorin_fast_check(form)
        lmi = st.check_compositional_lmi(form)
        assert lmi.margin == pytest.approx(2.0) and not lmi.ok
        assert not fast.ok and fast.bound >= lmi.margin

    @pytest.mark.parametrize("kind", ["ring", "hub", "nonnegative", "random-sign"])
    def test_bound_never_below_margin(self, kind):
        # Gershgorin's theorem holds for every coupling and block structure:
        # the bound is >= the top eigenvalue, and an ok check implies an ok LMI
        rng = np.random.default_rng(["ring", "hub", "nonnegative", "random-sign"].index(kind))
        conclusive = 0
        for _ in range(25):
            n = int(rng.integers(3, 9))
            p, q = (1, 1)
            if kind not in ("ring", "hub"):
                p, q = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            m = random_coupling(rng, kind, n * p, n * q)
            certs = [random_supply_cert(rng, p, q, scale=float(rng.uniform(0.0, 0.3)),
                                        shift=q) for _ in range(n)]
            blocks = st.supply_blocks(certs, rng.uniform(0.5, 2.0, n))
            form = st.network_form(m, blocks)
            fast = st.gershgorin_fast_check(form)
            lmi = st.check_compositional_lmi(form)
            assert fast.bound >= lmi.margin - lmi.tol
            if fast.ok:
                conclusive += 1
                assert lmi.ok
        assert conclusive > 0

    def test_heterogeneous_ring_is_conclusive(self):
        # two parameter sets alternate around the ring; each row's disc edge
        # is 2 (a_left + a_right) + d_i = 4 a_other + d_i < 0
        n = 10
        certs = [scalar_cert(A_BLOCK, D_BLOCK), scalar_cert(2 * A_BLOCK, 1.5 * D_BLOCK)] * (n // 2)
        blocks = st.supply_blocks(certs, np.ones(n))
        form = st.network_form(circular_coupling(n), blocks)
        fast = st.gershgorin_fast_check(form)
        lmi = st.check_compositional_lmi(form)
        assert fast.ok and lmi.ok
        assert fast.bound == pytest.approx(max(8 * A_BLOCK + D_BLOCK,
                                               4 * A_BLOCK + 1.5 * D_BLOCK), rel=1e-12)
        assert fast.bound >= lmi.margin

    def test_fast_path_implies_eigen_check(self):
        # gershgorin ok => LMI ok on random scalar-block ring networks;
        # the reverse is deliberately not claimed
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(3, 8))
            a = float(rng.uniform(0, 0.2))
            d = -float(rng.uniform(0, 1.0))
            m = circular_coupling(n)
            blocks = scalar_blocks(a, d, n)
            form = st.network_form(m, blocks)
            fast = st.gershgorin_fast_check(form)
            lmi = st.check_compositional_lmi(form)
            if fast.ok:
                assert lmi.ok


def constants(a=1.0, k=0.5, c=2.0, psi=1e-5) -> SstfConstants:
    return SstfConstants(alpha_coeff=a, kappa=k, rho_ext_slope=c, psi=psi)


class TestComposeSsf:
    def test_hundred_identical_rooms(self):
        cs = [constants(psi=2.50025e-5)] * 100
        net = st.compose_ssf(cs, np.ones(100))
        assert net.rho_ext_slope == 20.0
        assert net.kappa == 0.5
        assert net.psi == 100 * 2.50025e-5
        assert net.alpha_coeff == 1.0

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
            net = st.compose_ssf(cs, mu)
            assert net.rho_ext_slope == pytest.approx(-res.fun, abs=1e-6 * (1 + abs(res.fun)))

    def test_alpha_is_the_least_weighted_coefficient(self):
        net = st.compose_ssf([constants(a=2.0), constants(a=0.5)], [1.0, 3.0])
        assert net.alpha_coeff == 1.5
        assert net.alpha(2.0) == 6.0

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
    def test_alpha_bounds_the_storage_for_any_output_map(self, shape):
        # the network storage V = sum_i mu_i d_i^T M_bar_i d_i, for errors
        # d_i = x_i - P_i xh_i, is at least alpha(||e||) at every point, where
        # e stacks e_i = C1_i d_i and a_i = lam_min(M_bar_i) / lam_max(C1_i^T C1_i).
        # Each SPD M_bar_i has its least eigenvector along C1_i's top right
        # singular vector, so a room's error there meets its bound exactly
        rng = np.random.default_rng(41)
        n = shape[1]
        maps = [rng.normal(size=shape) for _ in range(3)]
        tops = [np.linalg.svd(c)[2] for c in maps]  # rows: right singular vectors
        m_bars = [vt.T @ np.diag(np.sort(rng.uniform(0.1, 3.0, n))) @ vt for vt in tops]
        cs = [constants(a=np.linalg.eigvalsh(m)[0] / np.linalg.eigvalsh(c.T @ c)[-1])
              for m, c in zip(m_bars, maps)]
        group_of = np.array([0, 1, 2, 1, 0, 2, 2])
        mu = rng.uniform(0.5, 2.0, group_of.size)
        net = st.compose_ssf(cs, mu, group_of=group_of)
        least = int(np.argmin(mu * np.array([c.alpha_coeff for c in cs])[group_of]))
        worst = np.zeros((group_of.size, n))
        worst[least] = 2.0 * tops[group_of[least]][0]
        ratios = []
        for k in range(2000):
            d = rng.normal(size=(group_of.size, n)) * rng.uniform(0.0, 3.0, (group_of.size, 1))
            if k % 2:  # the error in one room only
                d[np.arange(group_of.size) != rng.integers(group_of.size)] = 0.0
            for x in (d, worst):
                v = sum(mu[i] * x[i] @ m_bars[g] @ x[i] for i, g in enumerate(group_of))
                e = np.concatenate([maps[g] @ x[i] for i, g in enumerate(group_of)])
                ratios.append(net.alpha(float(np.linalg.norm(e))) / v)
        assert max(ratios) == pytest.approx(1.0, rel=1e-12)  # V >= alpha, and tight

    def test_kappa_is_max_independent_of_weights(self):
        rng = np.random.default_rng(2)
        kappas = [0.2, 0.45, 0.3]
        cs = [constants(k=k) for k in kappas]
        for _ in range(10):
            mu = rng.uniform(0.1, 5.0, 3)
            net = st.compose_ssf(cs, mu)
            assert net.kappa == max(kappas)

    def test_psi_linear_in_components_and_weights(self):
        base = [constants(psi=1e-4), constants(psi=3e-4)]
        mu = np.array([2.0, 5.0])
        net = st.compose_ssf(base, mu)
        assert net.psi == pytest.approx(2.0 * 1e-4 + 5.0 * 3e-4, rel=1e-15)
        doubled = [constants(psi=2e-4), constants(psi=6e-4)]
        assert st.compose_ssf(doubled, mu).psi == pytest.approx(
            2 * net.psi, rel=1e-15)

    def test_rejects_malformed_duck_typed_constants(self):
        # constants built outside the validated dataclass still get checked
        from types import SimpleNamespace
        from stochsym.errors import NonLinearRho, NonQuadraticAlpha
        bad_rho = SimpleNamespace(alpha_coeff=1.0, kappa=0.5,
                                  rho_ext_slope=float("nan"), psi=0.0)
        with pytest.raises(NonLinearRho):
            st.compose_ssf([bad_rho], [1.0])
        bad_alpha = SimpleNamespace(alpha_coeff=-2.0, kappa=0.5,
                                    rho_ext_slope=1.0, psi=0.0)
        with pytest.raises(NonQuadraticAlpha):
            st.compose_ssf([bad_alpha], [1.0])

    def test_composition_result_serializes_with_margin(self, tmp_path):
        bundle, ctx, payload = compose_stage_payload(tmp_path, n=3)
        lmi = st.check_compositional_lmi(st.network_form(bundle.ic.M, st.supply_blocks(
            bundle.certs, bundle.ic.mu, bundle.ic.group_of)))
        assert payload["lmi_margin"] == -lmi.margin
        assert payload["q_tilde"] == 3
        assert payload["x_cmp_shape"] == [6, 6] and "x_cmp" not in payload


def random_supply_cert(rng, p, q, scale=1.0, shift=0.0) -> StorageCertificate:
    """Certificate with p internal inputs, q internal outputs and dense,
    nonzero coupling blocks Xbar12 and Xbar21 (not each other's transpose);
    `scale` multiplies Xbar11 and the coupling blocks, `shift` is taken off
    the diagonal of Xbar22."""
    a = rng.standard_normal((p, p))
    d = rng.standard_normal((q, q))
    return StorageCertificate(
        M_bar=1.0, K=-10.0, P=1.0, Q=0.0, H=0.0, kappa_tilde=69.0,
        pi=1.0, kappa_bar=0.4, Xbar11=scale * (a @ a.T),
        Xbar12=scale * rng.standard_normal((p, q)),
        Xbar21=scale * rng.standard_normal((q, p)), Xbar22=-(d @ d.T) - shift * np.eye(q),
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
        got = st.network_form(m, blocks).toarray()
        assert np.array_equal(got, got.T)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

        top = np.linalg.eigvalsh(want)[-1]
        lmi = st.check_compositional_lmi(st.network_form(m, blocks))
        assert lmi.margin == pytest.approx(top, rel=1e-12)

    def test_ring_margin_matches_circulant_spectrum(self):
        # a M^T M + d I with M the ring's adjacency: its eigenvalues are
        # a (2 cos(2 pi k / n))^2 + d, largest at k = n / 2
        n = 400
        cert = room_certificate()
        a, d = cert.Xbar11.item(), cert.Xbar22.item()
        lmi = st.check_compositional_lmi(st.network_form(
            circular_coupling(n), st.supply_blocks([cert] * n, np.ones(n))))
        circulant = max(a * (2 * math.cos(2 * math.pi * k / n)) ** 2 + d
                        for k in range(n))
        assert lmi.ok
        assert lmi.margin == pytest.approx(circulant, rel=1e-12)

    def test_rejects_blocks_of_the_wrong_size(self):
        blocks = st.supply_blocks([scalar_cert(1.0, -1.0)] * 3, np.ones(3))
        with pytest.raises(DimensionMismatch):
            st.network_form(np.eye(4), blocks)


def compose_stage_payload(tmp_path, n):
    """Run verify and compose on an n-room ring; return the bundle, the stage
    context and the composition.json it wrote."""
    import json

    from stochsym import cli

    bundle = cli.load_config(cli.generate_rooms(n=n, out_dir=str(tmp_path)))
    ctx = {"out": tmp_path}
    cli._stage_verify(bundle, ctx)
    cli._stage_compose(bundle, ctx)
    return bundle, ctx, json.loads((tmp_path / "composition.json").read_text())


def test_result_without_matrix_keeps_shape(tmp_path):
    _, _, payload = compose_stage_payload(tmp_path, n=5)
    assert payload["x_cmp_shape"] == [10, 10] and "x_cmp" not in payload


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
    assert payload["q_tilde"] == 400
    assert payload["ssf"] == ctx["ssf"].to_dict()
    lmi = st.check_compositional_lmi(st.network_form(bundle.ic.M, st.supply_blocks(
        bundle.certs, bundle.ic.mu, bundle.ic.group_of)))
    assert payload["lmi_margin"] == -lmi.margin == -payload["lmi_bracket"][1] > 0
    assert payload["gershgorin"]["ok"] and set(payload["gershgorin"]) == {"ok", "bound"}


class TestGroupIndex:
    """Group-indexed assembly against the per-room reference, bit for bit:
    one object per group plus `group_of` must equal the same objects listed
    once per room (every room its own group)."""

    GROUP_OF = np.array([2, 0, 1, 0, 2, 2, 1, 0])

    def test_supply_blocks_match_per_room_reference(self):
        rng = np.random.default_rng(31)
        certs = [random_supply_cert(rng, p, q) for p, q in ((1, 2), (2, 1), (3, 3))]
        mu = rng.uniform(0.5, 2.0, self.GROUP_OF.size)
        grouped = st.supply_blocks(certs, mu, self.GROUP_OF)
        per_room = st.supply_blocks([certs[g] for g in self.GROUP_OF], mu)
        for name in ("x11", "x12", "x21", "x22"):
            a, b = getattr(grouped, name), getattr(per_room, name)
            assert a.shape == b.shape
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(a, part), getattr(b, part)), (name, part)
        assert np.array_equal(st.build_x_cmp(certs, mu, self.GROUP_OF),
                              st.build_x_cmp([certs[g] for g in self.GROUP_OF], mu))

    # "general": the rooms of a group lie anywhere in the network;
    # "stacked": the rooms of each group are contiguous, in group order
    @pytest.mark.parametrize("layout", ["general", "stacked"])
    def test_compose_ssf_matches_per_room_reference(self, layout):
        group_of = self.GROUP_OF if layout == "general" else np.sort(self.GROUP_OF)
        rng = np.random.default_rng(32)
        cs = [constants(a=float(rng.uniform(0.2, 3.0)), k=float(rng.uniform(0.1, 0.9)),
                        c=float(rng.uniform(0.0, 3.0)), psi=float(rng.uniform(0, 1e-3)))
              for _ in range(3)]
        mu = rng.uniform(0.5, 2.0, self.GROUP_OF.size)
        grouped = st.compose_ssf(cs, mu, group_of=group_of)
        per_room = st.compose_ssf([cs[g] for g in group_of], mu)
        assert grouped.to_dict() == per_room.to_dict()

    def test_group_index_is_checked(self):
        with pytest.raises(DimensionMismatch, match="group_of"):
            st.supply_blocks([room_certificate()] * 2, np.ones(3), [0, 0, 0])
        with pytest.raises(DimensionMismatch, match="group_of"):
            st.compose_ssf([constants()], np.ones(2), group_of=[0, 1])
