import logging
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import stochsym as st
from stochsym.errors import InvalidKappa, NegativeInput

# back-solved defect making the reference two-case bound hit 91% success
PSI_HAT_REF = 0.25 * (1.0 - 0.91 ** (1.0 / 12.0))


class TestPsiHat:
    def test_reference_composition(self):
        val = st.psi_hat(20.0, 1e-4, 1.17e-8)
        assert val == pytest.approx(2.0000117e-3, rel=1e-9)

    def test_zero_everything(self):
        assert st.psi_hat(0.0, 123.0, 0.0) == 0.0

    def test_plain_arithmetic(self):
        assert st.psi_hat(2.0, 1.0, 1.0) == 3.0

    def test_rejects_negative(self):
        with pytest.raises(NegativeInput):
            st.psi_hat(-1.0, 0.0, 0.0)

    def test_rejects_nan(self):
        # NaN fails every comparison, so a `< 0` test would let it through
        with pytest.raises(NegativeInput) as exc:
            st.psi_hat(0.0, math.nan, 0.0)
        assert exc.value.name == "nu_hat_sup"


class TestViolationProbability:
    def test_zero_defect_zero_probability(self):
        for t in (0, 1, 7, 1000):
            res = st.violation_probability(0.25, 0.5, 0.0, 0.0, t)
            assert res.violation_bound == 0.0
            assert res.success_bound == 1.0

    def test_reference_ninety_one_percent(self):
        res = st.violation_probability(0.25, 0.5, PSI_HAT_REF, 0.0, 12)
        assert res.regime == "case-1"
        assert res.violation_bound == pytest.approx(0.09, abs=1e-12)
        assert res.success_bound == pytest.approx(0.91, abs=1e-12)

    def test_initial_mismatch_at_threshold(self):
        res = st.violation_probability(0.25, 0.5, 0.0, 0.25, 5)
        assert res.violation_bound == 1.0

    def test_invalid_kappa(self):
        with pytest.raises(InvalidKappa):
            st.violation_probability(1.0, 1.0, 0.1, 0.0, 3)

    def test_negative_input_named(self):
        with pytest.raises(NegativeInput) as exc:
            st.violation_probability(1.0, 0.5, -0.1, 0.0, 3)
        assert exc.value.name == "psi_hat"

    @pytest.mark.parametrize("args, name", [
        ((math.nan, 0.5, 0.1, 0.0, 3), "alpha_of_eps"),
        ((1.0, 0.5, math.nan, 0.0, 3), "psi_hat"),
        ((1.0, 0.5, 0.1, math.nan, 3), "v0"),
    ])
    def test_nan_input_named(self, args, name):
        # a NaN defect or v0 used to give a violation bound of 0
        with pytest.raises(NegativeInput) as exc:
            st.violation_probability(*args)
        assert exc.value.name == name

    def test_both_branches_reported_at_boundary(self):
        # alpha(eps) == psi_hat / kappa: strict tie goes to case-1 and both
        # branch values are visible (they coincide here, but no continuity
        # is asserted in general)
        alpha, kappa = 0.2, 0.5
        ph = alpha * kappa
        res = st.violation_probability(alpha, kappa, ph, 0.03, 7)
        assert res.regime == "case-1"
        assert math.isfinite(res.case1) and math.isfinite(res.case2)

    def test_clamping_logged(self, caplog):
        with caplog.at_level(logging.INFO, logger="stochsym.bounds"):
            res = st.violation_probability(1e-6, 0.5, 10.0, 0.0, 3)
        assert res.violation_bound == 1.0
        assert res.clamped
        assert any("clamped" in r.message for r in caplog.records)

    @settings(max_examples=120, deadline=None)
    @given(
        alpha=hst.floats(1e-3, 10.0),
        kappa=hst.floats(0.01, 0.99),
        ph=hst.floats(0.0, 1.0),
        v0=hst.floats(0.0, 1.0),
        t=hst.integers(0, 50),
    )
    def test_monotonicity_within_regime(self, alpha, kappa, ph, v0, t):
        base = st.violation_probability(alpha, kappa, ph, v0, t)
        up_t = st.violation_probability(alpha, kappa, ph, v0, t + 1)
        if up_t.regime == base.regime:
            assert up_t.violation_bound >= base.violation_bound - 1e-12
        up_v = st.violation_probability(alpha, kappa, ph, v0 * 1.5 + 1e-6, t)
        if up_v.regime == base.regime:
            assert up_v.violation_bound >= base.violation_bound - 1e-12
        up_p = st.violation_probability(alpha, kappa, ph * 1.5 + 1e-9, v0, t)
        if up_p.regime == base.regime:
            assert up_p.violation_bound >= base.violation_bound - 1e-12
        up_a = st.violation_probability(alpha * 1.5, kappa, ph, v0, t)
        if up_a.regime == base.regime:
            assert up_a.violation_bound <= base.violation_bound + 1e-12

    def test_always_within_unit_interval(self):
        import numpy as np
        rng = np.random.default_rng(0)
        for _ in range(500):
            res = st.violation_probability(
                float(rng.uniform(1e-4, 5)), float(rng.uniform(0.01, 0.99)),
                float(rng.uniform(0, 5)), float(rng.uniform(0, 5)),
                int(rng.integers(0, 40)))
            assert 0.0 <= res.violation_bound <= 1.0


def test_closeness_bound_serialization():
    b = st.closeness_bound(0.5, 0.25, 0.5, PSI_HAT_REF, 0.0, 12)
    d = b.to_dict()
    assert set(d) == {"epsilon", "horizon", "psi_hat", "v0", "regime",
                      "violation_bound", "success_bound"}
    assert d["violation_bound"] == pytest.approx(0.09, abs=1e-12)
