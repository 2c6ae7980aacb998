import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as hst

import stochsym as st
from stochsym.errors import (
    DimensionMismatch,
    EmptyBox,
    NonFiniteEntry,
    NotWellPosed,
    WeightNotPositive,
)

from conftest import room_certificate, room_system


def boxes(n):
    return st.Box(np.zeros(n), np.ones(n))


def test_validate_room_system_ok(room):
    assert st.validate_system(room)


def test_validate_inconsistent_shapes():
    sys_ = st.AffineSystem(
        A=np.eye(2), B=np.ones((3, 1)), C1=np.ones((1, 2)), C2=np.ones((1, 2)),
        D=np.ones((2, 1)), G=np.ones((2, 1)), b=np.zeros(2),
        state_box=boxes(2), input_box=boxes(1), internal_box=boxes(1),
    )
    with pytest.raises(DimensionMismatch) as exc:
        st.validate_system(sys_)
    assert exc.value.field == "B"


def test_validate_inverted_state_box():
    sys_ = room_system()
    bad = st.AffineSystem(
        A=sys_.A, B=sys_.B, C1=sys_.C1, C2=sys_.C2, D=sys_.D, G=sys_.G, b=sys_.b,
        state_box=st.Box([21.0], [20.0]), input_box=sys_.input_box,
        internal_box=sys_.internal_box,
    )
    with pytest.raises(EmptyBox) as exc:
        st.validate_system(bad)
    assert exc.value.field == "state_box"


def test_validate_nonfinite_entry(room):
    bad = st.AffineSystem(
        A=np.nan, B=room.B, C1=room.C1, C2=room.C2, D=room.D, G=room.G, b=room.b,
        state_box=room.state_box, input_box=room.input_box,
        internal_box=room.internal_box,
    )
    with pytest.raises(NonFiniteEntry) as exc:
        st.validate_system(bad)
    assert exc.value.field == "A"


def test_box_linear_image_interval_arithmetic():
    box = st.Box([-1.0, 2.0], [1.0, 3.0])
    img = box.linear_image(np.array([[1.0, -2.0]]))
    # x in [-1,1], y in [2,3] -> x - 2y in [-7, -3]
    assert img.lower == pytest.approx([-7.0])
    assert img.upper == pytest.approx([-3.0])


def test_box_linear_image_of_sparse_map_matches_dense_formula():
    rng = np.random.default_rng(7)
    dense = rng.standard_normal((80, 120)) * (rng.uniform(size=(80, 120)) < 0.1)
    lower = rng.uniform(-5.0, 5.0, 120)
    box = st.Box(lower, lower + rng.uniform(0.0, 3.0, 120))
    img = box.linear_image(scipy.sparse.csr_matrix(dense))
    c, r = dense @ box.center, np.abs(dense) @ box.radius
    scale = np.max(np.abs(c) + r)
    assert np.max(np.abs(img.lower - (c - r))) <= 1e-12 * scale
    assert np.max(np.abs(img.upper - (c + r))) <= 1e-12 * scale


def ring(n):
    m = np.zeros((n, n))
    for i in range(n):
        m[i, (i - 1) % n] = m[i, (i + 1) % n] = 1.0
    return m


def _ic(m, dims):
    return st.InterconnectionSpec(M=m, mu=np.ones(len(dims)), subsystem_dims=dims)


def test_well_posed_ring_by_hand():
    # every coupled input is the sum of two neighbor outputs: [20,21]+[20,21]=[40,42]
    ic = _ic(ring(3), [(1, 1, 1, 1)] * 3)
    y2 = [st.Box([20.0], [21.0])] * 3
    w = [st.Box([40.0], [42.0])] * 3
    assert st.check_well_posed(ic, y2, w)


def test_well_posed_identity_inclusion():
    ic = _ic(np.eye(2), [(1, 1, 1, 1)] * 2)
    box = [st.Box([-3.0], [5.0])] * 2
    assert st.check_well_posed(ic, box, box)


def test_well_posed_scaled_identity_fails_first_component():
    ic = _ic(2.0 * np.eye(2), [(1, 1, 1, 1)] * 2)
    box = [st.Box([0.0], [1.0])] * 2
    with pytest.raises(NotWellPosed) as exc:
        st.check_well_posed(ic, box, box)
    assert exc.value.component == 0


@settings(max_examples=60, deadline=None)
@given(
    lo=hst.floats(-5, 5),
    width=hst.floats(0.1, 4),
    shrink=hst.floats(0, 0.04),
    grow=hst.floats(0, 3),
)
def test_well_posed_monotone_in_boxes(lo, width, shrink, grow):
    # shrinking outputs or enlarging inputs never flips ok -> violated
    ic = _ic(ring(3), [(1, 1, 1, 1)] * 3)
    y2 = st.Box([lo], [lo + width])
    image_lo, image_hi = 2 * lo, 2 * (lo + width)
    w = st.Box([image_lo - 0.5], [image_hi + 0.5])
    assert st.check_well_posed(ic, [y2] * 3, [w] * 3)
    y2_small = st.Box([lo + shrink * width], [lo + width - shrink * width])
    w_big = st.Box([image_lo - 0.5 - grow], [image_hi + 0.5 + grow])
    assert st.check_well_posed(ic, [y2_small] * 3, [w_big] * 3)


@settings(max_examples=40, deadline=None)
@given(
    lo=hst.lists(hst.floats(-100, 100), min_size=1, max_size=3),
    width=hst.lists(hst.floats(0, 50), min_size=3, max_size=3),
)
def test_identity_coupling_always_well_posed(lo, width):
    dim = len(lo)
    box = st.Box(lo, [v + w for v, w in zip(lo, width[:dim])])
    ic = _ic(np.eye(dim), [(dim, dim, dim, dim)])
    assert st.check_well_posed(ic, [box], [box])


def test_interconnection_rejects_nonpositive_weight():
    with pytest.raises(WeightNotPositive):
        st.InterconnectionSpec(M=np.eye(2), mu=[1.0, 0.0],
                               subsystem_dims=[(1, 1, 1, 1)] * 2)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_every_weight_consumer_rejects_a_weight_that_is_not_finite_positive(bad):
    mu = [1.0, bad, 1.0]
    with pytest.raises(WeightNotPositive, match="weight 1 "):
        st.InterconnectionSpec(M=np.eye(3), mu=mu, subsystem_dims=[(1, 1, 1, 1)] * 3)
    with pytest.raises(WeightNotPositive):
        st.supply_blocks([room_certificate()] * 3, mu)
    with pytest.raises(WeightNotPositive):
        st.compose_ssf([st.SstfConstants(1.0, 0.5, 1.0, 0.0)] * 3, mu)


def test_interconnection_rejects_wrong_coupling_shape():
    with pytest.raises(DimensionMismatch):
        st.InterconnectionSpec(M=np.eye(3), mu=[1.0, 1.0],
                               subsystem_dims=[(1, 1, 1, 1)] * 2)


@pytest.mark.parametrize("make", [
    lambda m: m.tolist(), np.asarray, scipy.sparse.csr_matrix, scipy.sparse.coo_matrix,
    lambda m: scipy.sparse.csc_matrix(m.astype(np.int64)),
])
def test_interconnection_stores_coupling_as_float_csr(make):
    m = ring(4)
    ic = _ic(make(m), [(1, 1, 1, 1)] * 4)
    assert isinstance(ic.M, st.CSR)
    assert ic.M.dtype == np.float64 and ic.M.nnz == 8
    assert np.array_equal(ic.M.toarray(), m)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("make", [np.asarray, scipy.sparse.csr_matrix])
def test_interconnection_rejects_non_finite_coupling(bad, make):
    m = ring(3)
    m[0, 1] = bad
    with pytest.raises(NonFiniteEntry) as exc:
        _ic(make(m), [(1, 1, 1, 1)] * 3)
    assert exc.value.field == "M"
