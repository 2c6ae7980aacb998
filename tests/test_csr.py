"""The package's CSR matrix against scipy.sparse and dense numpy.

Products with dense operands must equal scipy's `csr_matrix @ x` bit for
bit (each row summed left to right from +0.0), so the simulator's coupling
and the value iteration's backups are the same numbers scipy gave.
"""
import numpy as np
import pytest
import scipy.sparse

import stochsym as st
from stochsym import csr as csr_mod
from stochsym.cli import circular_coupling
from stochsym.errors import DimensionMismatch


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _random(rng, m, n, density, long_rows=0):
    """A scipy CSR with signed entries, some empty rows and `long_rows` full rows."""
    a = rng.standard_normal((m, n)) * (rng.uniform(size=(m, n)) < density)
    a[rng.choice(m, long_rows, replace=False)] = rng.standard_normal((long_rows, n))
    a[rng.uniform(size=m) < 0.1] = 0.0
    return scipy.sparse.csr_matrix(a)


def _hub(rng, m, n):
    """A scipy CSR whose middle row has an entry in every column and whose
    other rows have one signed entry or none, so every slot past the first
    holds one row."""
    a = np.zeros((m, n))
    rows = np.flatnonzero(rng.uniform(size=m) < 0.8)
    a[rows, rng.integers(n, size=rows.size)] = rng.standard_normal(rows.size)
    a[m // 2] = rng.standard_normal(n)
    return scipy.sparse.csr_matrix(a)


@pytest.mark.parametrize("draw", [1, 4, 32])
@pytest.mark.parametrize("m, n, density, long_rows", [
    (1, 1, 1.0, 0), (7, 5, 0.0, 0), (60, 40, 0.3, 0), (300, 90, 0.05, 3), (40, 500, 0.5, 1),
    pytest.param(200, 60, None, None, id="hub"),
])
def test_dense_products_match_scipy_bit_for_bit(draw, m, n, density, long_rows):
    # rows of one length and of many, the longest ones going first; three
    # random draws of each shape
    rng = np.random.default_rng(m * n + draw)
    ref = _hub(rng, m, n) if density is None else _random(rng, m, n, density, long_rows)
    mat = st.CSR(ref.data, ref.indices, ref.indptr, ref.shape)
    x = rng.standard_normal(n)
    x[::3] = 0.0  # products -0.0 where an entry is negative
    z = rng.standard_normal((n, 9))
    assert np.array_equal(_bits(mat @ x), _bits(ref @ x))
    assert np.array_equal(_bits(mat @ z), _bits(ref @ z))


@pytest.mark.parametrize("n, trials", [(3, 5), (100, 100), (1000, 32)])
def test_coupling_matches_scipy_bit_for_bit(n, trials):
    # the simulator's w = M zeta2, M applied to the room axis of the
    # trial-major (trials, n) zeta2
    m = circular_coupling(n)
    ref = scipy.sparse.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)
    z2 = np.random.default_rng(n).standard_normal((trials, n))
    assert np.array_equal(_bits(m.apply(z2, axis=1)), _bits((ref @ z2.T).T))


@pytest.mark.parametrize("trials", [4, 32])
def test_product_along_any_axis_matches_scipy_bit_for_bit(trials):
    # dense couplings with rows of unequal lengths, so rows go longest
    # first (`order`): a few full rows among sparse ones, and a hub
    rng = np.random.default_rng(11)
    for ref in (_random(rng, 96, 50, 0.1, long_rows=3), _hub(rng, 96, 50)):
        m = st.CSR.from_dense(ref.toarray())
        assert m._slots[0] is not None
        z = rng.standard_normal((trials, 50))
        z[:, ::3] = 0.0  # products -0.0 where an entry is negative
        want = (ref @ z.T).T
        assert np.array_equal(_bits(m.apply(z, axis=1)), _bits(want))
        assert np.array_equal(_bits(m.apply(z, axis=-1)), _bits(want))
        # a stack of trials and substeps, with the rooms last or in the middle
        stack = np.stack([z, 2.0 * z, -z])
        want = np.stack([(ref @ s.T).T for s in stack])
        assert np.array_equal(_bits(m.apply(stack, axis=-1)), _bits(want))
        assert np.array_equal(_bits(m.apply(np.moveaxis(stack, 2, 1), axis=1)),
                              _bits(np.moveaxis(want, 2, 1)))
        with pytest.raises(DimensionMismatch, match="axis 0"):
            m.apply(z, axis=0)


def test_kernel_backup_matches_scipy_bit_for_bit():
    # a Gaussian kernel: rows of different lengths, taken longest first
    from conftest import room_system

    sys_ = room_system()
    grid = st.AbstractionGrid(
        state=st.UniformGrid.cover(sys_.state_box, [0.02]),
        input=st.UniformGrid.cover(sys_.input_box, [5e-4]),
        internal=st.UniformGrid.cover(sys_.internal_box, [2.0]))
    disc = st.DiscretizationSpec(tau=0.1, D_tilde=0.0, R_tilde=0.01)
    k = st.build_stochastic(sys_, disc, grid).kernel
    lens = np.diff(k.indptr)
    assert lens.min() < lens.max()
    ref = scipy.sparse.csr_matrix((k.data, k.indices, k.indptr), shape=k.shape)
    v = np.random.default_rng(2).uniform(size=k.shape[1])
    for _ in range(2):  # the cached slot order serves every call
        assert np.array_equal(_bits(k @ v), _bits(ref @ v))


def test_sparse_algebra_matches_dense():
    rng = np.random.default_rng(4)
    a, b, c = (_random(rng, *shape, 0.2) for shape in ((30, 20), (20, 25), (30, 20)))
    da, db, dc = a.toarray(), b.toarray(), c.toarray()
    a, b, c = (st.CSR(x.data, x.indices, x.indptr, x.shape) for x in (a, b, c))
    assert np.allclose((a @ b).toarray(), da @ db, rtol=1e-13, atol=1e-13)
    assert np.array_equal((a + c).toarray(), da + dc)
    assert np.array_equal(a.T.toarray(), da.T)
    assert np.array_equal((0.5 * a).toarray(), 0.5 * da)
    assert np.array_equal(abs(a).toarray(), np.abs(da))


def test_from_coo_sums_duplicates_and_drops_zeros():
    m = st.CSR.from_coo([1, 0, 1, 1, 0], [2, 1, 0, 2, 0], [1.0, 2.0, 3.0, 4.0, 0.0], (2, 3))
    assert m.indptr.tolist() == [0, 1, 3]
    assert m.indices.tolist() == [1, 0, 2] and m.data.tolist() == [2.0, 3.0, 5.0]


@pytest.mark.parametrize("indices, indptr, match", [
    ([1, 0], [0, 2, 2], "increase strictly"),     # unsorted row
    ([1, 1], [0, 2, 2], "increase strictly"),     # repeated column
    ([0, 3], [0, 1, 2], "columns outside"),       # column out of range
    ([0, 1], [0, 1, 1], "row offsets"),           # offsets do not end at nnz
])
def test_rejects_a_malformed_matrix(indices, indptr, match):
    with pytest.raises(DimensionMismatch, match=match):
        st.CSR([1.0, 2.0], indices, indptr, (2, 3))


def test_rows_may_start_below_where_the_last_one_ended():
    # a row's first column is unrelated to the previous row's last one
    m = st.CSR([1.0, 2.0, 3.0], [1, 2, 0], [0, 2, 2, 3], (3, 3))
    assert m.toarray().tolist() == [[0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [3.0, 0.0, 0.0]]


def test_scipy_input_is_converted_by_duck_typing():
    # unsorted, with a duplicate and an explicit zero: canonical on the way in
    ref = scipy.sparse.csr_matrix(([2.0, 1.0, 0.0, 4.0], [2, 0, 1, 2], [0, 3, 4]),
                                  shape=(2, 3))
    ref.has_sorted_indices = False
    m = csr_mod.as_csr(ref)
    assert np.array_equal(m.toarray(), ref.toarray())
    assert m.indices.tolist() == [0, 2, 2] and m.nnz == 3
    assert csr_mod.as_csr(m) is m
