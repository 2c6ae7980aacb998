import csv
import dataclasses
import json
import math
import types
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.sparse
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as hst

import stochsym as st
from stochsym import abstraction as abst
from stochsym.errors import (
    DimensionMismatch,
    GridTooCoarse,
    NonDiagonalNoise,
    RowMassError,
)

from conftest import room_system, traced_peak


def grid_1d(lo=20.0, hi=21.0, w=0.1):
    return st.UniformGrid.cover(st.Box([lo], [hi]), [w])


def abstraction_grid(sys_, state_w=0.1, input_box=None, input_w=0.1):
    state = st.UniformGrid.cover(sys_.state_box, [state_w] * sys_.n)
    box = input_box if input_box is not None else sys_.input_box
    inp = st.UniformGrid.cover(box, [input_w] * box.dim)
    internal = None
    if sys_.p:
        internal = st.UniformGrid.cover(sys_.internal_box, sys_.internal_box.widths)
    return st.AbstractionGrid(state=state, input=inp, internal=internal)


class TestQuantizer:
    def test_interior_point(self):
        q = st.quantize(grid_1d(), [20.07])
        assert q.index == 0
        assert q.representative == pytest.approx([20.05])

    def test_boundary_goes_to_upper_cell(self):
        assert st.quantize(grid_1d(), [20.1]).index == 1

    def test_grid_top_edge_stays_inside(self):
        q = st.quantize(grid_1d(), [21.0])
        assert q.index == 9

    def test_outside_maps_to_sink(self):
        g = grid_1d()
        q = st.quantize(g, [21.5])
        assert q.outside
        assert q.index == g.n_points

    def test_2d_worst_case_radius_sampling_oracle(self):
        # brute-force the quantization radius over random points: never more
        # than half the cell diagonal, always within delta
        g = st.UniformGrid.cover(st.Box([0.0, 0.0], [1.0, 1.0]), [0.1, 0.1])
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.0, 1.0, size=(4000, 2))
        worst = 0.0
        for x in pts:
            q = st.quantize(g, x)
            worst = max(worst, float(np.linalg.norm(q.representative - x)))
        half_diag = 0.5 * math.sqrt(2) * 0.1
        assert worst <= half_diag + 1e-12
        assert worst <= g.delta

    @settings(max_examples=80, deadline=None)
    @given(x=hst.lists(hst.floats(0.0, 1.0), min_size=2, max_size=2))
    def test_fuzz_within_delta(self, x):
        g = st.UniformGrid.cover(st.Box([0.0, 0.0], [1.0, 1.0]), [0.07, 0.13])
        q = st.quantize(g, x)
        assert not q.outside
        assert np.linalg.norm(q.representative - np.asarray(x)) <= g.delta


class TestDelta:
    def test_scalar(self):
        assert grid_1d(w=0.1).delta == pytest.approx(0.1)

    def test_square_cell_diagonal(self):
        g = st.UniformGrid.cover(st.Box([0, 0], [1, 1]), [0.1, 0.1])
        assert g.delta == pytest.approx(0.1 * math.sqrt(2))

    def test_three_dims(self):
        g = st.UniformGrid.cover(st.Box([0, 0, 0], [1, 1, 1]), [0.2, 0.3, 0.4])
        assert g.delta == pytest.approx(math.sqrt(0.04 + 0.09 + 0.16))


class TestNdtr:
    # the package's normal CDF against scipy.special.ndtr, which is Cephes'
    def test_matches_scipy(self):
        import scipy.special

        x = np.concatenate([np.linspace(-40.0, 10.0, 1_000_001), [0.0, -0.0]])
        got, want = abst.ndtr(x), scipy.special.ndtr(x)
        # exactly 0 or 1 wherever scipy's is; relative 1e-13 down to 1e-300
        exact = (want == 0.0) | (want == 1.0)
        assert np.count_nonzero(want == 0.0) > 1000 and np.count_nonzero(want == 1.0) > 1000
        assert np.array_equal(got[exact], want[exact])
        normal = want >= 1e-300
        assert np.max(np.abs(got[normal] - want[normal]) / want[normal]) <= 1e-13

    def test_limits_and_nan(self):
        got = abst.ndtr(np.array([-np.inf, -0.0, 0.0, np.inf, np.nan]))
        assert got[:4].tolist() == [0.0, 0.5, 0.5, 1.0]
        assert np.isnan(got[4])

    @pytest.mark.parametrize("v", [-8.5, -1.0, 0.0, 0.3, 6.0, np.nan])
    def test_scalar_input_keeps_its_shape(self, v):
        # a Python float, a numpy scalar and a 0-d array each give a 0-d
        # array holding the same bits as the 1-element array's entry
        want = abst.ndtr(np.array([v]))[0]
        for a in (v, np.float64(v), np.array(v)):
            got = abst.ndtr(a)
            assert got.shape == ()
            assert got.tobytes() == want.tobytes()
        assert abst.ndtr(np.full((2, 3), v)).shape == (2, 3)


def room_det_setup(input_vals=(-0.1, 0.0, 0.1)):
    sys_ = room_system()
    lo = min(input_vals) - 0.05
    hi = max(input_vals) + 0.05
    sys_ = st.AffineSystem(A=sys_.A, B=sys_.B, C1=sys_.C1, C2=sys_.C2, D=sys_.D,
                           G=sys_.G, b=sys_.b, state_box=sys_.state_box,
                           input_box=st.Box([lo], [hi]),
                           internal_box=sys_.internal_box)
    grid = abstraction_grid(sys_, state_w=0.1, input_w=0.1)
    disc = st.DiscretizationSpec(tau=0.1, D_tilde=0.0, R_tilde=0.0)
    return sys_, disc, grid


class TestDeterministic:
    def test_room_shift_pattern_vs_enumeration(self):
        sys_, disc, grid = room_det_setup()
        fa = st.build_deterministic(sys_, disc, grid)
        # exhaustive oracle: successor of center + shift via direct quantize
        for s in range(fa.n_states):
            for u in range(fa.n_inputs):
                x = grid.state.center(s) + grid.input.center(u)
                assert fa.successors[s, u, 0] == grid.state.locate(x)
        # structure: shifts by one cell with sink at the edges
        assert np.array_equal(fa.successors[:, 1, 0], np.arange(10))
        assert fa.successors[0, 0, 0] == fa.sink
        assert np.array_equal(fa.successors[1:, 0, 0], np.arange(9))
        assert fa.successors[9, 2, 0] == fa.sink

    def test_zero_input_identity(self):
        sys_, disc, grid = room_det_setup(input_vals=(0.0,))
        fa = st.build_deterministic(sys_, disc, grid)
        mid = fa.successors[:, fa.n_inputs // 2, 0]
        assert np.array_equal(mid, np.arange(fa.n_states))

    def test_no_feedthrough_makes_internal_irrelevant(self):
        sys_, disc, _ = room_det_setup()
        grid = st.AbstractionGrid(
            state=st.UniformGrid.cover(sys_.state_box, [0.1]),
            input=st.UniformGrid.cover(sys_.input_box, [0.1]),
            internal=st.UniformGrid.cover(sys_.internal_box, [0.5]),
        )
        fa = st.build_deterministic(sys_, disc, grid)
        assert fa.n_internal == 4
        for w in range(1, fa.n_internal):
            assert np.array_equal(fa.successors[:, :, w], fa.successors[:, :, 0])

    def test_rejects_nonzero_noise(self):
        sys_, _, grid = room_det_setup()
        disc = st.DiscretizationSpec(tau=0.1, D_tilde=0.0, R_tilde=0.01)
        with pytest.raises(DimensionMismatch):
            st.build_deterministic(sys_, disc, grid)

    def test_coarse_grid_warns(self):
        # inputs shift by +-2 but the state grid only spans 1: all-sink columns
        sys_, disc, _ = room_det_setup(input_vals=(-4.0, 4.0))
        grid = abstraction_grid(sys_, state_w=0.5, input_box=st.Box([-4.0], [4.0]),
                                input_w=4.0)
        with pytest.warns(GridTooCoarse):
            st.build_deterministic(sys_, disc, grid)


class TestStochastic:
    def test_rows_match_quadrature_oracle(self):
        sys_, _, grid = room_det_setup()
        sigma = 0.1
        disc = st.DiscretizationSpec(tau=0.1, D_tilde=0.0, R_tilde=sigma)
        fa = st.build_stochastic(sys_, disc, grid)
        edges = grid.state.axis_edges(0)
        for s in (0, 4, 9):
            for u in range(fa.n_inputs):
                mean = (grid.state.center(s) + grid.input.center(u)).item()
                row = fa.row(s, u, 0)
                for t in range(fa.n_states):
                    mass, _ = scipy.integrate.quad(
                        lambda x: scipy.stats.norm.pdf(x, mean, sigma),
                        edges[t], edges[t + 1], epsabs=1e-12)
                    assert row[t] == pytest.approx(mass, abs=1e-9)
                assert row.sum() == pytest.approx(1.0, abs=1e-12)

    def test_center_cell_mass_value(self):
        sys_, _, grid = room_det_setup(input_vals=(0.0,))
        disc = st.DiscretizationSpec(tau=0.1, D_tilde=0.0, R_tilde=0.1)
        fa = st.build_stochastic(sys_, disc, grid)
        mid_u = fa.n_inputs // 2
        row = fa.row(5, mid_u, 0)
        # Phi(0.5) - Phi(-0.5) for a cell of one sigma width centered at the mean
        assert row[5] == pytest.approx(0.3829249225480262, abs=1e-10)

    def test_tiny_sigma_matches_deterministic(self):
        sys_, disc0, grid = room_det_setup()
        det = st.build_deterministic(sys_, disc0, grid)
        disc = st.DiscretizationSpec(tau=0.1, D_tilde=0.0, R_tilde=1e-12)
        sto = st.build_stochastic(sys_, disc, grid)
        for s in range(det.n_states):
            for u in range(det.n_inputs):
                row = sto.row(s, u, 0)
                assert row.argmax() == det.successors[s, u, 0]
                assert row.max() == pytest.approx(1.0)

    def test_sink_mass_grows_with_distance_from_grid(self):
        sys_, _, grid = room_det_setup(input_vals=(-0.3, -0.2, -0.1, 0.0))
        disc = st.DiscretizationSpec(tau=0.1, D_tilde=0.0, R_tilde=0.15)
        fa = st.build_stochastic(sys_, disc, grid)
        sink = [fa.row(0, u, 0)[fa.sink] for u in range(4)]
        assert sink == sorted(sink, reverse=True)

    def test_rejects_correlated_noise(self):
        sys2 = st.AffineSystem(
            A=-np.eye(2), B=np.eye(2), C1=np.eye(2), C2=np.ones((1, 2)),
            D=np.zeros((2, 1)), G=np.eye(2), b=np.zeros(2),
            state_box=st.Box([0, 0], [1, 1]), input_box=st.Box([-.1, -.1], [.1, .1]),
            internal_box=st.Box([-1], [1]))
        disc = st.DiscretizationSpec(tau=0.1, D_tilde=np.zeros((2, 1)),
                                     R_tilde=np.array([[0.1, 0.05], [0.0, 0.1]]))
        grid = st.AbstractionGrid(
            state=st.UniformGrid.cover(sys2.state_box, [0.5, 0.5]),
            input=st.UniformGrid.cover(sys2.input_box, [0.2, 0.2]),
            internal=st.UniformGrid.cover(sys2.internal_box, [2.0]))
        with pytest.raises(NonDiagonalNoise):
            st.build_stochastic(sys2, disc, grid)


class TestProductStructure:
    def test_two_room_network_is_product_of_room_abstractions(self):
        # block-diagonal two-room system with no feedthrough: the 2-D
        # abstraction must be the index product of two 1-D abstractions
        room, disc, grid1 = room_det_setup()
        pair = st.AffineSystem(
            A=np.kron(np.eye(2), room.A), B=np.kron(np.eye(2), room.B),
            C1=np.eye(2), C2=np.eye(2), D=np.zeros((2, 0)),
            G=np.kron(np.eye(2), room.G), b=np.tile(room.b, 2),
            state_box=st.Box([20, 20], [21, 21]),
            input_box=st.Box([-0.15, -0.15], [0.15, 0.15]),
            internal_box=st.Box(np.zeros(0), np.zeros(0)))
        disc2 = st.DiscretizationSpec(tau=0.1, D_tilde=np.zeros((2, 0)),
                                      R_tilde=np.zeros((2, 1)))
        grid2 = st.AbstractionGrid(
            state=st.UniformGrid.cover(pair.state_box, [0.1, 0.1]),
            input=st.UniformGrid.cover(pair.input_box, [0.1, 0.1]))
        fa1 = st.build_deterministic(room, disc, grid1)
        fa2 = st.build_deterministic(pair, disc2, grid2)
        s1 = grid1.state.n_points
        u1 = grid1.input.n_points
        for s in range(fa2.n_states):
            sa, sb = np.unravel_index(s, grid2.state.cells)
            for u in range(fa2.n_inputs):
                ua, ub = np.unravel_index(u, grid2.input.cells)
                t = fa2.successors[s, u, 0]
                ta = fa1.successors[sa, ua, 0]
                tb = fa1.successors[sb, ub, 0]
                if ta == fa1.sink or tb == fa1.sink:
                    assert t == fa2.sink
                else:
                    assert t == np.ravel_multi_index((ta, tb), grid2.state.cells)


def rooms_setup():
    """The rooms demo's grid: 200 state cells of 0.005, 201 inputs of 1e-4."""
    sys_ = room_system()
    grid = abstraction_grid(sys_, state_w=0.005, input_w=1e-4)
    return sys_, st.DiscretizationSpec(tau=0.1, D_tilde=0.0, R_tilde=0.0), grid


def _row_means(disc, grid):
    """Each kernel row's mean, center(s) + center(u) + D_tilde center(w), in row order."""
    return np.array([grid.state.center(s) + (grid.input.center(u)
                                             + disc.D_tilde @ grid.internal.center(w))
                     for s in range(grid.state.n_points)
                     for u in range(grid.input.n_points)
                     for w in range(grid.n_internal)])


class TestOneCellRule:
    # the noise-free model as a point-mass kernel: one cell rule whichever
    # builder is asked, the rule of the simulator's quantizer
    @pytest.mark.parametrize("setup", [rooms_setup, lambda: plane_setup(np.zeros((2, 2)))],
                             ids=["rooms", "plane"])
    def test_builders_agree_with_the_quantizer(self, setup):
        sys_, disc, grid = setup()
        det = st.build_deterministic(sys_, disc, grid)
        sto = st.build_stochastic(sys_, disc, grid)
        assert det.kind == sto.kind == "deterministic"
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(det.kernel, name), getattr(sto.kernel, name))
        assert np.all(det.kernel.data == 1.0)
        targets = grid.state.locate_many(_row_means(disc, grid))
        assert np.array_equal(det.successors.reshape(-1), targets)
        assert np.any(targets == det.sink)

    def test_zero_noise_axis_uses_the_quantizer(self):
        sys_, disc, grid = plane_setup(np.diag([0.0, 0.3]))
        fa = st.build_stochastic(sys_, disc, grid)
        sgrid = grid.state
        rows = fa.kernel.toarray()
        for row, mean in zip(rows, _row_means(disc, grid)):
            # axis 0 carries no noise: its mass sits in the cell the
            # quantizer gives the mean (axis 1 moved inside the grid)
            cell = sgrid.locate([mean[0], 0.5])
            if cell == fa.sink:
                assert row[fa.sink] == 1.0
            else:
                on_axis0 = row[:fa.sink].reshape(sgrid.cells).sum(axis=1)
                assert np.flatnonzero(on_axis0).tolist() == [
                    np.unravel_index(cell, sgrid.cells)[0]]


def test_export_round_readable(tmp_path):
    sys_, disc, grid = room_det_setup()
    fa = st.build_deterministic(sys_, disc, grid)
    jp, cp = tmp_path / "a.json", tmp_path / "a.csv"
    from stochsym.abstraction import export_abstraction
    export_abstraction(fa, jp, cp)
    import json
    head = json.loads(jp.read_text())
    assert head["kind"] == "deterministic"
    assert head["n_states"] == fa.n_states
    lines = cp.read_text().strip().splitlines()
    assert lines[0] == "state,input,internal,target,prob"
    assert len(lines) == 1 + fa.n_states * fa.n_inputs * fa.n_internal


# ---------------------------------------------------------------------------
# Per-entry oracles for the block-wise kernel build and CSV export


#: the Gaussian tail cut in standardized units, as the oracle states it: the
#: mirror image of where ndtr rounds to exactly 1
CUT = abst._NDTR_ONE / abst._SQRTH


def _reference_axis_masses(grid, d, mean, sigma, cut=True):
    if sigma > 0.0:
        z = (grid.axis_edges(d) - mean) / sigma
        return np.diff(abst.ndtr(np.maximum(z, -CUT) if cut else z))
    # the grid's cell rule: floor of (x - lower) / width, clipped, with
    # 1e-9 widths of slack at the outer edges
    lower, width, cells = grid.lower[d], grid.widths[d], grid.cells[d]
    masses = np.zeros(cells)
    slack = abst._EDGE_RTOL * width
    if lower - slack <= mean <= lower + cells * width + slack:
        masses[min(max(math.floor((mean - lower) / width), 0), cells - 1)] = 1.0
    return masses


def _reference_kernel(disc, grid, cut=True):
    """The kernel row by row, one (s, u, w) triple at a time; uncut tails if not `cut`."""
    sigma = np.sqrt(np.maximum(np.diag(disc.R_tilde @ disc.R_tilde.T), 0.0))
    sgrid = grid.state
    S, U, W = sgrid.n_points, grid.input.n_points, grid.n_internal
    shifts = np.asarray([[grid.input.center(u) + disc.D_tilde @ grid.internal.center(w)
                          for w in range(W)] for u in range(U)])
    centers = sgrid.centers()
    data, indices, indptr = [], [], [0]
    for s in range(S):
        for u in range(U):
            for w in range(W):
                mean = centers[s] + shifts[u, w]
                probs = _reference_axis_masses(sgrid, 0, mean[0], sigma[0], cut)
                for d in range(1, sgrid.dim):
                    probs = np.multiply.outer(
                        probs, _reference_axis_masses(sgrid, d, mean[d], sigma[d], cut))
                probs = probs.reshape(-1)
                inside = float(probs.sum())
                sink_mass = 1.0 - inside
                if sink_mass < -abst._ROW_TOL:
                    raise RowMassError((s, u, w), sink_mass)
                sink_mass = max(sink_mass, 0.0)
                row_total = inside + sink_mass
                for t in np.flatnonzero(probs):
                    indices.append(int(t))
                    data.append(probs[t] / row_total)
                if sink_mass > 0.0:
                    indices.append(S)
                    data.append(sink_mass / row_total)
                indptr.append(len(data))
    return np.asarray(data), np.asarray(indices), np.asarray(indptr)


def _reference_csv(fa, path):
    """The CSV export one csv.writer row at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["state", "input", "internal", "target", "prob"])
        U, W = fa.n_inputs, fa.n_internal
        if fa.kind == "deterministic":
            for s in range(fa.n_states):
                for u in range(U):
                    for w in range(W):
                        writer.writerow([s, u, w, int(fa.successors[s, u, w]), 1.0])
        else:
            kernel, rows = fa.kernel, fa.kernel.row_index()
            for k in np.lexsort((kernel.indices, rows)):
                flat, t, p = int(rows[k]), int(kernel.indices[k]), float(kernel.data[k])
                s, rem = divmod(flat, U * W)
                u, w = divmod(rem, W)
                writer.writerow([s, u, w, t, repr(p)])


def plane_setup(r_tilde):
    """2-D state grid (4 x 5 cells), 2 x 2 inputs and 3 internal cells."""
    sys_ = st.AffineSystem(
        A=-np.eye(2), B=np.eye(2), C1=np.eye(2), C2=np.ones((1, 2)),
        D=np.zeros((2, 1)), G=np.eye(2), b=np.zeros(2),
        state_box=st.Box([0, 0], [1, 1]), input_box=st.Box([-.2, -.2], [.2, .2]),
        internal_box=st.Box([-1.5], [1.5]))
    disc = st.DiscretizationSpec(tau=0.1, D_tilde=np.array([[0.1], [0.2]]),
                                 R_tilde=r_tilde)
    grid = st.AbstractionGrid(
        state=st.UniformGrid.cover(sys_.state_box, [0.25, 0.2]),
        input=st.UniformGrid.cover(sys_.input_box, [0.2, 0.2]),
        internal=st.UniformGrid.cover(sys_.internal_box, [1.0]))
    return sys_, disc, grid


class TestBlockKernel:
    # 7 rows of S + 1 = 21 entries per block: 23 blocks for 240 rows, the
    # last one partial
    BLOCK = 7 * 21

    # axis 1 noise-free (point masses); or both axes Gaussian, where a few
    # rows sum to just above 1 and their sink mass is clipped to 0
    @pytest.mark.parametrize("sigmas", [(0.08, 0.0), (0.04, 0.01)])
    def test_matches_per_row_reference(self, monkeypatch, sigmas):
        sys_, disc, grid = plane_setup(np.diag(sigmas))
        monkeypatch.setattr(abst, "_BLOCK_ENTRIES", self.BLOCK)
        fa = st.build_stochastic(sys_, disc, grid)
        assert fa.n_internal == 3 and fa.kernel.shape == (240, 21)
        data, indices, indptr = _reference_kernel(disc, grid)
        assert np.array_equal(fa.kernel.data, data)
        assert np.array_equal(fa.kernel.indices, indices)
        assert np.array_equal(fa.kernel.indptr, indptr)
        sink = fa.kernel.toarray()[:, fa.sink]
        assert np.count_nonzero(sink) > 10 and np.any(sink == 1.0)
        # unblocked build agrees too
        monkeypatch.setattr(abst, "_BLOCK_ENTRIES", 1 << 16)
        whole = st.build_stochastic(sys_, disc, grid).kernel
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(fa.kernel, name), getattr(whole, name))

    def test_row_mass_error_names_first_row(self, monkeypatch):
        # doubled CDFs push rows far enough inside the grid past unit mass
        sys_, disc, grid = plane_setup(np.diag([0.08, 0.3]))
        ndtr = abst.ndtr
        monkeypatch.setattr(abst, "ndtr", lambda x: 2.0 * ndtr(x))
        monkeypatch.setattr(abst, "_BLOCK_ENTRIES", self.BLOCK)
        with pytest.raises(RowMassError) as ref:
            _reference_kernel(disc, grid)
        with pytest.raises(RowMassError) as got:
            st.build_stochastic(sys_, disc, grid)
        assert ref.value.row != (0, 0, 0)
        assert got.value.row == ref.value.row
        assert got.value.drift == ref.value.drift


def _reversed_rows(k):
    """data, indices and indptr of kernel k with each row in reverse target order."""
    perm = np.concatenate([np.arange(k.indptr[r + 1] - 1, k.indptr[r] - 1, -1)
                           for r in range(k.shape[0])])
    return k.data[perm], k.indices[perm], k.indptr.copy()


class TestBlockExport:
    def _same_bytes(self, fa, tmp_path):
        abst.export_abstraction(fa, tmp_path / "a.json", tmp_path / "a.csv")
        _reference_csv(fa, tmp_path / "ref.csv")
        got = (tmp_path / "a.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()
        return got.decode()

    def test_stochastic_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(abst, "_EXPORT_ENTRIES", 50)
        sys_, disc, grid = plane_setup(np.diag([0.08, 0.05]))
        fa = st.build_stochastic(sys_, disc, grid)
        before = [a.copy() for a in (fa.kernel.data, fa.kernel.indices, fa.kernel.indptr)]
        text = self._same_bytes(fa, tmp_path)
        assert fa.kernel.nnz > 4 * 50
        assert "e-" in text  # exponent-notation probabilities
        for a, b in zip(before, (fa.kernel.data, fa.kernel.indices, fa.kernel.indptr)):
            assert np.array_equal(a, b)

    def test_csr_rejects_unsorted_rows(self):
        # every kernel is a CSR, whose rows are sorted, so the export never
        # meets an unsorted row; a scipy kernel stored unsorted is sorted
        # on the way in
        sys_, disc, grid = plane_setup(np.diag([0.08, 0.05]))
        fa = st.build_stochastic(sys_, disc, grid)
        k = fa.kernel
        with pytest.raises(DimensionMismatch, match="increase strictly"):
            st.CSR(*_reversed_rows(k), k.shape)
        unsorted = scipy.sparse.csr_matrix(_reversed_rows(k), shape=k.shape)
        assert not unsorted.has_sorted_indices
        again = st.FiniteAbstraction(
            grid=fa.grid, disc=fa.disc, output_map=fa.output_map, kernel=unsorted)
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(again.kernel, name), getattr(k, name))

    def test_peak_stays_below_the_kernel_data(self, tmp_path):
        # the benchmark's noisy room abstraction (0.17 M nnz): blocks and the
        # texts of the distinct probabilities, never a kernel-sized copy
        sys_ = room_system()
        disc = st.DiscretizationSpec(tau=0.1, D_tilde=0.0, R_tilde=0.01)
        grid = st.AbstractionGrid(
            state=st.UniformGrid.cover(sys_.state_box, [0.01]),
            input=st.UniformGrid.cover(sys_.input_box, [2e-4]),
            internal=st.UniformGrid.cover(sys_.internal_box, [2.0]))
        fa = st.build_stochastic(sys_, disc, grid)
        assert fa.kernel.nnz == 174_455
        _, peak = traced_peak(abst.export_abstraction, fa, tmp_path / "a.json",
                              tmp_path / "a.csv")
        assert peak < fa.kernel.data.nbytes

    def test_deterministic_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(abst, "_EXPORT_ENTRIES", 7)
        sys_, disc, grid = room_det_setup()
        fa = st.build_deterministic(sys_, disc, grid)
        assert np.any(fa.successors == fa.sink) and fa.successors.size > 3 * 7
        self._same_bytes(fa, tmp_path)


def test_export_rejects_a_non_finite_header(tmp_path):
    # strict JSON has no NaN or infinity: the header is refused, not written
    import dataclasses
    import math

    from stochsym.abstraction import export_abstraction
    from stochsym.errors import NonFiniteArtifact

    sys_, disc, grid = room_det_setup()
    fa = st.build_deterministic(sys_, disc, grid)
    bad = dataclasses.replace(fa, disc=st.DiscretizationSpec(tau=math.inf, D_tilde=0.0,
                                                             R_tilde=0.0))
    jp, cp = tmp_path / "a.json", tmp_path / "a.csv"
    with pytest.raises(NonFiniteArtifact, match="a.json"):
        export_abstraction(bad, jp, cp)
    assert not jp.exists()


# ---------------------------------------------------------------------------
# The Gaussian tail cut: what it drops goes to the sink, and safety values
# can only fall, by at most the dropped mass per step

def box_setup(widths, cells, sigmas, reach, n_inputs):
    """A model on a grid from 0 of `cells` cells of `widths` (A = -I, one
    internal cell, diagonal noise `sigmas`), whose abstract inputs move the
    row means up to `reach` past either grid edge, `n_inputs` per axis."""
    n = len(widths)
    widths, span = np.asarray(widths), np.asarray(widths) * np.asarray(cells)
    sys_ = st.AffineSystem(
        A=-np.eye(n), B=np.eye(n), C1=np.eye(n), C2=np.ones((1, n)),
        D=np.zeros((n, 1)), G=np.eye(n), b=np.zeros(n),
        state_box=st.Box(np.zeros(n), span), input_box=st.Box(-span - reach, span + reach),
        internal_box=st.Box([-1.0], [1.0]))
    disc = st.DiscretizationSpec(tau=0.1, D_tilde=np.zeros((n, 1)), R_tilde=np.diag(sigmas))
    grid = st.AbstractionGrid(
        state=st.UniformGrid(np.zeros(n), widths, cells),
        input=st.UniformGrid.cover(sys_.input_box, 2 * (span + reach) / np.asarray(n_inputs)),
        internal=st.UniformGrid.cover(sys_.internal_box, [2.0]))
    return sys_, disc, grid


@hst.composite
def tail_cases(draw):
    dim = draw(hst.sampled_from([1, 2]))
    cells = [draw(hst.integers(1, 12 if dim == 1 else 5)) for _ in range(dim)]
    widths = [draw(hst.floats(0.05, 2.0)) for _ in range(dim)]
    sigmas = [w * 10.0 ** draw(hst.floats(-3.0, 0.6)) for w in widths]
    if dim == 2 and draw(hst.booleans()):
        sigmas[1] = 0.0  # a noise-free axis next to a Gaussian one
    reach = [draw(hst.floats(0.0, 16.0)) * (s or w) for s, w in zip(sigmas, widths)]
    n_inputs = [draw(hst.integers(1, 9 if dim == 1 else 4)) for _ in range(dim)]
    return box_setup(widths, cells, sigmas, np.asarray(reach), n_inputs), draw(hst.integers(1, 8))


class TestTailCut:
    def test_axis_masses_clip_at_the_cut(self):
        # bitwise ndtr(max(z, -CUT)), on both sides of the cut and at it
        edges = np.sort(np.concatenate([np.linspace(-40.0, 40.0, 4001),
                                        [-CUT, np.nextafter(-CUT, 0.0), np.nextafter(-CUT, -1.0)]]))
        axis = types.SimpleNamespace(axis_edges=lambda d: edges)  # all _axis_masses reads
        means = np.array([0.0, 0.3, -1e-3, 7.2])
        for sigma in (1.0, 0.37):
            z = (axis.axis_edges(0) - means[:, None]) / sigma
            want = np.diff(abst.ndtr(np.maximum(z, -CUT)), axis=1)
            got = abst._axis_masses(axis, means, sigma)
            assert np.array_equal(got, want)
            assert np.count_nonzero(got) < np.count_nonzero(np.diff(abst.ndtr(z), axis=1))
        assert abst._TAIL_MASS == abst.ndtr([-CUT])[0] == pytest.approx(1.08e-17, rel=1e-2)

    @settings(max_examples=80, deadline=None)
    @given(tail_cases())
    def test_cut_rows_and_values_against_uncut(self, case):
        (sys_, disc, grid), horizon = case
        with warnings.catch_warnings():  # means may start far past the grid
            warnings.simplefilter("ignore", GridTooCoarse)
            fa = st.build_stochastic(sys_, disc, grid)
        k = fa.kernel
        for got, want in zip((k.data, k.indices, k.indptr), _reference_kernel(disc, grid)):
            assert np.array_equal(got, want)
        uncut_kernel = st.CSR(*_reference_kernel(disc, grid, cut=False), k.shape)
        rows, uncut = k.toarray(), uncut_kernel.toarray()
        sgrid, dim = grid.state, grid.state.dim
        sigma = np.sqrt(np.diag(disc.R_tilde @ disc.R_tilde.T))
        # no stored entry lies wholly below the cut on a Gaussian axis
        means = _row_means(disc, grid)
        cell = np.unravel_index(np.arange(sgrid.n_points), sgrid.cells)
        for d in np.flatnonzero(sigma):
            top = sgrid.axis_edges(d)[1:][cell[d]]
            beyond = (top[None, :] - means[:, d, None]) / sigma[d] <= -CUT
            assert np.all(rows[:, :-1][beyond] == 0.0)
        # an in-grid entry moves by at most one axis's tail mass, and the
        # normalisation by max(1, inside) may round differently
        diff = np.abs(rows[:, :-1] - uncut[:, :-1])
        assert np.all(diff <= 1.1e-17 + 4.5e-16 * uncut[:, :-1])
        assert np.all(rows[:, -1] - uncut[:, -1] <= dim * 1.1e-17 + 4.5e-16)
        # the sink is unsafe: values can only fall, by at most the tail per step
        spec = st.SafetySpec(safe_box=sgrid.as_box(), horizon=horizon)
        got = st.safety_value_iteration(fa, spec).values
        want = st.safety_value_iteration(dataclasses.replace(fa, kernel=uncut_kernel),
                                         spec).values
        assert np.all(got <= want + 1e-15)
        assert np.all(got >= want - horizon * (dim * 1.1e-17 + 1e-15))

    def test_stochastic_header_records_the_cut(self, tmp_path):
        sys_, disc, grid = plane_setup(np.diag([0.08, 0.0]))
        for fa, noisy in ((st.build_stochastic(sys_, disc, grid), True),
                          (st.build_deterministic(*plane_setup(np.zeros((2, 2)))), False)):
            abst.export_abstraction(fa, tmp_path / "a.json", tmp_path / "a.csv")
            head = json.loads((tmp_path / "a.json").read_text())
            if noisy:
                assert head["tail_sigmas"] == CUT == pytest.approx(8.485, abs=1e-3)
                assert head["tail_mass_per_axis"] == abst.ndtr([-CUT])[0]
            else:
                assert "tail_sigmas" not in head and "tail_mass_per_axis" not in head
