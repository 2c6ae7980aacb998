import numpy as np
import pytest
import scipy.sparse

import stochsym as st
from stochsym.abstraction import AbstractionGrid, FiniteAbstraction, UniformGrid
from stochsym.errors import DimensionMismatch, EmptyBox

from conftest import room_system


def _abstraction(kernel, s, u, w, r_tilde, lo, width) -> FiniteAbstraction:
    grid = AbstractionGrid(
        state=UniformGrid(lower=[lo], widths=[width], cells=(s,)),
        input=UniformGrid(lower=[0.0], widths=[1.0], cells=(u,)),
        internal=UniformGrid(lower=[0.0], widths=[1.0], cells=(w,)) if w > 1 else None,
    )
    return FiniteAbstraction(
        grid=grid, disc=st.DiscretizationSpec(tau=1.0, D_tilde=0.0, R_tilde=r_tilde),
        output_map=np.eye(1),
        kernel=scipy.sparse.csr_matrix(kernel),
    )


def det_abstraction(successors: np.ndarray, lo=0.0, width=1.0) -> FiniteAbstraction:
    """Wrap a raw successor table, (S, U) or (S, U, W), into a 1-D point-mass abstraction."""
    succ = successors if successors.ndim == 3 else successors[:, :, None]
    s, u, w = succ.shape
    rows = succ.size
    kernel = (np.ones(rows), succ.reshape(-1), np.arange(rows + 1))
    return _abstraction(scipy.sparse.csr_matrix(kernel, shape=(rows, s + 1)),
                        s, u, w, 0.0, lo, width)


def stoch_abstraction(rows: np.ndarray, lo=0.0, width=1.0) -> FiniteAbstraction:
    """rows has shape (S, U, S+1) of probabilities."""
    s, u, _ = rows.shape
    return _abstraction(rows.reshape(s * u, s + 1), s, u, 1, 1.0, lo, width)


def full_box(fa: FiniteAbstraction) -> st.Box:
    g = fa.grid.state
    return st.Box(g.lower, g.upper)


def room_abstraction():
    sys_ = room_system()
    sys_ = st.AffineSystem(A=sys_.A, B=sys_.B, C1=sys_.C1, C2=sys_.C2, D=sys_.D,
                           G=sys_.G, b=sys_.b, state_box=sys_.state_box,
                           input_box=st.Box([-0.15], [0.15]),
                           internal_box=sys_.internal_box)
    grid = AbstractionGrid(
        state=UniformGrid.cover(sys_.state_box, [0.1]),
        input=UniformGrid.cover(sys_.input_box, [0.1]),
        internal=UniformGrid.cover(sys_.internal_box, [2.0]),
    )
    disc = st.DiscretizationSpec(tau=0.1, D_tilde=0.0, R_tilde=0.0)
    return st.build_deterministic(sys_, disc, grid)


class TestFixpoint:
    def test_room_all_cells_winning(self):
        fa = room_abstraction()
        spec = st.SafetySpec(safe_box=st.Box([20.0], [21.0]))
        ctrl = st.safety_fixpoint(fa, spec)
        assert np.array_equal(ctrl.winning_set, np.arange(fa.n_states))
        # the zero-input self-loop is a witness everywhere, so actions exist
        assert np.all(ctrl.table >= 0)

    def test_forced_exit_empties_winning_set(self):
        # every input moves right; the rightmost cell exits to the sink
        s, u = 5, 2
        succ = np.stack([np.arange(1, s + 1)] * u, axis=1)  # index s == sink
        fa = det_abstraction(succ)
        ctrl = st.safety_fixpoint(fa, st.SafetySpec(safe_box=full_box(fa)))
        assert ctrl.winning_set.size == 0
        assert np.all(ctrl.table == -1)

    def test_single_state_self_loop(self):
        fa = det_abstraction(np.array([[0]]))
        ctrl = st.safety_fixpoint(fa, st.SafetySpec(safe_box=full_box(fa)))
        assert np.array_equal(ctrl.winning_set, [0])
        assert ctrl.table[0] == 0

    def test_winning_set_is_invariant_under_closed_loop(self):
        # every internal branch of the stored action stays winning
        rng = np.random.default_rng(42)
        for w in (1, 2, 3):
            for _ in range(25):
                s = int(rng.integers(3, 12))
                u = int(rng.integers(1, 4))
                succ = rng.integers(0, s + 1, size=(s, u, w))
                fa = det_abstraction(succ)
                ctrl = st.safety_fixpoint(fa, st.SafetySpec(safe_box=full_box(fa)))
                for state in ctrl.winning_set:
                    nxt = succ[state, ctrl.table[state]]
                    assert np.isin(nxt, ctrl.winning_set).all()

    def test_lowest_index_tie_break_deterministic(self):
        succ = np.array([[0, 0], [1, 1]])
        fa = det_abstraction(succ)
        ctrl1 = st.safety_fixpoint(fa, st.SafetySpec(safe_box=full_box(fa)))
        ctrl2 = st.safety_fixpoint(fa, st.SafetySpec(safe_box=full_box(fa)))
        assert np.array_equal(ctrl1.table, ctrl2.table)
        assert np.all(ctrl1.table == 0)  # both inputs work; index 0 wins

    def test_rejects_stochastic_abstraction(self):
        rows = np.zeros((1, 1, 2))
        rows[0, 0, 0] = 1.0
        fa = stoch_abstraction(rows)
        with pytest.raises(DimensionMismatch):
            st.safety_fixpoint(fa, st.SafetySpec(safe_box=full_box(fa)))


class TestValueIteration:
    def test_horizon_zero_is_safe_indicator(self):
        # horizon 1 after one step; spec requires horizon >= 1, the k = 0
        # value of a purely absorbing safe chain is the safe indicator
        rows = np.zeros((2, 1, 3))
        rows[0, 0, 0] = 1.0
        rows[1, 0, 1] = 1.0
        fa = stoch_abstraction(rows)
        spec = st.SafetySpec(safe_box=st.Box([0.0], [1.0]), horizon=1)  # cell 0 only
        ctrl = st.safety_value_iteration(fa, spec)
        assert ctrl.values[0] == 1.0 and ctrl.values[1] == 0.0

    def test_two_state_chain_hand_dp(self):
        # best input keeps s0 with prob 0.9; safe = {s0}; two steps -> 0.81
        rows = np.zeros((2, 2, 3))
        rows[0, 0, 0], rows[0, 0, 1] = 0.5, 0.5
        rows[0, 1, 0], rows[0, 1, 1] = 0.9, 0.1
        rows[1, :, 1] = 1.0
        fa = stoch_abstraction(rows)
        spec = st.SafetySpec(safe_box=st.Box([0.0], [1.0]), horizon=2)
        ctrl = st.safety_value_iteration(fa, spec)
        assert ctrl.values[0] == pytest.approx(0.81)
        assert ctrl.table[0, 0] == 1  # argmax picks the sticky input at step 0
        assert ctrl.table[1, 0] == 1  # and again at step 1
        assert ctrl.table[0, 1] == -1  # the unsafe state has no action

    def test_tables_follow_the_steps_to_go(self):
        # s0: input 0 moves to the leaky s1 surely, input 1 keeps s0 with
        # 0.8; s1 keeps itself with 0.5.  With one step to go input 0 is best
        # (1.0 against 0.8), with two steps to go input 1 (0.8 against 0.5)
        rows = np.zeros((2, 2, 3))
        rows[0, 0, 1] = 1.0
        rows[0, 1, 0], rows[0, 1, 2] = 0.8, 0.2
        rows[1, :, 1], rows[1, :, 2] = 0.5, 0.5
        fa = stoch_abstraction(rows)
        ctrl = st.safety_value_iteration(fa, st.SafetySpec(safe_box=full_box(fa), horizon=2))
        assert ctrl.table[:, 0].tolist() == [1, 0]
        assert ctrl.values.tolist() == [0.8, 0.25]

    def test_zero_noise_limit_reproduces_fixpoint(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            s = int(rng.integers(3, 9))
            u = int(rng.integers(1, 4))
            succ = rng.integers(0, s + 1, size=(s, u))
            det = det_abstraction(succ)
            rows = np.zeros((s, u, s + 1))
            for i in range(s):
                for j in range(u):
                    rows[i, j, succ[i, j]] = 1.0
            sto = stoch_abstraction(rows)
            spec_inf = st.SafetySpec(safe_box=full_box(det))
            fix = st.safety_fixpoint(det, spec_inf)
            spec_fin = st.SafetySpec(safe_box=full_box(det), horizon=s + 1)
            vi = st.safety_value_iteration(sto, spec_fin)
            assert np.array_equal(np.flatnonzero(vi.values == 1.0), fix.winning_set)

    def test_value_zero_cell_is_not_winning(self):
        # cell 0 is safe but every input sends it to the sink surely
        # (noise-free rows); cell 1 is absorbing
        rows = np.zeros((2, 2, 3))
        rows[0, :, 2] = 1.0
        rows[1, :, 1] = 1.0
        fa = stoch_abstraction(rows)
        ctrl = st.safety_value_iteration(fa, st.SafetySpec(safe_box=full_box(fa),
                                                           horizon=3))
        assert ctrl.values.tolist() == [0.0, 1.0]
        assert np.array_equal(ctrl.winning_set, [1])
        assert ctrl.winning_fraction == 0.5
        assert np.all(ctrl.table == 0)  # the table still covers every safe cell

    def test_values_monotone_in_horizon(self):
        rng = np.random.default_rng(3)
        rows = rng.dirichlet(np.ones(4), size=(3, 2))
        fa = stoch_abstraction(rows)
        box = st.Box([0.0], [2.0])  # cells 0 and 1 safe, cell 2 unsafe
        prev = None
        for t in (1, 2, 4, 8):
            ctrl = st.safety_value_iteration(
                fa, st.SafetySpec(safe_box=box, horizon=t))
            assert np.all(ctrl.values >= -1e-12) and np.all(ctrl.values <= 1 + 1e-12)
            if prev is not None:
                assert np.all(ctrl.values <= prev + 1e-12)
            prev = ctrl.values

    def test_bitwise_deterministic(self):
        rng = np.random.default_rng(5)
        rows = rng.dirichlet(np.ones(5), size=(4, 3))
        fa = stoch_abstraction(rows)
        spec = st.SafetySpec(safe_box=st.Box([0.0], [3.0]), horizon=6)
        a = st.safety_value_iteration(fa, spec)
        b = st.safety_value_iteration(fa, spec)
        assert np.array_equal(a.table, b.table)
        assert np.array_equal(a.values, b.values)


class TestSafetySpec:
    def test_contraction_keeps_box_nonempty(self):
        spec = st.SafetySpec(safe_box=st.Box([0.0], [1.0]), contraction=0.25)
        assert spec.contracted_box().lower == pytest.approx([0.25])

    def test_zero_contraction_is_the_safe_box(self):
        spec = st.SafetySpec(safe_box=st.Box([-1.0, 0.0], [1.0, 2.5]))
        box = spec.contracted_box()
        assert np.array_equal(box.lower, [-1.0, 0.0]) and np.array_equal(box.upper, [1.0, 2.5])

    def test_overcontraction_rejected(self):
        with pytest.raises(EmptyBox):
            st.SafetySpec(safe_box=st.Box([0.0], [1.0]), contraction=0.6)


def test_controller_serialization(tmp_path):
    fa = room_abstraction()
    spec = st.SafetySpec(safe_box=st.Box([20.0], [21.0]))
    ctrl = st.safety_fixpoint(fa, spec)
    from stochsym.synthesis import write_controller
    cp, jp = tmp_path / "c.csv", tmp_path / "c.json"
    write_controller(ctrl, spec, cp, jp)
    lines = cp.read_text().strip().splitlines()
    assert lines[0] == "state_idx,input_idx"
    assert len(lines) == 1 + ctrl.winning_set.size
    import json
    meta = json.loads(jp.read_text())
    assert meta["winning_fraction"] == 1.0


def test_controller_meta_rejects_non_finite_values(tmp_path):
    import math

    from stochsym.errors import NonFiniteArtifact
    from stochsym.synthesis import write_controller

    fa = room_abstraction()
    ctrl = st.safety_fixpoint(fa, st.SafetySpec(safe_box=st.Box([20.0], [21.0])))
    unbounded = st.SafetySpec(safe_box=st.Box([20.0], [math.inf]))
    with pytest.raises(NonFiniteArtifact, match="c.json"):
        write_controller(ctrl, unbounded, tmp_path / "c.csv", tmp_path / "c.json")
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("table", [
    [3, -1, 12, 0, -1, 7],
    [[3, -1, 12, 0, -1, 7], [-1, -1, 0, 11, 2, -1], [5, 5, 5, -1, 10, 9]],
], ids=["stationary", "time-varying"])
def test_controller_csv_rows_are_csv_writer_rows(tmp_path, table):
    # the defined entries (input index >= 0), state-major or step-major,
    # byte for byte as csv.writer writes them one row at a time
    import csv

    from stochsym.synthesis import Controller, write_controller

    table = np.array(table, dtype=np.int64)
    ctrl = Controller(kind="deterministic-map" if table.ndim == 1 else "time-varying-map",
                      table=table, winning_set=np.flatnonzero(np.atleast_2d(table)[0] >= 0))
    spec = st.SafetySpec(safe_box=st.Box([20.0], [21.0]))
    write_controller(ctrl, spec, tmp_path / "c.csv", tmp_path / "c.json")
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if table.ndim == 1:
            writer.writerow(["state_idx", "input_idx"])
            writer.writerows([s, int(u)] for s, u in enumerate(table) if u >= 0)
        else:
            writer.writerow(["state_idx", "step", "input_idx"])
            writer.writerows([s, k, int(u)] for k, row in enumerate(table)
                             for s, u in enumerate(row) if u >= 0)
    assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
