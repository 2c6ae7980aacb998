"""Safety controller synthesis on finite abstractions.

One Bellman backup over the kernel serves both syntheses: value iteration
applies it `horizon` times to any kernel (maximal safety probability), and the
fixpoint applies it to point-mass rows until the maximal invariant set is found.
Internal (coupling) inputs are resolved adversarially in both cases, which
is sound for safety and collapses to the plain recursion when the internal
grid is trivial.  Ties between equally good inputs always break toward the
lowest index, so identical problems produce bit-identical controllers.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .abstraction import FiniteAbstraction
from .errors import DimensionMismatch, EmptyBox, write_json
from .model import Box

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class SafetySpec:
    """Stay inside a box in external-output space, forever or for a finite horizon."""

    safe_box: Box
    contraction: float = 0.0
    horizon: int | None = None  # None -> infinite-horizon fixpoint

    def __post_init__(self):
        if self.contraction < 0:
            raise DimensionMismatch("contraction", "must be nonnegative")
        if self.horizon is not None and self.horizon < 1:
            raise DimensionMismatch("horizon", "finite horizons start at 1")
        if self.contracted_box().is_empty:
            raise EmptyBox("safe_box (after contraction)")

    def contracted_box(self) -> Box:
        return Box(self.safe_box.lower + self.contraction,
                   self.safe_box.upper - self.contraction)


@dataclass(eq=False)
class Controller:
    """Lookup-table policy on abstract states.

    `table` maps state index to input index (-1 where undefined), either as
    one row (stationary) or one row per step (time-varying).  `values` holds
    the per-state safety probability for stochastic synthesis.
    """

    kind: str  # "deterministic-map" | "time-varying-map"
    table: np.ndarray
    winning_set: np.ndarray
    values: np.ndarray | None = None

    @property
    def n_states(self) -> int:
        return self.table.shape[-1]

    @property
    def winning_fraction(self) -> float:
        return self.winning_set.size / self.n_states

    def action(self, state: int, step: int = 0) -> int:
        row = self.table if self.table.ndim == 1 else self.table[step]
        return int(row[state])


def safe_mask(abstraction: FiniteAbstraction, spec: SafetySpec) -> np.ndarray:
    """States whose representative's external output lies in the (contracted) safe box."""
    box = spec.contracted_box()
    if box.dim != abstraction.output_map.shape[0]:
        raise DimensionMismatch("safe_box", "dimension must match the external output")
    outputs = abstraction.grid.state.centers() @ abstraction.output_map.T
    return np.all((outputs >= box.lower) & (outputs <= box.upper), axis=1)


def _backup(abstraction: FiniteAbstraction, v: np.ndarray, safe: np.ndarray):
    """V(s) = max_u min_w sum_t row(s,u,w)[t] v(t) on safe cells, 0 elsewhere (and
    at the sink), with the maximizing input of every cell, lowest index on ties."""
    S, W = abstraction.n_states, abstraction.n_internal
    q = (abstraction.kernel @ np.append(v, 0.0)).reshape(S, -1, W).min(axis=2)
    return np.where(safe, q.max(axis=1), 0.0), q.argmax(axis=1)


def safety_fixpoint(abstraction: FiniteAbstraction, spec: SafetySpec) -> Controller:
    """Maximal controlled-invariant subset of the safe cells, with witness actions.

    Backs up the safe indicator until it stops changing; on point-mass rows
    that is Z <- {s safe : exists u, all internal w keep succ(s, u, w) in Z}.
    The stored action is the lowest-index witnessing input.  An empty
    winning set is reported, not raised.
    """
    if abstraction.kind != "deterministic":
        raise DimensionMismatch("abstraction", "fixpoint synthesis needs a deterministic table")
    if spec.horizon is not None:
        raise DimensionMismatch("horizon", "fixpoint synthesis is infinite-horizon")
    safe = safe_mask(abstraction, spec)
    v = np.where(safe, 1.0, 0.0)
    while True:
        v_next, act = _backup(abstraction, v, safe)
        if np.array_equal(v_next, v):
            break
        v = v_next
    actions = np.where(v > 0.0, act, -1).astype(np.int64)
    winning = np.flatnonzero(v > 0.0)
    if winning.size == 0:
        logger.info("safety fixpoint: empty winning set")
    return Controller(kind="deterministic-map", table=actions, winning_set=winning)


def safety_value_iteration(abstraction: FiniteAbstraction, spec: SafetySpec) -> Controller:
    """Finite-horizon maximal probability of staying safe, with per-step argmax tables.

    V_T = 1 on safe cells and V_k is the backup of V_{k+1}.  Values returned
    are V_0; the winning set is the safe cells with V_0 > 0.
    """
    if spec.horizon is None:
        raise DimensionMismatch("horizon", "value iteration needs a finite horizon")
    safe = safe_mask(abstraction, spec)
    v = np.where(safe, 1.0, 0.0)
    tables = []
    for _ in range(spec.horizon):
        v, act = _backup(abstraction, v, safe)
        tables.append(np.where(safe, act, -1).astype(np.int64))
    tables.reverse()  # tables[k] is applied at step k
    winning = np.flatnonzero(safe & (v > 0.0))
    return Controller(kind="time-varying-map", table=np.stack(tables),
                      winning_set=winning, values=v)


def write_controller(
    controller: Controller, spec: SafetySpec, csv_path, json_path
) -> None:
    """CSV table (state_idx[,step],input_idx) plus JSON metadata.

    A row per defined entry (input index >= 0), state-major, or step-major
    then state-major for a time-varying table.
    """
    table = controller.table
    if table.ndim == 1:
        head, (s,) = "state_idx,input_idx", np.nonzero(table >= 0)
        rows = map("%d,%d\n".__mod__, zip(s.tolist(), table[s].tolist()))
    else:
        head, (k, s) = "state_idx,step,input_idx", np.nonzero(table >= 0)
        rows = map("%d,%d,%d\n".__mod__, zip(s.tolist(), k.tolist(), table[k, s].tolist()))
    with open(csv_path, "w", newline="") as fh:
        fh.write(head + "\n" + "".join(rows))
    meta = {
        "kind": controller.kind,
        "n_states": controller.n_states,
        "winning_fraction": controller.winning_fraction,
        "winning_states": int(controller.winning_set.size),
        "safe_box": {
            "lower": spec.safe_box.lower.tolist(),
            "upper": spec.safe_box.upper.tolist(),
        },
        "contraction": spec.contraction,
        "horizon": spec.horizon,
    }
    if controller.values is not None:
        meta["min_value_on_winning"] = (
            float(controller.values[controller.winning_set].min())
            if controller.winning_set.size else 0.0
        )
    write_json(json_path, meta)
