"""Safety controller synthesis on finite abstractions.

Deterministic abstractions get the maximal controlled-invariant set via the
standard shrinking fixpoint; stochastic abstractions get a finite-horizon
maximal safety probability by backward value iteration over the kernel.
Internal (coupling) inputs are resolved adversarially in both cases, which
is sound for safety and collapses to the plain recursion when the internal
grid is trivial.  Ties between equally good inputs always break toward the
lowest index, so identical problems produce bit-identical controllers.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass

import numpy as np

from .abstraction import FiniteAbstraction
from .errors import DimensionMismatch, EmptyBox
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
        if self.contraction == 0.0:
            return self.safe_box
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

    def action_table(self, step: int = 0) -> np.ndarray:
        return self.table if self.table.ndim == 1 else self.table[step]


def safe_mask(abstraction: FiniteAbstraction, spec: SafetySpec) -> np.ndarray:
    """States whose representative's external output lies in the (contracted) safe box."""
    box = spec.contracted_box()
    if box.dim != abstraction.output_map.shape[0]:
        raise DimensionMismatch("safe_box", "dimension must match the external output")
    outputs = abstraction.grid.state.centers() @ abstraction.output_map.T
    return np.all((outputs >= box.lower) & (outputs <= box.upper), axis=1)


def safety_fixpoint(abstraction: FiniteAbstraction, spec: SafetySpec) -> Controller:
    """Maximal controlled-invariant subset of the safe cells, with witness actions.

    Iterates Z <- {s in Z : exists u, all internal w keep succ(s, u, w) in Z}
    from the safe cells down to the fixpoint.  The stored action is the
    lowest-index witnessing input.  An empty winning set is reported, not
    raised.
    """
    if abstraction.kind != "deterministic":
        raise DimensionMismatch("abstraction", "fixpoint synthesis needs a deterministic table")
    if spec.horizon is not None:
        raise DimensionMismatch("horizon", "fixpoint synthesis is infinite-horizon")
    succ = abstraction.successors
    S = abstraction.n_states
    z = safe_mask(abstraction, spec)
    z_ext = np.zeros(S + 1, dtype=bool)  # sink stays unsafe
    while True:
        z_ext[:S] = z
        ok_u = z_ext[succ].all(axis=2)  # (S, U): input keeps every internal branch inside
        keep = z & ok_u.any(axis=1)
        if np.array_equal(keep, z):
            break
        z = keep
    actions = np.where(z, np.argmax(ok_u, axis=1), -1).astype(np.int64)
    winning = np.flatnonzero(z)
    if winning.size == 0:
        logger.info("safety fixpoint: empty winning set")
    return Controller(kind="deterministic-map", table=actions, winning_set=winning)


def safety_value_iteration(abstraction: FiniteAbstraction, spec: SafetySpec) -> Controller:
    """Finite-horizon maximal probability of staying safe, with per-step argmax tables.

    V_T = 1 on safe cells; V_k(s) = max_u min_w sum_t row(s,u,w)[t] V_{k+1}(t)
    on safe cells and 0 elsewhere (the sink contributes 0).  Values returned
    are V_0; the winning set is the safe cells with V_0 > 0.
    """
    if abstraction.kind != "stochastic":
        raise DimensionMismatch("abstraction", "value iteration needs a stochastic kernel")
    if spec.horizon is None:
        raise DimensionMismatch("horizon", "value iteration needs a finite horizon")
    S, U, W = abstraction.n_states, abstraction.n_inputs, abstraction.n_internal
    kernel = abstraction.kernel
    safe = safe_mask(abstraction, spec)
    v = np.where(safe, 1.0, 0.0)
    tables = []
    for _ in range(spec.horizon):
        v_ext = np.append(v, 0.0)
        q = (kernel @ v_ext).reshape(S, U, W).min(axis=2)
        best = q.max(axis=1)
        act = q.argmax(axis=1)
        v = np.where(safe, best, 0.0)
        tables.append(np.where(safe, act, -1).astype(np.int64))
    tables.reverse()  # tables[k] is applied at step k
    winning = np.flatnonzero(safe & (v > 0.0))
    return Controller(kind="time-varying-map", table=np.stack(tables),
                      winning_set=winning, values=v)


def write_controller(
    controller: Controller, spec: SafetySpec, csv_path, json_path
) -> None:
    """CSV table (state_idx[,step],input_idx) plus JSON metadata."""
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if controller.table.ndim == 1:
            writer.writerow(["state_idx", "input_idx"])
            for s, u in enumerate(controller.table):
                if u >= 0:
                    writer.writerow([s, int(u)])
        else:
            writer.writerow(["state_idx", "step", "input_idx"])
            for k, row in enumerate(controller.table):
                for s, u in enumerate(row):
                    if u >= 0:
                        writer.writerow([s, k, int(u)])
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
    with open(json_path, "w", newline="\n") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
