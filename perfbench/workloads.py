"""Workload definitions and the correctness gate for the pipeline benchmark.

Every workload is a ring of identical heated rooms built by
`stochsym.cli.generate_rooms` and run through all six stages.  The three
workloads load different layers (see README.md for the layer map):

* rooms-mc    - the demo config at a smaller trial count: Monte Carlo
                simulation (with the doubled-substep convergence rerun) is
                nearly all of the work.
* rooms-wide  - many rooms, few trials: the network-size costs (double
                certificate checks, dense X_cmp eigensolve, `_Network`
                build, per-room grid lookups) dominate.
* rooms-stoch - a noisy sampled model (R_tilde > 0): the Gaussian kernel
                build, its CSV export and value iteration replace the
                successor table and the fixpoint.

The "toy" scale keeps every per-room setting and shrinks only the room and
trial counts; the harness smoke test uses it.

This module is imported by both the parent (gate, no numpy) and the child
(config); only `make_config` touches stochsym.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

#: headline violation bound of the rooms case study (psi_hat override)
VIOLATION_BOUND = 0.09
#: band that every violation-free trial's output must stay inside
OUTPUT_BAND = (19.5, 21.5)
#: V_0 minimum over the winning set of the rooms-stoch abstraction, as the
#: unmodified pipeline computes it; it depends only on the per-room grid and
#: R_tilde, so it is the same at every room count and seed
STOCH_MIN_VALUE = 0.902165384156213
#: mean over trials of the sampled sup output error, as the unmodified
#: pipeline gives it (seeds move it by under 1%, 4% at toy size).  It grows
#: with the square root of the room count, which is why every rooms-wide
#: trial reaches epsilon = 0.5 and that workload has no violation checks.
MEAN_SUP_ERROR = {
    ("rooms-mc", "full"): 0.339, ("rooms-wide", "full"): 1.000,
    ("rooms-stoch", "full"): 0.359, ("rooms-mc", "toy"): 0.093,
    ("rooms-wide", "toy"): 0.093, ("rooms-stoch", "toy"): 0.099,
}
#: relative band around MEAN_SUP_ERROR: wide enough for a simulator that
#: removes the Euler-Maruyama bias (about 7%), narrow enough to catch noise or
#: feedback applied at the wrong scale
SUP_ERROR_RTOL = 0.25
#: room and trial counts of the "toy" scale (48 violation-free trials put the
#: Clopper-Pearson bound at 0.061, under VIOLATION_BOUND)
TOY_ROOMS, TOY_TRIALS = 4, 48


@dataclass(frozen=True)
class Workload:
    name: str
    rooms: int
    trials: int
    check_convergence: bool
    r_tilde: float = 0.0
    state_width: float = 0.005
    input_step: float = 1e-4

    def size(self, scale: str) -> tuple[int, int]:
        """(rooms, trials) at the given scale."""
        if scale == "toy":
            return TOY_ROOMS, TOY_TRIALS
        return self.rooms, self.trials


WORKLOADS = {
    w.name: w for w in (
        Workload("rooms-mc", rooms=100, trials=200, check_convergence=True),
        Workload("rooms-wide", rooms=1000, trials=64, check_convergence=False),
        Workload("rooms-stoch", rooms=100, trials=200, check_convergence=False,
                 r_tilde=0.01, state_width=0.01, input_step=2e-4),
    )
}


def make_config(cli, workload: Workload, scale: str, out_dir: str) -> dict:
    """Pipeline config for `workload`, built with the program's own generator."""
    rooms, trials = workload.size(scale)
    config = cli.generate_rooms(
        n=rooms, n_trials=trials, state_width=workload.state_width,
        input_step=workload.input_step, out_dir=out_dir,
    )
    config["simulation"]["check_convergence"] = workload.check_convergence
    if workload.r_tilde:
        # a stochastic abstraction needs a finite safety horizon; use the
        # bound's horizon so synthesis and simulation cover the same steps
        config["discretization"]["R_tilde"] = [[workload.r_tilde]]
        config["safety"]["horizon"] = config["bound"]["horizon"]
    return config


def _load(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


def check_outputs(workload: Workload, scale: str, config: dict, out: Path) -> list[str]:
    """Failed checks on one run's artifacts; an empty list means the run is correct.

    The checks test properties that any correct and faster pipeline keeps:
    exact values only where the program is deterministic, bands elsewhere.
    """
    failures = []
    _, trials = workload.size(scale)
    try:
        sim = _load(out, "simulation_summary.json")
        if sim["n_trials"] != trials:
            failures.append(f"n_trials {sim['n_trials']} != {trials}")
        ref = MEAN_SUP_ERROR[workload.name, scale]
        if not abs(sim["mean_sup_error"] - ref) <= SUP_ERROR_RTOL * ref:
            failures.append(f"mean_sup_error {sim['mean_sup_error']!r} not within "
                            f"{SUP_ERROR_RTOL:.0%} of {ref}")
        if workload.name in ("rooms-mc", "rooms-stoch"):
            bound = _load(out, "bound.json")["violation_bound"]
            if not abs(bound - VIOLATION_BOUND) <= 1e-12:
                failures.append(f"violation_bound {bound!r} != {VIOLATION_BOUND}")
            if not sim["cp95_upper"] <= bound:
                failures.append(f"cp95_upper {sim['cp95_upper']!r} > {bound!r}")
            lo, hi = sim["violation_free_output_min"], sim["violation_free_output_max"]
            if not (OUTPUT_BAND[0] <= lo and hi <= OUTPUT_BAND[1]):
                failures.append(f"violation-free outputs [{lo}, {hi}] leave {OUTPUT_BAND}")
        if workload.name == "rooms-wide":
            comp = _load(out, "composition.json")
            cert = config["certificates"]["values"][0]
            # the ring coupling is circulant: M^T M has largest eigenvalue 4
            # (all mu are 1), so the exact margin is -(4 Xbar11 + Xbar22)
            exact = -(4.0 * cert["Xbar11"][0][0] + cert["Xbar22"][0][0])
            margin = comp["lmi_margin"]
            if not (margin > 0 and abs(margin - exact) <= 1e-6 * abs(exact)):
                failures.append(f"lmi_margin {margin!r} != circulant {exact!r}")
            if not comp.get("gershgorin", {}).get("ok"):
                failures.append("Gershgorin fast check not ok")
        if workload.name == "rooms-stoch":
            value = _load(out, "controller.json")["min_value_on_winning"]
            if not (0.0 <= value <= 1.0 and abs(value - STOCH_MIN_VALUE) <= 1e-9):
                failures.append(f"min_value_on_winning {value!r} != {STOCH_MIN_VALUE!r}")
    except (OSError, KeyError, TypeError, ValueError) as exc:
        failures.append(f"unreadable artifact: {exc!r}")
    return failures
