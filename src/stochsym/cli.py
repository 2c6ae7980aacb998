"""End-to-end pipeline driver: config ingestion, demo generator, stage orchestration.

A single JSON document describes the network, the sampled-data model, the
certificates (given or solved), the grids, the safety objective, the bound
query, and the Monte Carlo settings.  Stages run in the fixed order

    verify -> compose -> abstract -> synthesize -> bound -> simulate

and any requested subset must be a prefix of that order.  Each stage writes
its artifact into the output directory; runs are deterministic given
(config, seed), so repeated runs produce byte-identical files.

Exit codes: 0 ok, 2 a verified condition is violated (the failing condition
tag is printed), 3 config error, 4 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import numbers
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import abstraction as abst
from . import bounds as bnd
from . import composition as comp
from . import certificates as cert_mod
from . import model
from . import runtime as rt
from . import synthesis as synth
from .csr import CSR
from .errors import (
    CheckFailed,
    ConfigError,
    DimensionMismatch,
    EmptyBox,
    Infeasible,
    NonFiniteEntry,
    NotWellPosed,
    StaleControllerTable,
    StochsymError,
    TooFewRooms,
    write_json,
)

logger = logging.getLogger(__name__)

STAGES = ("verify", "compose", "abstract", "synthesize", "bound", "simulate")

EXIT_OK = 0
EXIT_CONDITION = 2
EXIT_CONFIG = 3
EXIT_RUNTIME = 4


# ---------------------------------------------------------------------------
# case-study generator

def circular_coupling(n: int) -> CSR:
    """Ring coupling, as CSR: each internal input is the sum of the two neighbor outputs."""
    if n < 3:
        raise TooFewRooms(n)
    left, right = (np.arange(n) - 1) % n, (np.arange(n) + 1) % n
    # ascending columns per row; np.sort would page in ~0.25 MB of sort kernels
    cols = np.stack([np.minimum(left, right), np.maximum(left, right)], axis=1)
    return CSR(np.ones(2 * n), cols.ravel(), 2 * np.arange(n + 1), (n, n))


def generate_rooms(
    n: int = 100,
    eta: float = 0.05,
    beta: float = 0.005,
    theta: float = 0.01,
    t_h: float = 50.0,
    t_e: float = -1.0,
    g: float = 0.5,
    tau: float = 0.1,
    kappa_bar: float = 0.499,
    pi: float = 1.0,
    kappa_target: float = 0.5,
    tracking_rate: float = 200.0,
    seed: int = 7,
    n_trials: int = 10000,
    n_substeps: int = 40,
    epsilon: float = 0.5,
    horizon: int = 12,
    state_width: float = 0.005,
    input_step: float = 1e-4,
    input_range: float = 0.01,
    out_dir: str = "out",
) -> dict:
    """Pipeline config for a ring of identical heated rooms.

    Each room is scalar with A = -2 eta - beta, B = theta T_h, D = eta,
    b = beta T_e, G = g, unit output maps, and comfort band [20, 21].
    Certificate seeds use M_bar = P = 1, Q = A/B, H = D/B, the stated
    (pi, kappa_bar) and the supply-rate blocks matching them at tau; the
    decay rate is back-computed from the target contraction.  When the
    actuation gain is zero no seeds are emitted and the pipeline is left to
    solve for candidates (which is then infeasible).

    `tracking_rate` sets the closed-loop rate of the refinement gain; any
    rate at or above kappa_tilde / 2 keeps every certificate check valid,
    and larger rates only tighten the simulated tracking error.  The initial
    temperature is snapped to a grid representative so both the network and
    its abstraction start identically (v0 = 0).

    The bound block carries a documented `psi_hat_override`, back-solved so
    the two-case bound reproduces the reported 91% success level at
    eps = 0.5 over 12 steps; the formula-derived defect (which does not
    reproduce the reported per-room value of 1.17e-10) is written alongside
    in the bound artifact for audit.
    """
    if n < 3:
        raise TooFewRooms(n)
    a = -2.0 * eta - beta
    b_gain = theta * t_h
    bias = beta * t_e

    system = {
        "A": [[a]],
        "B": [[b_gain]],
        "C1": [[1.0]],
        "C2": [[1.0]],
        "D": [[eta]],
        "G": [[g]],
        "b": [bias],
        "state_box": {"lower": [20.0], "upper": [21.0]},
        "input_box": {"lower": [-(input_range + 0.5 * input_step)],
                      "upper": [input_range + 0.5 * input_step]},
        "internal_box": {"lower": [40.0], "upper": [42.0]},
    }

    config: dict = {
        "name": f"rooms-{n}",
        "systems": {"replicate": n, "template": system},
        "interconnection": {"coupling": {"kind": "circular"}},
        "discretization": {"tau": tau, "D_tilde": [[0.0]], "R_tilde": [[0.0]]},
        "grid": {
            "state_widths": [state_width],
            "input_widths": [input_step],
            "internal_widths": [2.0],
        },
        "safety": {"lower": [20.0], "upper": [21.0], "contraction": 0.0,
                   "horizon": None},
        "stages": list(STAGES),
        "output_dir": out_dir,
    }

    if b_gain != 0.0:
        kappa_tilde = cert_mod.kappa_tilde_from(kappa_bar, kappa_target, tau)
        rate = max(tracking_rate, 0.5 * kappa_tilde)
        e_term = math.exp(-kappa_tilde * tau)
        config["certificates"] = {
            "mode": "given",
            "values": [{
                "M_bar": [[1.0]],
                "K": [[(-rate - a) / b_gain]],
                "P": [[1.0]],
                "Q": [[a / b_gain]],
                "H": [[eta / b_gain]],
                "kappa_tilde": kappa_tilde,
                "pi": pi,
                "kappa_bar": kappa_bar,
                "Xbar11": [[e_term * tau * eta**2]],
                "Xbar12": [[0.0]],
                "Xbar21": [[0.0]],
                "Xbar22": [[-pi * e_term * tau * theta**2 * t_h**2]],
                "eta_bar": 1.0,
                "eta_bar_p": 1.0,
                "eta_bar_pp": 1.0,
            }],
        }
    else:
        config["certificates"] = {
            "mode": "solve",
            "kappa_tilde": cert_mod.kappa_tilde_from(kappa_bar, kappa_target, tau),
            "pi": pi,
            "kappa_bar": kappa_bar,
            "Xbar11": [[0.0]],
            "Xbar12": [[0.0]],
            "Xbar21": [[0.0]],
            "Xbar22": [[0.0]],
        }

    state_grid = abst.UniformGrid.cover(
        model.Box([20.0], [21.0]), [state_width]
    )
    x0_room = float(abst.quantize(state_grid, [20.5]).representative[0])

    reported = {
        "kappa": 0.5,
        "psi_per_subsystem": 1.17e-10,
        "success": 0.91,
    }
    if n == 100:
        # network-level reference values are documented for 100 rooms only
        reported["rho_ext_slope"] = 20.0
        reported["psi_network"] = 1.17e-8
    config["bound"] = {
        "epsilon": epsilon,
        "horizon": horizon,
        "psi_hat_override": 0.25 * (1.0 - 0.91 ** (1.0 / 12.0)),
        "reported": reported,
        "notes": (
            "psi_hat_override is back-solved to reproduce the reported 91% "
            "success level; the formula-derived defect is reported alongside "
            "and does not reproduce the reported per-room value."
        ),
    }
    config["simulation"] = {
        "n_trials": n_trials,
        "n_substeps": n_substeps,
        "seed": seed,
        "x0": [x0_room] * n,
        "record_outputs": False,
    }
    return config


# ---------------------------------------------------------------------------
# config resolution

@dataclass(eq=False)
class PipelineBundle:
    """A resolved config: `systems`, `discs`, `grids` and `certs` (given or
    solved) hold one entry per group; subsystem i is in group
    `ic.group_of[i]`, and groups are ordered by their lowest member.  `bound`
    and `simulation` hold their blocks' values by key, read as `_BOUND` and
    `_SIMULATION` say.  `x0` is `simulation.x0` (empty when absent) and `v0`
    the bound's initial storage, the storage at x0 and its quantization: None
    without x0 or when a group has no grid to quantize x0 in.
    `monte_carlo` is the simulate stage's settings, set by `_check_stages`
    when that stage runs."""

    name: str
    systems: list
    ic: model.InterconnectionSpec
    discs: list
    certs: list
    grids: list
    safety: synth.SafetySpec | None
    bound: dict
    simulation: dict
    stages: list
    out_dir: Path
    x0: np.ndarray
    v0: float | None
    monte_carlo: rt.SimConfig | None = None


def _object(value, what: str, keys) -> dict:
    """`value` if it is a JSON object whose every key is in `keys`; anything
    else is a ConfigError naming `what`, or the key (`what` "" is the top
    level) and what states it now if it is a `_MOVED` setting."""
    if not isinstance(value, dict):
        raise ConfigError(f"'{what}' must be a JSON object, got {type(value).__name__}")
    for key in value:
        if key not in keys:
            path = f"{what}.{key}" if what else key
            now = _MOVED.get(re.sub(r"\[\d+\]", "", path))  # one entry for every list index
            raise ConfigError(f"{path} is no longer read: {now}" if now
                              else f"{path} is not a known key")
    return value


def _field(block: dict, what: str, name: str, kind, default=...):
    """`kind(block[name])` (of `default` when absent, None kept if the default
    is None); a missing or malformed field is a ConfigError that names its
    dotted path `what.name` (`name` alone when `what` is "", the top level)."""
    path = f"{what}.{name}" if what else name
    value = block.get(name, default)
    if value is ...:
        raise ConfigError(f"{path} is missing")
    if value is None and default is None:
        return None
    try:
        return kind(value)
    except (TypeError, ValueError, DimensionMismatch) as exc:
        raise ConfigError(f"{path} is malformed: {exc}") from exc


def _fields(d, what: str, table: dict) -> dict:
    """Every field of the object `d` at `what` (an absent object has none
    set), read as `table[name] = (reader, default)` says; a key not in
    `table` is a ConfigError naming its path."""
    d = {} if d is None else _object(d, what, table)
    return {name: _field(d, what, name, kind, default) for name, (kind, default) in table.items()}


def _as_is(value):
    return value


def _numeric(value):
    """`value`, a JSON number or nested list of numbers, if no true or false
    is in it: float() and numpy would read one as 1.0 or 0.0."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {json.dumps(value)}")
    if isinstance(value, list):
        for v in value:
            if isinstance(v, (bool, list)):
                _numeric(v)
    return value


def _real(value) -> float:
    return float(_numeric(value))


def _matrix(value) -> np.ndarray:
    return model.as_matrix(_numeric(value))


def _vector(value) -> np.ndarray:
    return model.as_vector(_numeric(value))


def _finite(value) -> np.ndarray:
    v = _vector(value)
    if not np.isfinite(v).all():
        raise ValueError(f"expected finite entries, got {value!r}")
    return v


def _integer(value) -> int:
    """An integral JSON number (4 or 4.0); a bool or a fraction is malformed."""
    if not isinstance(_numeric(value), numbers.Real):
        raise TypeError(f"expected an integer, got {value!r}")
    if not float(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _count(low: int):
    """A reader of integers (as `_integer` reads them) of at least `low`."""
    def read(value) -> int:
        if (value := _integer(value)) < low:
            raise ValueError(f"expected an integer >= {low}, got {value}")
        return value
    return read


def _positive(value) -> float:
    value = _real(value)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"expected a finite number > 0, got {value!r}")
    return value


def _nonnegative(value) -> float:
    value = _real(value)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"expected a finite number >= 0, got {value!r}")
    return value


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _prefix_of_stages(stages) -> list:
    """`stages` as a list, if it is a prefix of STAGES."""
    stages = list(stages)
    if tuple(stages) != STAGES[: len(stages)]:
        raise ConfigError(f"stages must be a prefix of {list(STAGES)}, got {stages}")
    return stages


# The config schema: one table per config object, `name: (reader, default)`
# with ... where a config must state the field.  Grid entries and the coupling,
# whose reading depends on other values, list only their keys; bound.reported
# may hold any key.  A key that is in no table is a config error.

_TOP = {"name": (_as_is, "network"), "stages": (_prefix_of_stages, STAGES),
        "output_dir": (Path, "out"),
        **dict.fromkeys(("systems", "interconnection", "discretization", "grid", "safety",
                         "certificates", "bound", "simulation"), (_as_is, None))}
_SYSTEMS = {"replicate": (_integer, ...), "template": (_as_is, ...)}
_BOXES = ("state_box", "input_box", "internal_box")
_SYSTEM = {**dict.fromkeys(("A", "B", "C1", "C2", "D", "G"), (_matrix, ...)),
           "b": (_vector, ...), **dict.fromkeys(_BOXES, (_as_is, ...))}
_BOX = dict.fromkeys(("lower", "upper"), (_vector, ...))
_INTERCONNECTION = {"coupling": (_as_is, ...),
                    "mu": (lambda v: model.positive_weights(_numeric(v)), None)}
_DISCRETIZATION = {"tau": (_positive, ...), "D_tilde": (_matrix, [[0.0]]),
                   "R_tilde": (_matrix, [[0.0]])}
_GRID = ("state_widths", "input_widths", "internal_widths")
_SAFETY = {**dict.fromkeys(("lower", "upper"), (_finite, ...)),
           "contraction": (_nonnegative, 0.0), "horizon": (_count(1), None)}
#: a given certificate's fields, capitalized ones as matrices
_CERT = {f.name: (_matrix if f.name[0].isupper() else _real,
                  ... if f.default is dataclasses.MISSING else f.default)
         for f in dataclasses.fields(cert_mod.StorageCertificate)}
#: the `certificates` block by mode; solve mode states the shared fields and
#: the solve finds the rest
_CERTIFICATES = {
    "given": {"mode": (_as_is, None), "values": (_as_is, ...)},
    "solve": {"mode": (_as_is, None), "pi": (_real, 1.0),
              **{name: _CERT[name] for name in ("kappa_tilde", "kappa_bar", "Xbar11",
                                                "Xbar12", "Xbar21", "Xbar22")}},
}
#: `reported` and `notes` are copied into bound.json as they are
_BOUND = {"epsilon": (_positive, None), "horizon": (_count(0), None),
          "psi_hat_override": (_nonnegative, None),
          "reported": (_as_is, None), "notes": (_as_is, None)}
_SIMULATION = {"n_trials": (_count(1), None), "n_substeps": (_count(1), 20),
               "seed": (_count(0), 0), "x0": (_vector, []),
               "record_outputs": (_boolean, False),
               # read by nothing; the benchmark's workload configs still set it
               "check_convergence": (_as_is, None)}

#: settings that are no longer read, with what states each now; a config that
#: still sets one is an error, because ignoring it would change a result unsaid
_MOVED = {
    "simulation.epsilon": "the simulation checks bound.epsilon",
    "simulation.horizon": "the simulation runs bound.horizon steps",
    "bound.nu_hat_sup": "it is derived from the input grids",
    "bound.alpha_mode": "alpha is min_i(mu_i a_i) s^2 for every output map",
    "bound.v0": "it is the storage at simulation.x0 and its quantization",
    "interconnection.M": 'give interconnection.coupling {"kind": "dense", "M": ...}',
    "interconnection.coupling.n": "a ring has one node per subsystem",
    "certificates.values.tau": "it is the group's discretization.tau",
    "certificates.values.delta": "it is the cell radius of the group's state grid",
    "certificates.delta": "it is the cell radius of each group's state grid",
    "certificates.values.gamma_slope": "it is derived from M_bar, P and the state box",
    "certificates.gamma_slope": "it is derived from M_bar, P and the state box",
}


def _box(f: dict, what: str) -> model.Box:
    """The box of the `lower` and `upper` fields `f` of the object at `what`."""
    if f["lower"].shape != f["upper"].shape:
        raise ConfigError(f"{what}.upper has {f['upper'].size} entries, "
                          f"{what}.lower {f['lower'].size}")
    return model.Box(f["lower"], f["upper"])


def _system_from(d, what: str, base_dir: Path) -> model.AffineSystem:
    """The subsystem object `d` (at config path `what`), inline or a file reference."""
    if isinstance(d, dict) and "file" in d:
        ref = base_dir / _fields(d, what, {"file": (Path, ...)})["file"]
        try:
            d = json.loads(ref.read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{what}.file: cannot read {ref} as JSON: {exc}") from exc
        _object(d, f"{what}.file", _SYSTEM)
    f = _fields(d, what, _SYSTEM)
    s = model.AffineSystem(**{**f, **{name: _box(_fields(f[name], f"{what}.{name}", _BOX),
                                                 f"{what}.{name}") for name in _BOXES}})
    for name, why in (("state_box", "the gamma slope is derived over it"),
                      ("input_box", "the abstraction grid covers it"),
                      ("internal_box", "verify takes its sup norm and the grid covers it")):
        if not getattr(s, name).is_bounded():  # checked before a grid covers it
            raise ConfigError(f"{what}.{name} must be bounded: {why}")
    return s


def _grid_from(s: model.AffineSystem, gdict, what: str) -> abst.AbstractionGrid | None:
    if gdict is None:
        return None
    _object(gdict, what, _GRID)

    def cover(box, name):
        return _field(gdict, what, name, lambda w: abst.UniformGrid.cover(box, _numeric(w)))
    return abst.AbstractionGrid(
        state=cover(s.state_box, "state_widths"),
        input=cover(s.input_box, "input_widths"),
        internal=cover(s.internal_box, "internal_widths") if s.p else None)


def _certificate(s: model.AffineSystem, fields: dict) -> cert_mod.StorageCertificate:
    """The certificate of `fields`; solve mode's lack the candidate matrices, solved
    here for system `s` (a condition the solve cannot meet is a tagged CheckFailed)."""
    if "M_bar" not in fields:
        try:
            cand = cert_mod.solve_candidates(s, fields["kappa_tilde"])
        except Infeasible as exc:
            if exc.condition is not None:
                raise CheckFailed(exc.condition, exc.reason) from exc
            raise
        fields = {**fields, **vars(cand)}
    return cert_mod.StorageCertificate(**fields)


def _entries(spec, n: int, what: str) -> list:
    """(entry, config path) pairs of a field given once (maybe as a list of one) or n times."""
    if not isinstance(spec, list):
        return [(spec, what)]
    if len(spec) not in (1, n):
        raise ConfigError(f"{what}: expected 1 or {n} entries, got {len(spec)}")
    return [(entry, f"{what}[{i}]") for i, entry in enumerate(spec)]


def _check_group(s: model.AffineSystem, d: model.DiscretizationSpec, grid, cert: dict,
                 safety, sys_path: str, disc_path: str, grid_path: str, cert_path: str) -> None:
    """A group's system, then its discretization, grid, certificate fields
    and the safety box against it; a ConfigError names the entry at fault."""
    try:
        model.validate_system(s)
    except (DimensionMismatch, NonFiniteEntry, EmptyBox) as exc:
        raise ConfigError(f"{sys_path}.{exc.field} is malformed: {exc}") from exc
    n, m, p, q2 = s.n, s.m, s.p, s.q2
    if m != n:
        raise ConfigError(f"{sys_path}.B has shape {s.B.shape}: the refinement law "
                          "needs a square B (external input dim == state dim)")
    shapes = {"M_bar": (n, n), "K": (m, n), "P": (n, n), "Q": (m, n), "H": (m, p),
              "Xbar11": (p, p), "Xbar12": (p, q2), "Xbar21": (q2, p), "Xbar22": (q2, q2)}
    # R_tilde may draw any number of normals, one per column
    want = {f"{disc_path}.D_tilde": (d.D_tilde, (n, p)),
            f"{disc_path}.R_tilde": (d.R_tilde, (n, d.R_tilde.shape[1])),
            **{f"{cert_path}.{name}": (value, shapes[name])
               for name, value in cert.items() if name in shapes}}
    for path, (value, shape) in want.items():
        if value.shape != shape:
            raise ConfigError(f"{path} has shape {value.shape}, {sys_path} needs {shape}")
    if grid is None and not d.noise_free:
        raise ConfigError(f"{grid_path} is missing: the defect of a nonzero {disc_path}.R_tilde "
                          "needs the state grid's cell radius")
    if safety is not None and safety.safe_box.dim != s.q1:
        raise ConfigError(f"safety.lower has {safety.safe_box.dim} entries, "
                          f"{sys_path}.C1 has {s.q1} rows")


def _value_key(value):
    """Equal for equal values: dataclasses and dicts field by field, the rest as float arrays."""
    if dataclasses.is_dataclass(value):
        return tuple(_value_key(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return tuple(_value_key(v) for v in value.values())
    if value is None:
        return None
    # shapes keep arrays of different sizes from running into each other
    a = np.asarray(value, dtype=float)
    return a.shape, a.tobytes()


def _distinct(objects: list, n: int) -> tuple[list, np.ndarray]:
    """The distinct values among `objects` (one for all n subsystems, or one
    each), and each subsystem's position among them."""
    if len(objects) == 1:  # a broadcast entry: no key is needed
        return objects, np.zeros(n, dtype=np.intp)
    seen: dict = {}  # value key -> (position among the distinct values, first object)
    index = np.array([seen.setdefault(_value_key(o), (len(seen), o))[0] for o in objects])
    return [o for _, o in seen.values()], np.broadcast_to(index, n)


def _grouping(indices: list, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(group_of, first): a group per distinct row of the per-kind `indices`,
    numbered in order of its lowest member `first`."""
    # positions number values in order of first appearance, so an index
    # whose largest entry is 0 holds one value, which splits no group
    varying = [idx for idx in indices if idx.max() > 0]
    if not varying:
        return np.zeros(n, dtype=np.intp), np.zeros(1, dtype=np.intp)
    code = np.zeros(n, dtype=np.intp)
    for idx in varying:
        # a pair of indices below n each fits an intp as one code
        _, code = np.unique(code * (int(idx.max()) + 1) + idx, return_inverse=True)
    _, first, code = np.unique(code, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[code], np.sort(first)


def _coupling_from(spec, n: int):
    """The coupling matrix of `n` subsystems an `interconnection.coupling` object describes."""
    what = "interconnection.coupling"
    kind = _object(spec, what, ("kind", "M")).get("kind")
    if kind == "circular":
        _object(spec, what, ("kind",))  # a ring is given by its kind alone
        try:
            return circular_coupling(n)
        except TooFewRooms as exc:
            raise ConfigError(f"{what} is malformed: {exc} (a ring has one node per "
                              "subsystem: systems.replicate, or one per systems entry)") from exc
    if kind == "dense":
        return _field(spec, what, "M", _matrix)
    raise ConfigError(f"{what}.kind must be 'circular' or 'dense', got {kind!r}")


def _initial_v0(bundle: PipelineBundle, x0: np.ndarray) -> float:
    """Weighted storage at the initial pair (x0, quantized x0).

    One grid lookup per group; the per-subsystem terms are then added one
    at a time in subsystem order, the order of a scalar per-room loop.
    """
    group_of = bundle.ic.group_of
    start = model.member_starts([s.n for s in bundle.systems], group_of)
    terms = np.zeros(group_of.size + 1)  # a leading 0.0, the loop's initial total
    for member, s, c, grid in zip(model.group_members(group_of), bundle.systems,
                                  bundle.certs, bundle.grids):
        xi = x0[start[member][:, None] + np.arange(s.n)]
        idx = grid.state.locate_many(xi)
        outside = member[idx == grid.state.n_points]
        if outside.size:
            raise ConfigError(f"simulation.x0 puts subsystem {outside[0]} outside the state grid")
        mismatch = xi - grid.state.centers()[idx] @ c.P.T
        terms[1 + member] = bundle.ic.mu[member] * (mismatch @ c.M_bar * mismatch).sum(axis=1)
    # a cumulative sum adds left to right, one term at a time
    return float(terms.cumsum()[-1])


def load_config(source) -> PipelineBundle:
    """Resolve a config document (dict or JSON path) into model objects.

    System entries may be inline dicts or `{"file": "..."}` references,
    resolved relative to the config file's directory.  Every object is read
    against its table in the config schema above, so a key the schema does
    not know, or a missing or malformed field, is a ConfigError naming its
    dotted path.  Each entry of a per-subsystem field (system,
    discretization, grid, given certificate) is built once, and subsystems
    whose four objects are equal by value form one group: the bundle holds
    each group's objects once and `ic.group_of`.  Each group's objects and
    the safety box are checked against its system.  Solve mode then solves
    each group's certificate (`CheckFailed` for a condition it cannot meet),
    and `simulation.x0` is checked against the network's size and each grid.
    What only some stages need is checked by `_check_stages`.
    """
    base_dir = Path.cwd()
    if isinstance(source, (str, Path)):
        path = Path(source)
        base_dir = path.parent
        try:
            raw = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path} as JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} is not a JSON object")
    elif isinstance(source, dict):
        raw = source
    else:
        raise ConfigError(f"unsupported config source {type(source)!r}")
    top = _fields(raw, "", _TOP)

    sys_spec = top["systems"]
    if isinstance(sys_spec, list):
        sys_entries = [(d, f"systems[{i}]") for i, d in enumerate(sys_spec)]
        n = len(sys_entries)
    else:
        sys_spec = _fields(sys_spec, "systems", _SYSTEMS)
        sys_entries, n = [(sys_spec["template"], "systems.template")], sys_spec["replicate"]
    if n <= 0:
        raise ConfigError("at least one subsystem required")
    systems, sys_idx = _distinct([_system_from(d, what, base_dir)
                                  for d, what in sys_entries], n)
    disc_entries = _entries(top["discretization"], n, "discretization")
    discs, disc_idx = _distinct([model.DiscretizationSpec(**_fields(*e, _DISCRETIZATION))
                                 for e in disc_entries], n)

    # a grid covers its system's boxes: one per (system, grid entry) pair
    entries = _entries(top["grid"], n, "grid")
    entry_idx = np.broadcast_to(np.arange(len(entries)), n)
    pair_of, pairs = _grouping([sys_idx, entry_idx], n)
    grids, grid_idx = _distinct([_grid_from(systems[sys_idx[i]], *entries[entry_idx[i]])
                                 for i in pairs], pairs.size)
    grid_idx = grid_idx[pair_of]

    cert_cfg = top["certificates"]
    mode = cert_cfg.get("mode", "given") if isinstance(cert_cfg, dict) else "given"
    if mode not in ("given", "solve"):
        raise ConfigError(f"certificates.mode must be 'given' or 'solve', got {mode!r}")
    cert_cfg = _fields(cert_cfg, "certificates", _CERTIFICATES[mode])
    del cert_cfg["mode"]
    if mode == "given":
        cert_entries = _entries(cert_cfg["values"], n, "certificates.values")
        certs, cert_idx = _distinct([_fields(*e, _CERT) for e in cert_entries], n)
    else:
        # shared fields, whose solve per system splits no group
        cert_entries = [(None, "certificates")]
        certs, cert_idx = _distinct([cert_cfg], n)

    group_of, first = _grouping([sys_idx, disc_idx, grid_idx, cert_idx], n)
    systems = [systems[k] for k in sys_idx[first]]
    discs = [discs[k] for k in disc_idx[first]]
    grids = [grids[k] for k in grid_idx[first]]
    certs = [certs[k] for k in cert_idx[first]]

    ic_spec = _fields(top["interconnection"], "interconnection", _INTERCONNECTION)
    m = _coupling_from(ic_spec["coupling"], n)
    mu = np.ones(n) if ic_spec["mu"] is None else ic_spec["mu"]
    try:
        ic = model.InterconnectionSpec(M=m, mu=mu, group_of=group_of,
                                       subsystem_dims=[(s.n, s.m, s.p, s.q2) for s in systems])
    except DimensionMismatch as exc:
        if exc.field == "mu":
            raise ConfigError(f"interconnection.mu is malformed: {exc}") from exc
        sys_path = "systems[i]" if isinstance(sys_spec, list) else "systems.template"
        raise ConfigError(f"interconnection.coupling is malformed: {exc} (a row per column "
                          f"of {sys_path}.D, a column per row of {sys_path}.C2)") from exc

    safety = None
    if top["safety"] is not None:
        f = _fields(top["safety"], "safety", _SAFETY)
        try:
            safety = synth.SafetySpec(_box(f, "safety"), f["contraction"], f["horizon"])
        except EmptyBox as exc:
            raise ConfigError(f"safety is malformed: {exc}") from exc
    bound = _fields(top["bound"], "bound", _BOUND)
    # bound.reported may hold any key; the network defect it states is checked
    rep = {} if (rep := bound["reported"]) is None else _object(rep, "bound.reported", rep)
    psi_network, psi_room = (_field(rep, "bound.reported", key, _real, None)
                             for key in ("psi_network", "psi_per_subsystem"))
    bound["reported_psi"] = (psi_network if psi_network is not None
                             else None if psi_room is None else psi_room * n)
    simulation = _fields(top["simulation"], "simulation", _SIMULATION)
    for g, i in enumerate(first):
        # the entries of the group's lowest member name the group's objects
        _check_group(systems[g], discs[g], grids[g], certs[g], safety,
                     *(e[i if len(e) > 1 else 0][1]
                       for e in (sys_entries, disc_entries, entries, cert_entries)))
    x0 = simulation["x0"]
    n_states = model.member_starts([s.n for s in systems], group_of)[-1]
    if x0.size and x0.shape != (n_states,):
        raise ConfigError(f"simulation.x0 has {x0.size} values, the network has "
                          f"{n_states} states")
    certs = [_certificate(s, c) for s, c in zip(systems, certs)]


    bundle = PipelineBundle(
        name=top["name"],
        systems=systems,
        ic=ic,
        discs=discs,
        certs=certs,
        grids=grids,
        safety=safety,
        bound=bound,
        simulation=simulation,
        stages=top["stages"],
        out_dir=top["output_dir"],
        x0=x0,
        v0=None,
    )
    if x0.size and all(g is not None for g in grids):
        # x0 outside a grid is a ConfigError here, before any stage runs
        bundle.v0 = _initial_v0(bundle, x0)
    return bundle


def _check_stages(bundle: PipelineBundle) -> None:
    """What the stages to run need of the config beyond what `load_config`
    checks, so that a run stops at such an error before its first artifact;
    sets `bundle.monte_carlo` when the simulate stage runs."""
    stages = bundle.stages
    if "abstract" in stages:
        for member, g in zip(model.group_members(bundle.ic.group_of), bundle.grids):
            if g is None:
                raise ConfigError(f"subsystem {member[0]} has no grid; 'grid' is required "
                                  "for abstraction stages")
    if "synthesize" in stages:
        if bundle.safety is None:
            raise ConfigError("'safety' block required for the synthesize stage")
        if bundle.safety.horizon is None and not all(d.noise_free for d in bundle.discs):
            raise ConfigError("stochastic abstractions need a finite safety.horizon")
    if "bound" in stages:
        for name in ("epsilon", "horizon"):
            if bundle.bound[name] is None:
                raise ConfigError(f"bound.{name} is missing")
        if not bundle.x0.size:  # v0, the bound's initial storage, is the storage at x0
            raise ConfigError("simulation.x0 is missing")
    if "simulate" in stages:
        sim = bundle.simulation
        if sim["n_trials"] is None:
            raise ConfigError("simulation.n_trials is missing")
        bundle.monte_carlo = rt.SimConfig(
            n_trials=sim["n_trials"], horizon=bundle.bound["horizon"],
            epsilon=bundle.bound["epsilon"], n_substeps=sim["n_substeps"],
            rng_seed=sim["seed"], record_outputs=sim["record_outputs"])
        rt.SimConfig.workers()
        # the runtime's rules: one sampling time, and a row per step in a time-varying table
        if len({d.tau for d in bundle.discs}) != 1:
            raise ConfigError("discretization.tau must be one value for every subsystem")
        steps = bundle.safety.horizon
        if steps is not None and steps < bundle.monte_carlo.horizon:
            raise StaleControllerTable(0, steps, bundle.monte_carlo.horizon)


# ---------------------------------------------------------------------------
# stage implementations

def _stage_verify(bundle: PipelineBundle, ctx: dict) -> None:
    try:
        model.check_well_posed(
            bundle.ic,
            [s.internal_output_box() for s in bundle.systems],
            [s.internal_box for s in bundle.systems],
        )
    except NotWellPosed as exc:
        raise CheckFailed(model.CONDITION_WELL_POSED, str(exc)) from exc

    verdicts = []
    for member, s, c, d, grid in zip(model.group_members(bundle.ic.group_of), bundle.systems,
                                     bundle.certs, bundle.discs, bundle.grids):
        try:
            verdicts.append(cert_mod.verify(c, s, d, w_hat_bound=_internal_sup(s),
                                            delta=None if grid is None else grid.state.delta))
        except CheckFailed as exc:
            # the lowest member speaks for its group
            raise CheckFailed(exc.condition, f"subsystem {member[0]}: {exc.detail}") from exc
    # one row per group; subsystem i's row is groups[group_of[i]]
    groups = [{**v.to_dict(), "certificate": c.to_dict()}
              for v, c in zip(verdicts, bundle.certs)]
    ctx["constants"] = [v.constants for v in verdicts]
    write_json(ctx["out"] / "certificates.json",
               {"group_of": bundle.ic.group_of.tolist(), "groups": groups},
               one_line=("group_of",))
    logger.info("verify: %d subsystems certified in %d group(s)",
                bundle.ic.n_subsystems, len(bundle.certs))


def _internal_sup(s: model.AffineSystem) -> float:
    """Sup norm of the abstract internal input set (for the feedthrough defect term)."""
    box = s.internal_box  # the norm of an empty box is 0
    return float(np.linalg.norm(np.maximum(np.abs(box.lower), np.abs(box.upper))))


def _stage_compose(bundle: PipelineBundle, ctx: dict) -> None:
    mu = bundle.ic.mu
    blocks = comp.supply_blocks(bundle.certs, mu, bundle.ic.group_of)
    form = comp.network_form(bundle.ic.M, blocks)
    lmi = comp.check_compositional_lmi(form)
    if not lmi.ok:
        tag = (comp.CONDITION_NETWORK_LMI if lmi.violated
               else comp.CONDITION_NETWORK_LMI_INCONCLUSIVE)
        raise CheckFailed(tag, f"largest eigenvalue in [{lmi.lower:.3e}, "
                               f"{lmi.margin:.3e}], tolerance {lmi.tol:.3e}")

    # The abstract network reuses the concrete coupling matrix, so the
    # equality condition holds structurally; the abstract internal outputs
    # range over the state-grid cover, checked against the internal boxes.
    # The check needs every subsystem's grid; without them it is skipped and
    # composition.json reports null.
    has_grids = all(g is not None for g in bundle.grids)
    if has_grids:
        boxes = [g.state.as_box().linear_image(s.C2 @ c.P)
                 for s, c, g in zip(bundle.systems, bundle.certs, bundle.grids)]
        try:
            model.check_well_posed(bundle.ic, boxes,
                                   [s.internal_box for s in bundle.systems])
        except NotWellPosed as exc:
            raise CheckFailed(comp.CONDITION_ABSTRACT_WELL_POSED, str(exc)) from exc

    ssf = comp.compose_ssf(ctx["constants"], mu, group_of=bundle.ic.group_of)
    ctx["ssf"] = ssf
    write_json(ctx["out"] / "composition.json", {
        "abstract_well_posed": has_grids or None,
        "coupling_equality": "identical by construction",
        "gershgorin": {"ok": lmi.gershgorin.ok, "bound": lmi.gershgorin.bound},
        # the bracket on the form's largest eigenvalue; lmi_margin is -upper end
        "lmi_bracket": [lmi.lower, lmi.margin],
        "lmi_factorizations": lmi.factorizations,
        "lmi_margin": -lmi.margin,
        "q_tilde": bundle.ic.M.shape[1],
        "ssf": ssf.to_dict(),
        # X_cmp is rebuilt from certificates.json and mu; only its shape is written
        "x_cmp_shape": list(blocks.shape),
    })
    logger.info("compose: network LMI margin %.3e", -lmi.margin)


def _stage_abstract(bundle: PipelineBundle, ctx: dict) -> None:
    built = []
    for g_idx, (s, d, grid, c) in enumerate(zip(bundle.systems, bundle.discs,
                                               bundle.grids, bundle.certs)):
        if d.noise_free:
            fa = abst.build_deterministic(s, d, grid, P=c.P)
        else:
            fa = abst.build_stochastic(s, d, grid, P=c.P)
        built.append(fa)
        suffix = "" if len(bundle.certs) == 1 else f"_{g_idx}"
        abst.export_abstraction(fa, ctx["out"] / f"abstraction{suffix}.json",
                                ctx["out"] / f"abstraction{suffix}.csv")
    ctx["abstractions"] = built
    logger.info("abstract: %d unique abstraction(s) for %d subsystems",
                len(built), bundle.ic.n_subsystems)


def _stage_synthesize(bundle: PipelineBundle, ctx: dict) -> None:
    controllers = []
    for g_idx, fa in enumerate(ctx["abstractions"]):
        if bundle.safety.horizon is not None:
            ctrl = synth.safety_value_iteration(fa, bundle.safety)
        else:  # the abstraction is deterministic: `_check_stages` checked it
            ctrl = synth.safety_fixpoint(fa, bundle.safety)
        if ctrl.winning_set.size == 0:
            raise CheckFailed("winning-set",
                              f"abstraction group {g_idx} has an empty winning set")
        controllers.append(ctrl)
        suffix = "" if len(ctx["abstractions"]) == 1 else f"_{g_idx}"
        synth.write_controller(ctrl, bundle.safety,
                               ctx["out"] / f"controller{suffix}.csv",
                               ctx["out"] / f"controller{suffix}.json")
    ctx["controllers"] = controllers
    worst = min(range(len(controllers)), key=lambda g: controllers[g].winning_fraction)
    logger.info("synthesize: smallest winning fraction %.3f (abstraction group %d of %d)",
                controllers[worst].winning_fraction, worst, len(controllers))


def _stage_bound(bundle: PipelineBundle, ctx: dict) -> None:
    cfg = bundle.bound
    ssf = ctx["ssf"]
    epsilon, horizon, override = cfg["epsilon"], cfg["horizon"], cfg["psi_hat_override"]

    # the sup norm of the stacked abstract input; the abstract stage ran, so
    # every group has a grid, and its members share it: one norm per group
    sup = np.array([np.max(np.linalg.norm(g.input.centers(), axis=1))
                    for g in bundle.grids])[bundle.ic.group_of]
    nu_sup = math.sqrt(math.fsum((sup * sup).tolist()))
    psi_hat_formula = bnd.psi_hat(ssf.rho_ext_slope, nu_sup, ssf.psi)
    psi_hat_used = override if override is not None else psi_hat_formula

    alpha_eps = ssf.alpha(epsilon)
    bound = bnd.closeness_bound(epsilon, alpha_eps, ssf.kappa, psi_hat_used,
                                bundle.v0, horizon)
    payload = bound.to_dict()
    # without an override the headline is the formula's own bound
    formula = bound if override is None else bnd.violation_probability(
        alpha_eps, ssf.kappa, psi_hat_formula, bundle.v0, horizon)
    payload.update({
        "alpha_of_eps": alpha_eps,
        # the formula's own bound is 1 (says nothing) when its defect is too large
        "formula_vacuous": formula.violation_bound >= 1.0,
        "headline_source": "formula" if override is None else "override",
        "kappa": ssf.kappa,
        "nu_hat_sup": nu_sup,
        "psi_hat_formula": psi_hat_formula,
        "psi_hat_override": override,
        "psi_network_formula": ssf.psi,
    })
    for key in ("reported", "notes"):
        if cfg[key] is not None:
            payload[key] = cfg[key]
    if (ref := cfg["reported_psi"]) is not None:
        payload["reported_psi_reproduced"] = bool(
            abs(ssf.psi - ref) <= 1e-12 * max(1.0, abs(ssf.psi))
        )
    ctx["bound"] = bound
    write_json(ctx["out"] / "bound.json", payload)
    logger.info("bound: violation <= %.4f (%s)", bound.violation_bound, bound.regime)


def _stage_simulate(bundle: PipelineBundle, ctx: dict) -> None:
    bound = ctx["bound"]  # the Monte Carlo counts the event this bound bounds
    result = rt.cosimulate(bundle.systems, bundle.ic, ctx["abstractions"],
                           ctx["controllers"], bundle.certs, bundle.monte_carlo,
                           bundle.x0)
    payload = result.summary.to_dict()
    payload["theoretical_violation_bound"] = bound.violation_bound
    payload["cp95_below_theoretical"] = bool(result.summary.cp95_upper <= bound.violation_bound)
    # the sampled frequency is above the bound with 95% confidence; a warning
    # only: whether that should fail the run is left open
    payload["bound_refuted"] = bool(result.summary.cp95_lower > bound.violation_bound)
    if payload["bound_refuted"]:
        logger.warning("simulate: the violation bound %.4g is refuted: %d of %d trials "
                       "violate (cp95 lower bound %.4g)", bound.violation_bound,
                       result.summary.n_violations, result.summary.n_trials,
                       result.summary.cp95_lower)
    write_json(ctx["out"] / "simulation_summary.json", payload)
    rt.write_trajectories_csv(result, ctx["out"] / "trajectories.csv")
    logger.info("simulate: %d/%d violations (cp95 %.4f)",
                result.summary.n_violations, result.summary.n_trials,
                result.summary.cp95_upper)


_STAGE_FUNCS = {
    "verify": _stage_verify,
    "compose": _stage_compose,
    "abstract": _stage_abstract,
    "synthesize": _stage_synthesize,
    "bound": _stage_bound,
    "simulate": _stage_simulate,
}


def run_pipeline(source, stages=None, seed=None, out_dir=None) -> int:
    """Execute the requested stage prefix; returns a process exit code.

    On a condition violation the failing condition tag is printed and the
    code is 2; config problems give 3 and runtime failures 4.
    """
    try:
        bundle = load_config(source)
        if stages is not None:
            bundle.stages = _prefix_of_stages(stages)
        if out_dir is not None:
            bundle.out_dir = Path(out_dir)
        _check_stages(bundle)
        if seed is not None and bundle.monte_carlo is not None:
            bundle.monte_carlo = dataclasses.replace(bundle.monte_carlo, rng_seed=int(seed))
    except CheckFailed as exc:  # solve mode could not find a certificate
        print(f"condition violated: {exc.condition} ({exc.detail})", file=sys.stderr)
        return EXIT_CONDITION
    except (StochsymError, KeyError, TypeError, ValueError) as exc:
        # anything else raised while resolving the document is a config problem
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    ctx: dict = {"out": bundle.out_dir}
    try:
        bundle.out_dir.mkdir(parents=True, exist_ok=True)
        for stage in bundle.stages:
            logger.info("stage %s", stage)
            _STAGE_FUNCS[stage](bundle, ctx)
    except CheckFailed as exc:
        print(f"condition violated: {exc.condition} ({exc.detail})", file=sys.stderr)
        return EXIT_CONDITION
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StochsymError, OSError) as exc:
        # an artifact that cannot be written is a runtime failure too
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


# ---------------------------------------------------------------------------
# command line

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="override the simulation seed")
    p.add_argument("--out", type=str, default=None, help="override the output directory")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stochsym",
        description="compositional abstraction, certification, synthesis, "
                    "and Monte Carlo validation for networks of stochastic "
                    "affine systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a stage prefix of a pipeline config")
    run_p.add_argument("config")
    run_p.add_argument("--stages", type=str, default=None,
                       help="comma-separated stage prefix, e.g. verify,compose")
    _add_common(run_p)

    demo_p = sub.add_parser("demo-rooms", help="generate and run the ring-of-rooms demo")
    demo_p.add_argument("--rooms", type=int, default=100)
    demo_p.add_argument("--trials", type=int, default=10000)
    demo_p.add_argument("--stages", type=str, default=None)
    demo_p.add_argument("--write-config", type=str, default=None,
                        help="also write the generated config JSON here")
    _add_common(demo_p)

    for stage in STAGES:
        sp = sub.add_parser(stage, help=f"run the pipeline through the {stage} stage")
        sp.add_argument("config")
        _add_common(sp)

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")

    if args.command == "demo-rooms":
        try:
            config = generate_rooms(n=args.rooms, n_trials=args.trials,
                                    seed=args.seed if args.seed is not None else 7)
        except TooFewRooms as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        if args.write_config:
            path = Path(args.write_config)
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                write_json(path, config)
            except OSError as exc:
                print(f"runtime error: {exc}", file=sys.stderr)
                return EXIT_RUNTIME
        stages = args.stages.split(",") if args.stages else None
        return run_pipeline(config, stages=stages, seed=args.seed, out_dir=args.out)

    if args.command == "run":
        stages = args.stages.split(",") if args.stages else None
        return run_pipeline(args.config, stages=stages, seed=args.seed, out_dir=args.out)

    # stage subcommands run the prefix that ends at the named stage
    prefix = list(STAGES[: STAGES.index(args.command) + 1])
    return run_pipeline(args.config, stages=prefix, seed=args.seed, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
