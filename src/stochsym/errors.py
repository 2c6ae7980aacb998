"""Exception types shared across the toolkit, and the strict JSON writer that raises one."""

import json


class StochsymError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(StochsymError):
    def __init__(self, field: str, detail: str = ""):
        self.field = field
        msg = f"dimension mismatch in '{field}'"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class NonFiniteEntry(StochsymError):
    def __init__(self, field: str):
        self.field = field
        super().__init__(f"non-finite entry in '{field}'")


class EmptyBox(StochsymError):
    def __init__(self, field: str):
        self.field = field
        super().__init__(f"box '{field}' has a lower bound above its upper bound")


class NotWellPosed(StochsymError):
    """Coupled internal-output image escapes an internal input set."""

    def __init__(self, component: int):
        self.component = component
        super().__init__(
            f"coupling image leaves the internal input set at component {component}"
        )


class NotPositiveDefinite(StochsymError):
    def __init__(self, field: str, min_eigenvalue: float | None = None):
        self.field = field
        self.min_eigenvalue = min_eigenvalue
        msg = f"matrix '{field}' is not positive definite"
        if min_eigenvalue is not None:
            msg += f" (minimum eigenvalue {min_eigenvalue:.3e})"
        super().__init__(msg)


class KappaBarOutOfRange(StochsymError):
    def __init__(self, kappa_bar: float, upper: float):
        self.kappa_bar = kappa_bar
        self.upper = upper
        super().__init__(
            f"kappa_bar={kappa_bar!r} outside the open interval (0, {upper!r})"
        )


class UnboundedStateBox(StochsymError):
    pass


class Infeasible(StochsymError):
    def __init__(self, reason: str, condition: str | None = None):
        self.reason = reason
        self.condition = condition  # tag of the condition that cannot be met
        super().__init__(reason)


class WeightNotPositive(StochsymError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"subsystem weight {index} is not a finite positive number")


class NonLinearRho(StochsymError):
    pass


class NonQuadraticAlpha(StochsymError):
    pass


class InvalidKappa(StochsymError):
    def __init__(self, kappa: float):
        self.kappa = kappa
        super().__init__(f"kappa={kappa!r} must lie strictly inside (0, 1)")


class NegativeInput(StochsymError):
    def __init__(self, name: str, value: float):
        self.name = name
        self.value = value
        super().__init__(f"argument '{name}' must be nonnegative, got {value!r}")


class NonDiagonalNoise(StochsymError):
    pass


class RowMassError(StochsymError):
    def __init__(self, row: tuple, drift: float):
        self.row = row
        self.drift = drift
        super().__init__(f"kernel row {row} mass drifts from 1 by {drift:.3e}")


class StaleLatch(StochsymError):
    def __init__(self, step: int, expected: int):
        self.step = step
        self.expected = expected
        super().__init__(
            f"interface latched at step {step} but queried inside step {expected}"
        )


class AbstractStateLost(StochsymError):
    def __init__(self, trial: int, step: int):
        self.trial = trial
        self.step = step
        super().__init__(
            f"trial {trial} lost its abstract state (sink or undefined action) at step {step}"
        )


class TooFewRooms(StochsymError):
    def __init__(self, n: int):
        self.n = n
        super().__init__(f"ring coupling needs at least 3 rooms, got {n}")


class ConfigError(StochsymError):
    pass


class StaleControllerTable(ConfigError):
    """A time-varying controller table ends before the simulation horizon."""

    def __init__(self, subsystem: int, steps: int, horizon: int):
        self.subsystem = subsystem
        self.steps = steps
        self.horizon = horizon
        super().__init__(
            f"stale-controller: subsystem {subsystem} has a controller table for "
            f"{steps} steps but the simulation runs {horizon}; synthesize with a "
            f"safety horizon of at least {horizon}"
        )


class NonFiniteArtifact(StochsymError):
    """A JSON artifact would hold NaN or an infinity, which strict JSON cannot encode."""

    def __init__(self, path, detail: str):
        self.path = str(path)
        super().__init__(f"{path}: {detail}")


def write_json(path, payload) -> None:
    """Write `payload` to `path` as indented, key-sorted strict JSON and a newline.

    NaN or an infinity raises NonFiniteArtifact and no file is written.
    """
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteArtifact(path, str(exc)) from exc
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


class CheckFailed(StochsymError):
    """A verification condition failed; `condition` is the stable tag reported by the CLI."""

    def __init__(self, condition: str, detail: str):
        self.condition = condition
        self.detail = detail
        super().__init__(f"{condition}: {detail}")


class GridTooCoarse(UserWarning):
    """Abstract input shifts exceed the grid span; transitions collapse to the sink."""
