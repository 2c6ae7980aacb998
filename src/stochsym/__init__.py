"""stochsym: compositional finite abstractions of networked stochastic affine systems.

The toolkit certifies sampled-data abstractions of coupled stochastic
affine subsystems through storage-function inequalities, aggregates the
certificates into a network-level simulation function via one dissipativity
LMI, evaluates probabilistic output-closeness bounds, synthesizes safety
controllers on the finite abstraction, and refines them to the concrete
network with Monte Carlo validation.
"""

from .csr import CSR
from .model import (
    AffineSystem,
    Box,
    DiscretizationSpec,
    InterconnectionSpec,
    check_well_posed,
    validate_system,
)
from .certificates import (
    SstfConstants,
    StorageCertificate,
    check_dissipativity_lmi,
    check_geometric,
    check_lyapunov,
    derive_constants,
    gamma_slope_bound,
    kappa_tilde_from,
    solve_candidates,
)
from .composition import (
    SupplyBlocks,
    build_x_cmp,
    check_compositional_lmi,
    compose_ssf,
    gershgorin_fast_check,
    network_form,
    supply_blocks,
)
from .bounds import (
    ClosenessBound,
    closeness_bound,
    psi_hat,
    violation_probability,
)
from .abstraction import (
    AbstractionGrid,
    FiniteAbstraction,
    UniformGrid,
    build_deterministic,
    build_stochastic,
    quantize,
)
from .synthesis import (
    Controller,
    SafetySpec,
    safety_fixpoint,
    safety_value_iteration,
)
from .runtime import (
    SimConfig,
    SimulationResult,
    clopper_pearson_lower,
    clopper_pearson_upper,
    cosimulate,
)
from .cli import generate_rooms, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "CSR", "AffineSystem", "Box", "DiscretizationSpec", "InterconnectionSpec",
    "check_well_posed", "validate_system",
    "SstfConstants", "StorageCertificate", "check_dissipativity_lmi",
    "check_geometric", "check_lyapunov", "derive_constants",
    "gamma_slope_bound", "kappa_tilde_from", "solve_candidates",
    "SupplyBlocks", "build_x_cmp",
    "check_compositional_lmi", "compose_ssf", "gershgorin_fast_check",
    "network_form", "supply_blocks",
    "ClosenessBound", "closeness_bound", "psi_hat", "violation_probability",
    "AbstractionGrid", "FiniteAbstraction", "UniformGrid",
    "build_deterministic", "build_stochastic", "quantize",
    "Controller", "SafetySpec", "safety_fixpoint", "safety_value_iteration",
    "SimConfig", "SimulationResult",
    "clopper_pearson_lower", "clopper_pearson_upper", "cosimulate",
    "generate_rooms", "run_pipeline",
    "__version__",
]
