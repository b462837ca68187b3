"""collapse-lab: energy-driven wavefunction collapse on finite spectral models.

Simulation and closed-form analysis of the energy-driven collapse process
B(t): nonunitary evolution in the energy basis, exact record-trajectory
sampling, ensemble smearing statistics, the permanent-record bound, and two
worked experiments (a precessing spin and an excitation/decay chain).
"""

from .hilbert import (
    DiscreteSpectrum,
    DomainError,
    EnergyLevel,
    ObservableMatrix,
    SpectralState,
    energy_distribution,
    expectation,
    squared_norm,
)
from .engine import (
    CollapseParams,
    Trajectory,
    TrajectoryPoint,
    collapse_diagnostic,
    evolve,
    evolve_from,
    record_marginal_density,
    sample_step,
    simulate_trajectory,
)
from .rng import trajectory_rng
from .ensemble import (
    SmearingKernel,
    TimeSeries,
    ensemble_density_matrix,
    ensemble_density_matrix_mc,
    ensemble_expectation_mc,
    smear,
    subsystem_expectation,
)
from .records import (
    RecordScenario,
    bhattacharyya,
    record_violation_bound,
    verify_schwarz_chain,
)
from .measurement import (
    BranchSpec,
    branch_weight_ratio,
    build_branches,
    fixture_path,
    load_branch_fixture,
)
from .spin import (
    SpinModelParams,
    normal_cdf,
    sigma1_collapsed,
    sigma1_standard,
    spin_density_matrix,
)
from .decay import (
    DecayModelParams,
    KGrid,
    KGridResult,
    beta_decay_closed,
    beta_excitation,
    integrate_kgrid,
    occupation,
    occupation_collapsed,
    occupation_gaussian_asymptotic,
    photon_number_density,
    photon_position_density,
    position_asymptotic,
    position_collapsed,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "EnergyLevel",
    "SpectralState",
    "ObservableMatrix",
    "DiscreteSpectrum",
    "squared_norm",
    "expectation",
    "energy_distribution",
    "CollapseParams",
    "TrajectoryPoint",
    "Trajectory",
    "evolve",
    "evolve_from",
    "record_marginal_density",
    "sample_step",
    "simulate_trajectory",
    "collapse_diagnostic",
    "trajectory_rng",
    "SmearingKernel",
    "TimeSeries",
    "smear",
    "ensemble_expectation_mc",
    "ensemble_density_matrix",
    "ensemble_density_matrix_mc",
    "subsystem_expectation",
    "RecordScenario",
    "bhattacharyya",
    "record_violation_bound",
    "verify_schwarz_chain",
    "BranchSpec",
    "build_branches",
    "branch_weight_ratio",
    "load_branch_fixture",
    "fixture_path",
    "SpinModelParams",
    "normal_cdf",
    "sigma1_standard",
    "sigma1_collapsed",
    "spin_density_matrix",
    "DecayModelParams",
    "KGrid",
    "KGridResult",
    "beta_decay_closed",
    "beta_excitation",
    "occupation",
    "occupation_collapsed",
    "occupation_gaussian_asymptotic",
    "photon_number_density",
    "photon_position_density",
    "position_collapsed",
    "position_asymptotic",
    "integrate_kgrid",
    "__version__",
]
