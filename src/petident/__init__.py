"""Kinetic parameter identification for the irreversible two-tissue
compartment model from multi-region PET measurements."""

from .polyexp import (
    EQ_TOL,
    PolyExp,
    eval_polyexp,
    has_distinct_rate_regions,
    region_diversity_report,
)
from .kinetics import DomainError, KineticParams
from .plasma import PlasmaParams, plasma_fraction
from .forward import (
    MeasurementSet,
    ParamLayout,
    ParamVector,
    finite_difference_check,
    forward_vector,
    jacobian,
    numerical_rank,
    pack,
    project_to_domain,
)
from .solver import (
    IrgnmSettings,
    RunRecord,
    irgnm_step,
    run_irgnm,
)
from .experiments import (
    CampaignSpec,
    CampaignSummary,
    Scenario,
    add_noise,
    build_time_grid,
    default_scenario,
    emit_results,
    perturb_initial,
    run_campaign,
    scenario_from_dict,
    scenario_to_dict,
    simulate_ground_truth,
)

__version__ = "0.1.0"
