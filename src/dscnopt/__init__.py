"""Energy-delay optimization for cache-enabled dense small cell networks.

The pipeline: generate (or load) a network instance, aggregate user
preferences into per-cell popularity, place cached files per cell, then
jointly pick user associations and transmit powers minimizing a weighted
energy-delay objective via Benders decomposition, with heuristic baselines
and a brute-force oracle for verification.

Solver internals (cuts, the subproblem and master solves, power recovery,
candidate enumeration) stay importable from their modules.
"""

from .model import (
    Association,
    CachePlacement,
    DemandMatrix,
    FeasibilityReport,
    InfeasibleInstanceError,
    ModelError,
    ObjectiveValue,
    PowerVector,
    Scenario,
    check_feasible,
    objective,
    sinr,
)
from .popularity import (
    PopularityTable,
    PreferenceMatrix,
    local_popularity,
    sample_demands,
    sample_preferences,
)
from .placement import (
    gpc_placement,
    hit_ratio,
    knapsack_exact,
    lpf_greedy,
    rc_placement,
)
from .benders import ucwt
from .baselines import doa, ema
from .oracle import brute_force, brute_force_sweep
from .scenario import (
    GenerationConfig,
    Instance,
    desk_scale,
    dumps,
    generate,
    load,
    loads,
    paper_scale,
    save,
)

__version__ = "0.1.0"

__all__ = [
    "Association",
    "CachePlacement",
    "DemandMatrix",
    "FeasibilityReport",
    "GenerationConfig",
    "InfeasibleInstanceError",
    "Instance",
    "ModelError",
    "ObjectiveValue",
    "PopularityTable",
    "PowerVector",
    "PreferenceMatrix",
    "Scenario",
    "brute_force",
    "brute_force_sweep",
    "check_feasible",
    "desk_scale",
    "doa",
    "dumps",
    "ema",
    "generate",
    "gpc_placement",
    "hit_ratio",
    "knapsack_exact",
    "load",
    "loads",
    "local_popularity",
    "lpf_greedy",
    "objective",
    "paper_scale",
    "rc_placement",
    "sample_demands",
    "sample_preferences",
    "save",
    "sinr",
    "ucwt",
]
