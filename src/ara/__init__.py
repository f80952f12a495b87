"""Solvers for adversarial randomized allocation games.

A defender randomizes an integral k x n asset-to-object allocation under
interval index-set constraints while an adversary attacks a weighted cell
subset.  The package provides the marginal relaxation LP, a dependent
rounding sampler with domain repair heuristics, exact baselines, the air
marshal and passenger screening encodings, seeded instance generators and
a benchmark CLI.
"""

from ara.core import (
    AdversaryType,
    AraGame,
    AssignmentConstraint,
    GameError,
    MarginalStrategy,
    MixedStrategyEstimate,
    PureStrategy,
    Target,
    check_implementability,
    game_value,
)
from ara.exact import enumerate_pure, exact_maximin
from ara.lp import LinearProgram, LpError, LpSolution, solve_lp
from ara.marginal import GameInfeasibleError, MarginalSolution, solve_marginal
from ara.sampling import (
    EqualityFixFailed,
    Pe0Form,
    Pe0StructureError,
    SamplingFailure,
    estimate_mixed,
    to_pe0,
)

__all__ = [
    "AdversaryType",
    "AraGame",
    "AssignmentConstraint",
    "EqualityFixFailed",
    "GameError",
    "GameInfeasibleError",
    "LinearProgram",
    "LpError",
    "LpSolution",
    "MarginalSolution",
    "MarginalStrategy",
    "MixedStrategyEstimate",
    "Pe0Form",
    "Pe0StructureError",
    "PureStrategy",
    "SamplingFailure",
    "Target",
    "check_implementability",
    "enumerate_pure",
    "estimate_mixed",
    "exact_maximin",
    "game_value",
    "solve_lp",
    "solve_marginal",
    "to_pe0",
]
