"""Mediated multi-agent reinforcement learning.

Self-interested actor-critic agents may commit control to a learned
mediator; the mediator maximizes coalition welfare subject to
incentive-compatibility and encouragement constraints enforced through
Lagrange multipliers and dual gradient descent.
"""

from .games import (GameKind, PayoffSpec, iterative_pgg, make_spec,
                    one_shot_pgg, pd_with_sacrifice, prisoners_dilemma,
                    two_step_pd)
from .harness import (RunConfig, RunReport, SweepReport, default_config, emit,
                      sweep, train)
from .oracle import (MixedProfile, best_response_gap, expected_payoffs,
                     max_mediated_welfare, normalization_constants,
                     optimal_constrained_mediator_pgg)

__all__ = [
    "GameKind", "PayoffSpec", "MixedProfile",
    "RunConfig", "RunReport", "SweepReport",
    "best_response_gap", "default_config", "emit", "expected_payoffs",
    "iterative_pgg", "make_spec", "max_mediated_welfare",
    "normalization_constants", "one_shot_pgg",
    "optimal_constrained_mediator_pgg", "pd_with_sacrifice",
    "prisoners_dilemma", "sweep", "train", "two_step_pd",
]

__version__ = "0.1.0"
