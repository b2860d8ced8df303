"""switchlab: a verification lab for switching-constrained online linear
optimization.

Simulates the hard-budget game between stateful players and adaptive
adversaries, solves the fugal-game recursion for the normalized minimax
regret, and cross-checks every closed-form constant against brute-force
minimax oracles at desk scale.
"""

from .errors import (BudgetViolationError, CapacityError, NumericStructureError,
                     SwitchLabError, UnsupportedConfigError)
from .game_core import GameConfig, Trajectory, dual_norm, play_game
from .players import (ConstantPlayer, FugalPlayer, MinibatchPlayer, RandomSwitchPlayer,
                      make_player)
from .adversaries import (ConstantAdversary, OrthogonalAdversary, ProductAdversary,
                          SignAdversary, make_adversary)
from .fugal_engine import (FugalPolicy, GridFunction, fugal_apply, quadratic_floor,
                           quadratic_floor_image, u4_exact, u_k_solve)
from .minimax_oracle import (OracleConfig, OracleReport, exact_minimax_1d, exact_minimax_budgets,
                             tk_inequality_check, unconstrained_regret_closed_form)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
