"""Age-structured SIRD epidemic control with a predictive vaccination policy.

Subpackage map:

- ``model``: the discrete-time dynamics (states, parameters, stepping).
- ``certificates``: numeric checks of the terminal-set, decrease and
  death-toll-bound properties the controller relies on; ``certify`` runs
  the sampled suite.
- ``mpc``: the finite-horizon planner, its solver and the closed loop.
- ``strategies``: the policy names and the decreasing-age baseline.
- ``scenario``: configs, contact matrices, metrics, comparisons, file output.
- ``cli``: the ``vaxmpc`` command.
"""

from .certificates import (
    CertificateParams,
    audit_death_bound,
    certify,
    compute_eta,
    in_terminal_set,
)
from .model import (
    EpidemicState,
    ModelParams,
    initial_state,
    new_infections,
    rollout,
    step,
    validate_control,
)
from .mpc import MpcConfig, build_ocp, run_policy_loop, solve_ocp
from .scenario import compare, compute_metrics
from .strategies import national_allocate

__version__ = "0.1.0"

__all__ = [
    "CertificateParams",
    "EpidemicState",
    "ModelParams",
    "MpcConfig",
    "audit_death_bound",
    "build_ocp",
    "certify",
    "compare",
    "compute_eta",
    "compute_metrics",
    "in_terminal_set",
    "initial_state",
    "national_allocate",
    "new_infections",
    "rollout",
    "run_policy_loop",
    "solve_ocp",
    "step",
    "validate_control",
]
