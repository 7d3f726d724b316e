"""Small-signal load-frequency-control toolkit for an isolated
wind-diesel-solar-PV hybrid power system.

Builds the open-loop deviation model from per-subsystem state equations,
closes the loop with PI controllers turned into pure state feedback by
integrator augmentation, and provides fixed-step simulation, steady-state
and eigenvalue analysis, PV operating-point solvers and a deterministic
gain tuner.
"""

from .assembly import (
    ControllerGains,
    OutputMap,
    SystemParams,
    assemble_plant,
    build_closed_loop,
    build_feedback_matrix,
    output_map,
)
from .config import Config, parse_config
from .diesel import DieselParams, governor_residues
from .engine import Scenario, SimulationTrace, Step, integrate, steady_state
from .errors import (
    ConfigError,
    ConvergenceFailure,
    DimensionMismatch,
    InvalidArgument,
    InvalidValue,
    InvariantViolation,
    NoConvergence,
    NonFiniteState,
    NonSquareMatrix,
    NoStableGainsFound,
    SingularSystem,
    ToolkitError,
    UnknownKey,
    UnstableStepSize,
)
from .lti import StateSpaceModel, eigenvalues
from .solar import (
    BoostParams,
    PvCellParams,
    SolarChannelParams,
    boost_switched_step,
    open_circuit_voltage,
    photocurrent,
    pv_curve,
    solve_pv_current,
)
from .tuning import TuneSpec, tune_gains
from .wind import WindParams

__version__ = "0.1.0"
