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
    close_loop,
    output_map,
)
from .config import Config, parse_config
from .diesel import DieselParams, build_diesel_subsystem, governor_residues
from .engine import Scenario, SimulationTrace, Step, integrate, ise, steady_state, step_ise
from .errors import (
    ConfigError,
    ConvergenceFailure,
    DegenerateTimeConstants,
    DimensionMismatch,
    ImproperTransferFunction,
    InvalidArgument,
    InvalidValue,
    InvariantViolation,
    NoConvergence,
    NonFiniteState,
    NonSquareMatrix,
    NoStableGainsFound,
    OrderingMismatch,
    SingularSystem,
    ToolkitError,
    UnknownKey,
    UnstableStepSize,
    ZeroDcDenominator,
)
from .lti import (
    Polynomial,
    StateSpaceModel,
    TransferFunction,
    eigenvalues,
    tf_dc_gain,
    tf_to_ss,
)
from .solar import (
    BoostParams,
    PvCellParams,
    SolarChannelParams,
    boost_switched_step,
    build_solar_subsystem,
    mppt_operating_point,
    open_circuit_voltage,
    photocurrent,
    pv_curve,
    solve_pv_current,
)
from .tuning import TuneSpec, tune_gains
from .wind import (
    WindParams,
    build_pitch_subsystem,
    build_turbine_subsystem,
    wind_generation,
)

__version__ = "0.1.0"
