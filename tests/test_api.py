"""The public surface of the package: a name added to or removed from
`hybridlfc` shows up as an edit here."""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import hybridlfc
from hybridlfc.lti import StateSpaceModel

PUBLIC_NAMES = {
    # parameter objects and results
    "BoostParams", "Config", "ControllerGains", "DieselParams", "OutputMap",
    "PvCellParams", "Scenario", "SimulationTrace", "SolarChannelParams",
    "Step", "SystemParams", "TuneSpec", "WindParams",
    # linear models
    "StateSpaceModel", "eigenvalues",
    # errors
    "ConfigError", "ConvergenceFailure", "DimensionMismatch",
    "InvalidArgument", "InvalidValue", "InvariantViolation",
    "NoConvergence", "NoStableGainsFound",
    "NonFiniteState", "NonSquareMatrix", "SingularSystem",
    "ToolkitError", "UnknownKey", "UnstableStepSize",
    # functions
    "assemble_plant", "boost_switched_step", "build_closed_loop",
    "build_feedback_matrix", "governor_residues", "integrate",
    "open_circuit_voltage", "output_map",
    "parse_config", "photocurrent", "pv_curve", "solve_pv_current",
    "steady_state", "tune_gains",
    # submodules
    "assembly", "config", "diesel", "engine", "errors", "lti", "solar",
    "tuning", "wind",
}

# the label-wired construction path and its helpers, and the index of a
# stepped trace, kept in tests/reference.py
MOVED_TO_TESTS = [
    "build_diesel_subsystem",
    "build_turbine_subsystem",
    "build_pitch_subsystem",
    "pitch_chain_tf",
    "wind_generation",
    "build_solar_subsystem",
    "solar_feedthrough",
    "tf_to_ss",
    "tf_dc_gain",
    "ZeroDcDenominator",
    "ise",
]

# the general polynomial / transfer-function layer: the converter block is
# two coefficient tuples on SolarChannelParams, realized in assembly; a
# second closed-loop builder taking any model: build_closed_loop(p, gains) is
# the one builder; and a one-model index: ise_evaluator(model, sc)(model.a)
REMOVED = [
    "Polynomial",
    "TransferFunction",
    "tf_feedthrough",
    "companion_coefficients",
    "ImproperTransferFunction",
    "close_loop",
    "augment_plant",
    "OrderingMismatch",
    "step_ise",
]


def test_public_names_pinned():
    # a fresh interpreter: other tests import submodules such as cli, which
    # then show up as package attributes
    script = "import hybridlfc; print(*(n for n in dir(hybridlfc) if not n.startswith('_')))"
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    ).stdout
    assert set(out.split()) == PUBLIC_NAMES


@pytest.mark.parametrize(
    "module", sorted(m.name for m in pkgutil.iter_modules(hybridlfc.__path__))
)
def test_moved_names_not_importable(module):
    mod = importlib.import_module(f"hybridlfc.{module}")
    assert [n for n in MOVED_TO_TESTS + REMOVED if hasattr(mod, n)] == []


def test_moved_methods_gone():
    assert not hasattr(StateSpaceModel, "state_index")
