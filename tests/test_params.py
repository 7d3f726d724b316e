"""Parameter objects check themselves when they are built, directly or
through `dataclasses.replace`, so no library call sees an invalid one."""

import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from hybridlfc import (
    BoostParams,
    ControllerGains,
    DieselParams,
    InvariantViolation,
    PvCellParams,
    Scenario,
    SolarChannelParams,
    Step,
    SystemParams,
    TuneSpec,
    WindParams,
    boost_switched_step,
    build_closed_loop,
    open_circuit_voltage,
    solve_pv_current,
)
from hybridlfc.errors import KEY_NAMES

BOOST = {"L": 1e-3, "C": 1e-3, "R": 10.0, "Ts": 1e-5, "duty": 0.5}


@pytest.mark.parametrize(
    "call",
    [
        # each once ended in a bare Python error or a NaN closed loop
        lambda: solve_pv_current(PvCellParams(T=-400.0), 0.1),
        lambda: open_circuit_voltage(PvCellParams(Isat=0.0)),
        lambda: boost_switched_step(BoostParams(**BOOST | {"L": 0.0}), (0, 0), 10.0, 1, 1e-5),
        lambda: build_closed_loop(SystemParams(), ControllerGains(Kdp=math.nan)),
        lambda: boost_switched_step(BoostParams(**BOOST), (0, 0), 10.0, 1, math.nan),
    ],
    ids=["pv_cold", "pv_no_saturation", "boost_no_inductance", "nan_gain", "boost_nan_step"],
)
def test_library_defect_inputs_rejected_when_built(call):
    with pytest.raises(InvariantViolation):
        call()


# per class, its valid arguments, one invalid field and the message it raises
INVALID_FIELDS = [
    (DieselParams, {}, {"Td4": 0.0}, "diesel.Td4 must be > 0"),
    (WindParams, {}, {"Tw": -1.0}, "wind.Tw must be > 0"),
    (
        SolarChannelParams,
        {},
        {"gbc_num": (0.0, 0.0, 0.0, 1.0)},
        "solar.gbc must be a proper transfer function",
    ),
    (SystemParams, {}, {"Kp": 0.0}, "system.Kp must be > 0"),
    (ControllerGains, {}, {"Ksi": math.inf}, "gains.Ksi must be finite"),
    (PvCellParams, {}, {"Aq": 0.0}, "pv.Aq must be > 0"),
    (BoostParams, BOOST, {"duty": 1.0}, "boost duty must lie in [0, 1)"),
    (TuneSpec, {}, {"budget": 0}, "tune.budget must be >= 1"),
    (Scenario, {"t_end": 1.0, "dt": 0.1}, {"dt": 0.0}, "scenario.dt must be > 0"),
]


@pytest.mark.parametrize(
    "cls, valid, bad, message", INVALID_FIELDS, ids=[case[0].__name__ for case in INVALID_FIELDS]
)
def test_invalid_field_rejected_directly_and_by_replace(cls, valid, bad, message):
    base = cls(**valid)
    with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
        cls(**valid | bad)
    with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
        replace(base, **bad)


@pytest.mark.parametrize("field", ["Isc", "KI", "Isat", "Rs", "Aq", "T", "lam"])
def test_pv_cell_fields_must_be_finite(field):
    # each non-finite field once built and failed late: a nan or inf grid,
    # an overflowing series-resistance drop, or an underflowing Vt
    key = "lambda" if field == "lam" else field
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvariantViolation, match=f"^pv\\.{key} must be finite$"):
            PvCellParams(**{field: value})


@pytest.mark.parametrize("field", ["L", "C", "R", "Ts"])
def test_boost_fields_must_be_finite(field):
    # a nan field once built and stepped to (nan, 0.0); an inf L with an
    # inf Ts built too
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvariantViolation, match=f"^boost {field} must be finite$"):
            BoostParams(**BOOST | {field: value})


# per class, its valid arguments and the prefix of its messages: the config
# section and a dot, or "boost ", which has no section
FINITE_FIELDS = [
    (DieselParams, {}, "diesel."),
    (WindParams, {}, "wind."),
    (SolarChannelParams, {}, "solar."),
    (SystemParams, {}, "system."),
    (PvCellParams, {}, "pv."),
    (BoostParams, BOOST, "boost "),
    (TuneSpec, {}, "tune."),
    (Scenario, {"t_end": 1.0, "dt": 0.1}, "scenario."),
]


@pytest.mark.parametrize(
    "cls, valid, prefix", FINITE_FIELDS, ids=[case[0].__name__ for case in FINITE_FIELDS]
)
def test_every_float_field_must_be_finite(cls, valid, prefix):
    # walks the dataclass fields by their declared type, so a field added
    # later is covered by itself: each float field, and the last
    # coefficient of each float-tuple one, refuses nan and both infinities
    # under its config key (system.F for Fs_nominal, pv.lambda for lam,
    # tune.dPl for dpl).
    # Each once built: a nan Td1, say, made governor_residues return (nan, nan)
    base = cls(**valid)
    checked = 0
    for f in fields(cls):
        if f.type not in ("float", "tuple[float, ...]"):
            continue
        key = KEY_NAMES.get(prefix + f.name, prefix + f.name)
        for bad in (math.nan, math.inf, -math.inf):
            arg = bad if f.type == "float" else getattr(base, f.name)[:-1] + (bad,)
            with pytest.raises(InvariantViolation, match=f"^{re.escape(key)} must be finite$"):
                cls(**valid | {f.name: arg})
        checked += 1
    assert checked


# each field that the one bound rule covers: its class, the class's valid
# arguments, the field, its config key and its rule
BOUNDED_FIELDS = [
    *[(DieselParams, {}, name, f"diesel.{name}", "> 0") for name in ("Td2", "Td3", "Td4", "Rd")],
    *[(WindParams, {}, name, f"wind.{name}", "> 0") for name in ("Tw", "Tp2", "Tp3")],
    (SystemParams, {}, "Kp", "system.Kp", "> 0"),
    (SystemParams, {}, "Tp", "system.Tp", "> 0"),
    (SystemParams, {}, "Fs_nominal", "system.F", "> 0"),
    (PvCellParams, {}, "Isc", "pv.Isc", "> 0"),
    (PvCellParams, {}, "Isat", "pv.Isat", "> 0"),
    (PvCellParams, {}, "Aq", "pv.Aq", "> 0"),
    (PvCellParams, {}, "lam", "pv.lambda", ">= 0"),
    (PvCellParams, {}, "Rs", "pv.Rs", ">= 0"),
    *[(BoostParams, BOOST, name, f"boost {name}", "> 0") for name in ("L", "C", "R", "Ts")],
    (TuneSpec, {}, "dt", "tune.dt", "> 0"),
    (Scenario, {"t_end": 1.0, "dt": 0.1}, "dt", "scenario.dt", "> 0"),
]


@pytest.mark.parametrize(
    "cls, valid, field, key, rule",
    BOUNDED_FIELDS,
    ids=[f"{case[0].__name__}.{case[2]}" for case in BOUNDED_FIELDS],
)
def test_bounded_field_refused_by_its_key(cls, valid, field, key, rule):
    # a > 0 field refuses 0 and -1; a >= 0 field refuses -1 and takes 0
    for bad in (0.0, -1.0) if rule == "> 0" else (-1.0,):
        with pytest.raises(InvariantViolation, match=f"^{re.escape(key)} must be {rule}$"):
            cls(**valid | {field: bad})
    if rule == ">= 0":
        assert getattr(cls(**valid | {field: 0.0}), field) == 0.0


@pytest.mark.parametrize(
    "box",
    [(math.nan, 1.0), (0.0, math.inf), (-math.inf, 1.0), 5.0, (0.0, 1.0, 2.0), (1.0,), "ab", None],
    ids=["nan", "inf", "-inf", "scalar", "triple", "single", "string", "none"],
)
def test_tune_bound_must_be_a_finite_pair(box):
    # each once built, or failed with a bare TypeError or ValueError from unpacking
    with pytest.raises(InvariantViolation, match=r"^tune\.Kdp_min/_max must be a finite pair"):
        TuneSpec(bounds=dict(TuneSpec().bounds) | {"Kdp": box})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "inputs, key",
    [
        (lambda bad: {"disturbances": {"dPl": Step(0.01), "dPiw": Step(bad, 0.5)}}, "dPiw"),
        (lambda bad: {"disturbances": {"dPis": bad}}, "dPis"),
        (lambda bad: {"controls": {"dPcd": 0.0, "us": bad}}, "us"),
    ],
    ids=["step", "bare_number", "control"],
)
def test_scenario_inputs_must_be_finite(inputs, key, bad):
    # each once built, and its simulation then read "simulation produced
    # non-finite state values", naming no input
    with pytest.raises(InvariantViolation, match=f"^scenario\\.{key} must be finite$"):
        Scenario(t_end=1.0, dt=0.1, **inputs(bad))


# mappings and arrays handed to a parameter object are copied when it is
# built: changing them afterwards raises or has no effect


def test_tune_bounds_copied_and_read_only():
    bounds = dict(TuneSpec().bounds) | {"Kpp": [0.0, 100.0]}
    spec = TuneSpec(bounds=bounds)
    bounds["Kdp"] = (5.0, 1.0)
    bounds["Kpp"][0] = 500.0
    del bounds["Ksi"]
    assert spec.bounds == TuneSpec().bounds
    with pytest.raises(TypeError):
        spec.bounds["Kdp"] = (5.0, 1.0)


def test_scenario_disturbances_and_controls_read_only():
    sc = Scenario(t_end=1.0, dt=0.1, disturbances={"dPl": 0.01}, controls={"us": 0.0})
    with pytest.raises(TypeError):
        sc.disturbances["dPl"] = Step(0.01, 99.0)  # an onset outside the horizon
    with pytest.raises(TypeError):
        sc.controls["us"] = 1.0
    assert sc.disturbances == {"dPl": Step(0.01)}


def test_scenario_x0_copied_and_read_only():
    x0 = np.zeros(3)
    sc = Scenario(t_end=1.0, dt=0.1, x0=x0)
    assert sc.x0 is not x0
    x0[0] = 1.0
    assert sc.x0.tolist() == [0.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        sc.x0[0] = 1.0
