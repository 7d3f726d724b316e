"""Line-oriented `key = value` configuration with a flat dotted-key
namespace over every model, scenario and tuner parameter.

Keys and defaults come from the parameter dataclasses: every scalar or
coefficient-tuple field is `<section>.<field>` (five keys are spelled
otherwise; `errors.KEY_NAMES`, which the finiteness errors read too, is
their one table); the scenario inputs and tuner box are generated from the
plant's input labels and the default bounds. Unspecified keys fall back to
these defaults. Comments start at `#`; duplicate keys are last-wins.
Values are typed by their default: finite decimal reals, integers,
`true`/`false` booleans, or comma-separated coefficient lists (ascending
powers of s) for the converter block.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

from .assembly import PLANT_CONTROL_ORDER, PLANT_DISTURBANCE_ORDER, ControllerGains, SystemParams
from .diesel import DieselParams
from .engine import Scenario, Step
from .errors import KEY_NAMES, InvalidValue, InvariantViolation, UnknownKey
from .solar import PvCellParams, SolarChannelParams
from .tuning import GAIN_ORDER, TuneSpec
from .wind import WindParams

__all__ = ["DEFAULTS", "Config", "read_config", "parse_config"]

_SECTIONS = {
    "diesel": DieselParams,
    "wind": WindParams,
    "solar": SolarChannelParams,
    "system": SystemParams,
    "gains": ControllerGains,
    "pv": PvCellParams,
    "tune": TuneSpec,
}

# per section, (config key, field name) for every dataclass field with a
# scalar or coefficient-tuple default
_FIELDS = {
    section: [
        (KEY_NAMES.get(f"{section}.{f.name}", f"{section}.{f.name}"), f.name)
        for f in fields(cls)
        if f.default is not MISSING and isinstance(f.default, (bool, int, float, tuple))
    ]
    for section, cls in _SECTIONS.items()
}


def _defaults() -> dict[str, object]:
    values = {
        key: getattr(cls, name) for sec, cls in _SECTIONS.items() for key, name in _FIELDS[sec]
    }
    # the only defaults that no dataclass holds
    values |= {"scenario.t_end": 60.0, "scenario.dt": 0.001, "pv.v_step": 0.01}
    for lbl in PLANT_DISTURBANCE_ORDER:
        values |= {f"scenario.{lbl}": 0.0, f"scenario.{lbl}_onset": 0.0}
    values |= {f"scenario.{lbl}": 0.0 for lbl in PLANT_CONTROL_ORDER}
    for name, (lo, hi) in TuneSpec().bounds.items():
        values |= {f"tune.{name}_min": lo, f"tune.{name}_max": hi}
    return values


DEFAULTS: dict[str, object] = _defaults()


@dataclass(frozen=True)
class Config:
    """Typed view of a merged configuration."""

    system: SystemParams
    gains: ControllerGains
    scenario: Scenario
    pv: PvCellParams
    pv_v_step: float
    tune: TuneSpec


def _parse_value(key: str, rhs: str, lineno: int):
    default = DEFAULTS[key]
    try:
        if isinstance(default, bool):
            if rhs == "true":
                return True
            if rhs == "false":
                return False
            raise ValueError("expected true or false")
        if isinstance(default, int):
            return int(rhs)
        if isinstance(default, tuple):
            value = tuple(float(x) for x in rhs.split(","))
            finite = all(map(math.isfinite, value))
        else:
            value = float(rhs)
            finite = math.isfinite(value)
        if not finite:
            raise ValueError("value must be finite")
        return value
    except ValueError as exc:
        raise InvalidValue(f"line {lineno}: cannot parse '{rhs}' for {key}: {exc}") from None


def read_config(path) -> str:
    """The text of a config file for `parse_config`. Read as bytes, so a
    file that is not valid UTF-8 raises InvalidValue naming the offset of
    its first bad byte; `parse_config` still ends lines at CRLF and at CR."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidValue(
            f"config is not valid UTF-8: byte 0x{data[exc.start]:02x} at offset {exc.start}"
        ) from None


def parse_config(text: str) -> Config:
    """Merge `key = value` lines over the defaults and build typed params.

    Raises UnknownKey (with the line number) for keys outside the
    namespace, InvalidValue for unparseable right-hand sides and
    InvariantViolation when the merged values break a model constraint.
    """
    values = dict(DEFAULTS)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidValue(f"line {lineno}: expected 'key = value', got '{raw.strip()}'")
        key, _, rhs = line.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise UnknownKey(f"line {lineno}: unknown key '{key}'")
        values[key] = _parse_value(key, rhs.strip(), lineno)
    return _build(values)


def _build(v: dict) -> Config:
    def params(section, **nested):
        own = {name: v[key] for key, name in _FIELDS[section]}
        return _SECTIONS[section](**own, **nested)

    system = params("system", diesel=params("diesel"), wind=params("wind"), solar=params("solar"))
    gains = params("gains")
    scenario = Scenario(
        t_end=v["scenario.t_end"],
        dt=v["scenario.dt"],
        disturbances={
            lbl: Step(v[f"scenario.{lbl}"], v[f"scenario.{lbl}_onset"])
            for lbl in PLANT_DISTURBANCE_ORDER
        },
        controls={lbl: v[f"scenario.{lbl}"] for lbl in PLANT_CONTROL_ORDER},
    )
    pv = params("pv")
    if v["pv.v_step"] <= 0:
        raise InvariantViolation("pv.v_step must be > 0")
    tune = params(
        "tune",
        bounds={name: (v[f"tune.{name}_min"], v[f"tune.{name}_max"]) for name in GAIN_ORDER},
    )
    return Config(
        system=system,
        gains=gains,
        scenario=scenario,
        pv=pv,
        pv_v_step=v["pv.v_step"],
        tune=tune,
    )
