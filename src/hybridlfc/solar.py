"""Photovoltaic cell model, boost converter micro-dynamics and the
small-signal solar generation channel.

The cell follows the implicit single-diode law, solved through its
explicit Lambert-W form by a fixed run of Newton steps over a whole
voltage grid at once; the maximum power point comes from a grid scan
refined with golden-section search. The boost converter is kept at the
switched-ODE level for the converter studies, while the
small-signal channel uses a fixed second-order transfer function realized
as two states that feed the frequency balance through the gain Kgs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantViolation, NoConvergence
from .lti import StateSpaceModel, TransferFunction, tf_feedthrough, tf_to_ss

__all__ = [
    "PvCellParams",
    "BoostParams",
    "SolarChannelParams",
    "photocurrent",
    "open_circuit_voltage",
    "solve_pv_current",
    "voltage_grid_points",
    "pv_curve",
    "mppt_operating_point",
    "boost_switched_step",
    "build_solar_subsystem",
    "solar_feedthrough",
]

ELECTRON_CHARGE = 1.602e-19  # q (C)
BOLTZMANN = 1.380649e-23  # k (J/K)
# pvcurve takes about 3.5 us a grid point, 0.4 us of it in the solve, so
# at this cap it ends within about 4 s; the default 0.01 V step gives
# about 70 points
MAX_GRID_POINTS = 1_000_000


# tool defaults chosen for a plausible small panel, not source-data constants
@dataclass(frozen=True)
class PvCellParams:
    Isc: float = 3.8  # short-circuit current (A)
    KI: float = 0.0024  # short-circuit temperature coefficient (A/degC)
    Isat: float = 3.6e-9  # diode saturation current (A)
    Rs: float = 0.05  # series resistance (ohm)
    Aq: float = 1.3  # diode quality factor
    T: float = 25.0  # cell temperature (degC)
    lam: float = 1000.0  # irradiance (W/m^2)

    def validate(self) -> None:
        if self.Isc <= 0:
            raise InvariantViolation("pv.Isc must be > 0")
        if self.Isat <= 0:
            raise InvariantViolation("pv.Isat must be > 0")
        if self.lam < 0:
            raise InvariantViolation("pv.lambda must be >= 0")
        if self.Aq <= 0:
            raise InvariantViolation("pv.Aq must be > 0")
        if self.Rs < 0:
            raise InvariantViolation("pv.Rs must be >= 0")
        if self.T <= -273.15:
            raise InvariantViolation("pv.T must be above absolute zero (-273.15 degC)")
        if not self.thermal_voltage > 0.0:
            raise InvariantViolation("pv.Aq*(pv.T + 273.15) underflows the thermal voltage to 0")

    @property
    def thermal_voltage(self) -> float:
        """Aq*k*TK/q with TK the cell temperature in kelvin."""
        return self.Aq * BOLTZMANN * (self.T + 273.15) / ELECTRON_CHARGE


@dataclass(frozen=True)
class BoostParams:
    L: float  # inductance (H)
    C: float  # capacitance (F)
    R: float  # load resistance (ohm)
    Ts: float  # switching period (s)
    duty: float  # duty ratio in [0, 1)

    def validate(self) -> None:
        if self.L <= 0 or self.C <= 0 or self.R <= 0 or self.Ts <= 0:
            raise InvariantViolation("boost L, C, R, Ts must all be > 0")
        if not 0.0 <= self.duty < 1.0:
            raise InvariantViolation("boost duty must lie in [0, 1)")


def _default_gbc() -> TransferFunction:
    # Converter small-signal block (-18s + 900)/(s^2 + 100s + 50),
    # coefficients ascending in s.
    return TransferFunction([900.0, -18.0], [50.0, 100.0, 1.0])


@dataclass(frozen=True)
class SolarChannelParams:
    Kgs: float = 0.20  # PV share of load (pu kW/Hz)
    gbc: TransferFunction = field(default_factory=_default_gbc)

    def validate(self) -> None:
        if not self.gbc.is_proper:
            raise InvariantViolation("solar.gbc must be a proper transfer function")


def photocurrent(p: PvCellParams) -> float:
    """Light-generated current (lam/1000)*(Isc + KI*(T - 25))."""
    return (p.lam / 1000.0) * (p.Isc + p.KI * (p.T - 25.0))


def open_circuit_voltage(p: PvCellParams) -> float:
    """Voltage where the terminal current crosses zero; 0 in darkness."""
    iph = photocurrent(p)
    if iph <= 0.0:
        return 0.0
    return p.thermal_voltage * math.log1p(iph / p.Isat)


def solve_pv_current(p: PvCellParams, vpv: float | np.ndarray) -> float | np.ndarray:
    """Terminal current from the single-diode law at voltage vpv, a float
    or an array of voltages (each element bit-equal to its float call):

        Ipv = Iph - Isat*(exp((vpv + Ipv*Rs)/Vt) - 1),  Vt = Aq*k*TK/q.

    With Rs > 0, s = ln(Iph + Isat - Ipv) = c - W(z), the explicit Lambert-W
    solution (Jain & Kapoor, Sol. Energy Mater. Sol. Cells 81, 2004), where
    c = ln Isat + (vpv + Rs*(Iph + Isat))/Vt and ln z = c + ln(Rs/Vt). Newton
    steps on s + (Rs/Vt)*exp(s) = c, convex and increasing in s, fall from
    a start above the root monotonically onto it, and nothing overflows.
    """
    iph = photocurrent(p)
    vt, rs, isat = p.thermal_voltage, p.Rs, p.Isat
    v = np.asarray(vpv, dtype=float)
    if rs == 0.0:
        # expm1(x) overflows past x = 709.8, Isat*expm1(x) only later: from
        # x = 700 on, where the forms agree to rounding, take exp(x + ln Isat) - Isat
        x = v / vt
        far = np.exp(x + math.log(isat)) - isat
        amps = iph - np.where(x < 700.0, isat * np.expm1(np.minimum(x, 700.0)), far)
    else:
        drop = rs * (iph + isat) / vt  # across Rs at Iph + Isat, in thermal voltages
        if not math.isfinite(drop):
            raise NoConvergence(f"series-resistance drop Rs*(Iph + Isat)/Vt = {drop} overflows")
        ln_a = math.log(rs) - math.log(vt)
        c = math.log(isat) + drop + v / vt
        ln_z = c + ln_a
        # 1 + z <= (1 + W)*exp(W), so W >= L - ln(1 + L) with L = ln(1 + z), at most 0.58
        # below it: start at s = c - (L - ln(1 + L)), written so that a large c cannot cancel
        s = np.log1p(np.logaddexp(0.0, ln_z)) - ln_a - np.logaddexp(0.0, -ln_z)
        # a step leaves at most half the square of Newton's error: from 0.58, five
        # steps reach rounding, and a sixth within 1e-10 leaves under 1e-20
        for _ in range(6):
            t = np.exp(s + ln_a)
            step = (s + t - c) / (1.0 + t)
            s = s - step
        settled = np.abs(step) <= 1e-10
        if not settled.all():
            raise NoConvergence(f"diode current solve did not settle at vpv = {v[~settled][0]}")
        amps = iph + isat - np.exp(s)
    return float(amps) if amps.ndim == 0 else amps


def voltage_grid_points(voc: float, v_step: float) -> int:
    """Size of the voltage grid {0, v_step, 2*v_step, ...} up to voc.

    Raises InvariantViolation when it exceeds MAX_GRID_POINTS, so a caller
    checks before its first solve.
    """
    ratio = voc / v_step
    if not ratio < MAX_GRID_POINTS:
        raise InvariantViolation(
            f"voltage grid of {ratio:.3g} points exceeds the cap of "
            f"{MAX_GRID_POINTS}; raise pv.v_step"
        )
    return int(math.floor(ratio)) + 1


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(fn, lo: float, hi: float, tol: float) -> float:
    """Abscissa of the maximum of a unimodal fn on [lo, hi]."""
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def pv_curve(
    p: PvCellParams, v_step: float
) -> tuple[list[float], list[float], tuple[float, float, float]]:
    """Cell curve on the grid {0, v_step, 2*v_step, ...} up to the
    open-circuit voltage, and its maximum power point.

    Returns ``(volts, amps, (vm, im, pm))``. The grid is solved in one
    array call; the best grid sample is then refined by golden-section
    search to 1e-6 V. Zero irradiance leaves the single point V = 0 and the
    maximum power point (0, 0, 0).
    """
    if v_step <= 0:
        raise InvariantViolation("v_step must be > 0")
    voc = open_circuit_voltage(p)
    volts = [i * v_step for i in range(voltage_grid_points(voc, v_step))]
    amps = solve_pv_current(p, np.array(volts)).tolist()
    if voc <= 0.0:
        return volts, amps, (0.0, 0.0, 0.0)

    watts = [v * i for v, i in zip(volts, amps)]
    k = max(range(len(watts)), key=watts.__getitem__)
    best = volts[k]
    lo = max(best - v_step, 0.0)
    hi = min(best + v_step, voc)
    v = _golden_max(lambda x: x * solve_pv_current(p, x), lo, hi, 1e-6)
    i = solve_pv_current(p, v)
    if v * i < watts[k]:
        return volts, amps, (best, amps[k], watts[k])
    return volts, amps, (v, i, v * i)


def mppt_operating_point(p: PvCellParams, v_step: float) -> tuple[float, float, float]:
    """Maximum power point (V, I, P) of the cell curve; see `pv_curve`."""
    return pv_curve(p, v_step)[2]


def boost_switched_step(
    p: BoostParams,
    state: tuple[float, float],
    vpv: float,
    u: int,
    dt: float,
) -> tuple[float, float]:
    """Advance the converter (iL, vo) one RK4 step in the given switch mode.

    Switch closed (u = 1): the inductor charges from the source while the
    capacitor discharges into the load,
        L diL/dt = vpv,          C dvo/dt = -vo/R.
    Switch open (u = 0): the inductor feeds the output,
        L diL/dt = vpv - vo,     C dvo/dt = iL - vo/R.
    """
    if dt <= 0 or dt > p.Ts:
        raise InvariantViolation("boost step requires 0 < dt <= Ts")

    if u:
        deriv = lambda il, vo: (vpv / p.L, -vo / (p.R * p.C))
    else:
        deriv = lambda il, vo: ((vpv - vo) / p.L, (il - vo / p.R) / p.C)

    il, vo = state
    k1i, k1v = deriv(il, vo)
    k2i, k2v = deriv(il + 0.5 * dt * k1i, vo + 0.5 * dt * k1v)
    k3i, k3v = deriv(il + 0.5 * dt * k2i, vo + 0.5 * dt * k2v)
    k4i, k4v = deriv(il + dt * k3i, vo + dt * k3v)
    return (
        il + dt / 6.0 * (k1i + 2.0 * k2i + 2.0 * k3i + k4i),
        vo + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v),
    )


def build_solar_subsystem(p: SolarChannelParams) -> StateSpaceModel:
    """Two-state realization of the converter block for the channel.

    The control us (solar PI output) and the disturbance dPis sum at the
    block input, so both columns carry the same realization vector. The
    channel output is dPgs = Kgs*(last state + feedthrough*(us + dPis));
    the assembly applies the Kgs scaling when it forms the power balance.
    """
    realization, _ = tf_to_ss(p.gbc, state_prefix="xs", input_label="us")
    return StateSpaceModel(
        a=realization.a,
        b=realization.b,
        g=realization.b.copy(),
        state_labels=realization.state_labels,
        control_labels=("us",),
        disturbance_labels=("dPis",),
    )


def solar_feedthrough(p: SolarChannelParams) -> float:
    """Direct input-to-output term of the converter block (0 when the
    block is strictly proper, as the default is)."""
    return tf_feedthrough(p.gbc)
