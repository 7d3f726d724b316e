"""Photovoltaic cell model, boost converter micro-dynamics and the
small-signal solar generation channel.

The cell follows the implicit single-diode law, solved through its
explicit Lambert-W form by a fixed run of Newton steps over a whole
voltage grid at once; the maximum power point comes from a safeguarded
Newton solve on dP/dV in the terminal current, in which the voltage is
explicit. The boost converter is kept at the switched-ODE level for the
converter studies, while the small-signal channel is a second-order
block, held as its numerator and denominator coefficients, that
`assembly.assemble_plant` realizes as two states feeding the frequency
balance through the gain Kgs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, InvariantViolation, NoConvergence, check_fields

__all__ = [
    "PvCellParams",
    "BoostParams",
    "SolarChannelParams",
    "photocurrent",
    "open_circuit_voltage",
    "solve_pv_current",
    "voltage_grid_points",
    "pv_curve",
    "boost_switched_step",
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

    def __post_init__(self):
        check_fields(self, "pv.", positive=("Isc", "Isat", "Aq"), nonnegative=("lam", "Rs"))
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

    def __post_init__(self):
        check_fields(self, "boost ", positive=("L", "C", "R", "Ts"))
        if not 0.0 <= self.duty < 1.0:
            raise InvariantViolation("boost duty must lie in [0, 1)")


@dataclass(frozen=True)
class SolarChannelParams:
    """PV share gain and the converter's small-signal block gbc_num/gbc_den,
    coefficients ascending in s. `assembly` realizes the block as the two
    plant states xs1, xs2, so it must be proper with a second-order
    denominator. Coefficients are stored as floats with trailing zeros
    dropped; the zero polynomial is ()."""

    Kgs: float = 0.20  # PV share of load (pu kW/Hz)
    # (-18s + 900)/(s^2 + 100s + 50)
    gbc_num: tuple[float, ...] = (900.0, -18.0)
    gbc_den: tuple[float, ...] = (50.0, 100.0, 1.0)

    def __post_init__(self):
        for name in ("gbc_num", "gbc_den"):
            c = [float(x) for x in getattr(self, name)]
            while c and c[-1] == 0.0:
                c.pop()
            object.__setattr__(self, name, tuple(c))
        check_fields(self, "solar.")
        if len(self.gbc_num) > len(self.gbc_den):
            raise InvariantViolation("solar.gbc must be a proper transfer function")
        if len(self.gbc_den) != 3:
            raise InvariantViolation(
                f"solar.gbc_den must be second order, got degree {len(self.gbc_den) - 1}"
            )


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
    A nan or infinite voltage raises InvalidArgument.
    """
    iph = photocurrent(p)
    vt, rs, isat = p.thermal_voltage, p.Rs, p.Isat
    v = np.asarray(vpv, dtype=float)
    # math.isfinite on a 0-d array is a few microseconds cheaper than a reduction
    if not (math.isfinite(v) if v.ndim == 0 else np.isfinite(v).all()):
        raise InvalidArgument(f"pv voltage must be finite, got {v[~np.isfinite(v)][0]}")
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
        # Iph + Isat - exp(s) cancels when I << Iph + Isat: read I off the diode
        # argument d = s - ln Isat instead. c lost Rs*Iph/Vt when Isat >> Iph, so
        # below d = 1 two Newton steps on d + a*expm1(d) = b restore d's digits,
        # from a start in [min(b, 0), b/(1 + a)], which holds the root; capped at 1
        a, b = rs * isat / vt, (v + rs * iph) / vt
        d = s - math.log(isat)
        e = np.clip(d, np.minimum(b, 0.0), np.minimum(b / (1.0 + a), 1.0))
        for _ in range(2):
            e = np.minimum(e - (e + a * np.expm1(e) - b) / (1.0 + a * np.exp(e)), 1.0)
        if drop > 1.0:
            # off the series resistor, I = (Vt*d - V)/Rs
            amps = (vt * np.where(d < 1.0, e, d) - v) / rs
        else:
            # off the diode, I = Iph - Isat*expm1(d); from d = 1 on, where
            # exp(s) >= e*Isat, Iph + Isat - exp(s) is as accurate and cannot overflow
            amps = np.where(d < 1.0, iph - isat * np.expm1(e), iph + isat - np.exp(s))
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


def _mpp(p: PvCellParams) -> tuple[float, float, float]:
    """Maximum power point (V, I, P) of a lit cell (Iph > 0), with no diode solve.

    V(I) = Vt*log1p((Iph - I)/Isat) - Rs*I is explicit, and P = I*V(I) is
    strictly concave on [0, Iph]. Newton runs on -dP/dV = V/|dV/dI| - I, which
    falls from Voc/|V'(0)| > 0 at I = 0 to below 0 at Iph; a step that leaves
    the bracket of that sign change is replaced by bisection.
    """
    iph, vt, rs, isat = photocurrent(p), p.thermal_voltage, p.Rs, p.Isat
    lo, hi, i = 0.0, iph, 0.0
    for _ in range(100):
        r = iph - i + isat
        d = vt + rs * r  # |dV/dI| = d/r
        v = vt * math.log1p((iph - i) / isat) - rs * i
        f = v * (r / d) - i
        if f > 0.0:
            lo = i
        else:
            hi = i
        # -d(-dP/dV)/dI = 2 + V*Vt/d^2; past Isc, where V < 0, 2 still bounds it
        nxt = i + f / (2.0 + max(v, 0.0) / d * (vt / d))
        if abs(nxt - i) <= 1e-12 * nxt:
            v = vt * math.log1p((iph - nxt) / isat) - rs * nxt
            return v, nxt, v * nxt
        i = nxt if lo < nxt < hi else 0.5 * (lo + hi)
    raise NoConvergence("maximum power point search did not settle")


def pv_curve(
    p: PvCellParams, v_step: float
) -> tuple[np.ndarray, np.ndarray, tuple[float, float, float]]:
    """Cell curve on the grid {0, v_step, 2*v_step, ...} up to the
    open-circuit voltage, and its maximum power point.

    Returns ``(volts, amps, (vm, im, pm))``, the grid and its currents as
    arrays. The grid is solved in one array call, the maximum power point
    apart from it (see `_mpp`). Zero irradiance leaves the single point
    V = 0 and the maximum power point (0, 0, 0).
    """
    if not math.isfinite(v_step):
        raise InvariantViolation("v_step must be finite")
    if v_step <= 0:
        raise InvariantViolation("v_step must be > 0")
    voc = open_circuit_voltage(p)
    volts = np.arange(voltage_grid_points(voc, v_step)) * v_step
    amps = solve_pv_current(p, volts)
    return volts, amps, _mpp(p) if voc > 0.0 else (0.0, 0.0, 0.0)


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
    if not 0 < dt <= p.Ts:  # also refuses a nan dt
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
