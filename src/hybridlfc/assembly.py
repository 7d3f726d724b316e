"""Fills the open-loop plant from the subsystem balance equations and
closes the PI loop around it, both at fixed indices. This is the one way
the toolkit builds a model; the tests keep a label-wired copy of both
(per-subsystem state models summed by label) as their bit-for-bit
reference.

The augmentation trick: appending the integrals of dFs and dFt as states
iFs and iFt turns every PI control law into pure state feedback u = H x,
so the closed loop is just Ahat = Abar + Bbar H with unchanged
disturbance topology. The 12-state layout is the ten plant states, then
iFs and iFt. `build_closed_loop(p, gains)` is the one function that
writes it: it fills Abar, Bbar and Gbar at 12 states directly, through
the helper that writes `assemble_plant`'s ten, and forms Ahat with
`closed_loop_matrix`, so a closed loop builds and checks one model. The
closed loop is a plain `StateSpaceModel` (A = Ahat, B = Bbar, G = Gbar),
so the engine consumes plants and closed loops alike. `output_map(p,
gains)` folds H into the derived-signal weights over the same 12
states, so nothing past this module needs H or the layout. At zero gains
A is Abar, the open loop a caller closing many loops re-closes with
`closed_loop_matrix` for each set of gains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .diesel import DieselParams, governor_residues
from .errors import InvariantViolation, NonFiniteState, check_fields
from .lti import StateSpaceModel
from .solar import SolarChannelParams
from .wind import WindParams

__all__ = [
    "SystemParams",
    "ControllerGains",
    "GAIN_ORDER",
    "OutputMap",
    "PLANT_STATE_ORDER",
    "PLANT_CONTROL_ORDER",
    "PLANT_DISTURBANCE_ORDER",
    "INTEGRATOR_LABELS",
    "assemble_plant",
    "output_map",
    "build_feedback_matrix",
    "closed_loop_matrix",
    "build_closed_loop",
]

PLANT_STATE_ORDER = (
    "dFs", "dFt", "dPgd", "dXED11", "dXED21", "dPcw", "dPC1", "dPC2", "xs1", "xs2"
)
PLANT_CONTROL_ORDER = ("dPcd", "dPcu", "us")
PLANT_DISTURBANCE_ORDER = ("dPl", "dPiw", "dPis")
INTEGRATOR_LABELS = ("iFs", "iFt")
FS, FT, PGD, XED11, XED21, PCW, PC1, PC2, XS1, XS2 = range(len(PLANT_STATE_ORDER))
PCD, PCU, US = range(len(PLANT_CONTROL_ORDER))
PL, PIW, PIS = range(len(PLANT_DISTURBANCE_ORDER))
IFS, IFT = len(PLANT_STATE_ORDER), len(PLANT_STATE_ORDER) + 1
N_AUGMENTED = IFT + 1


@dataclass(frozen=True)
class SystemParams:
    """Power-balance constants plus the three subsystem parameter sets."""

    Kp: float = 72.0  # power system gain, 1/D (Hz / pu kW)
    Tp: float = 14.4  # power system time constant (s)
    Fs_nominal: float = 60.0  # nominal system frequency (Hz)
    diesel: DieselParams = field(default_factory=DieselParams)
    wind: WindParams = field(default_factory=WindParams)
    solar: SolarChannelParams = field(default_factory=SolarChannelParams)
    # when false the PV channel still exists but its power is kept out of
    # the balance, which reproduces the plain wind-diesel configuration
    include_solar: bool = True

    def __post_init__(self):
        # diesel, wind and solar checked themselves when they were built
        check_fields(self, "system.", positive=("Kp", "Tp", "Fs_nominal"))


@dataclass(frozen=True)
class ControllerGains:
    Kdp: float = 0.0  # diesel proportional (pu kW/Hz)
    Kdi: float = 0.0  # diesel integral (pu kW/(Hz s))
    Kpp: float = 0.0  # blade pitch proportional
    Kpi: float = 0.0  # blade pitch integral
    Ksp: float = 0.0  # solar proportional
    Ksi: float = 0.0  # solar integral

    def __post_init__(self):
        # built once per tuner candidate: math.isfinite costs far less than np.isfinite
        for name in GAIN_ORDER:
            if not math.isfinite(getattr(self, name)):
                raise InvariantViolation(f"gains.{name} must be finite")


GAIN_ORDER = tuple(f.name for f in fields(ControllerGains))


@dataclass(frozen=True)
class OutputMap:
    """Linear read-outs y = Wx x + Wu u + Wp p of the derived signals dPgw
    (wind generation), dPgs (solar generation) and dP1 (surplus power).

    Wx weighs the state of one model, as `output_map` documents; Wu weighs
    the constant control offset u and Wp the disturbances p.
    """

    labels: tuple[str, ...]
    wx: np.ndarray
    wu: np.ndarray
    wp: np.ndarray


def _channel(sol: SolarChannelParams) -> tuple[list[float], list[float], float]:
    """Companion-form coefficients of the converter block, scaled by its
    denominator's leading coefficient: ``(den, col, d)``, the two lower
    denominator coefficients (ascending), the input column (the strictly
    proper remainder num - d*den) and the feedthrough d."""
    num, den = sol.gbc_num, sol.gbc_den
    lead = den[2]
    d = num[2] / lead if len(num) == 3 else 0.0
    den = [den[0] / lead, den[1] / lead]
    num = [c / lead for c in num[:2]] + [0.0] * (2 - len(num))
    return den, [num[0] - d * den[0], num[1] - d * den[1]], d


def _fill_plant(p: SystemParams, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The plant's A, B and G written into zero matrices of n >= 10 rows
    (and A's n columns), the ten plant states first, one scalar write per
    entry; raises NonFiniteState when an entry overflowed."""
    dsl, wnd, sol = p.diesel, p.wind, p.solar
    a = np.zeros((n, n))
    b = np.zeros((n, len(PLANT_CONTROL_ORDER)))
    g = np.zeros((n, len(PLANT_DISTURBANCE_ORDER)))

    # diesel: governor branches on dPcd - dFs/Rd, then the generation lag
    k1, k2 = governor_residues(dsl)
    a[XED11, FS] = -k1 / (dsl.Rd * dsl.Td2)
    a[XED11, XED11] = -1.0 / dsl.Td2
    a[XED21, FS] = -k2 / (dsl.Rd * dsl.Td3)
    a[XED21, XED21] = -1.0 / dsl.Td3
    b[XED11, PCD] = k1 / dsl.Td2
    b[XED21, PCD] = k2 / dsl.Td3
    a[PGD, PGD] = -1.0 / dsl.Td4
    a[PGD, XED11] = a[PGD, XED21] = 1.0 / dsl.Td4
    # wind turbine: slip coupling to dFs, pitch power and wind input
    a[FT, FS] = wnd.Kig / wnd.Tw
    a[FT, FT] = -(1.0 + wnd.Kig - wnd.Ktp) / wnd.Tw
    a[FT, PCW] = g[FT, PIW] = 1.0 / wnd.Tw
    # pitch chain from dPcu
    c = wnd.Kpc * wnd.Kp3 * wnd.Kp1 / wnd.Tp3
    a[PCW, PCW] = -1.0 / wnd.Tp3
    a[PCW, PC1] = c
    a[PCW, PC2] = c * wnd.Tp1
    a[PC1, PC1] = -1.0
    a[PC1, PC2] = 1.0 - wnd.Tp1
    a[PC2, PC2] = -1.0 / wnd.Tp2
    b[PC2, PCU] = wnd.Kp2 / wnd.Tp2
    # solar channel: companion form of gbc, with us and dPis summed at its input
    den, col, d = _channel(sol)
    a[XS1, XS2] = -den[0]
    a[XS2, XS1] = 1.0
    a[XS2, XS2] = -den[1]
    b[XS1, US] = g[XS1, PIS] = col[0]
    b[XS2, US] = g[XS2, PIS] = col[1]

    kp_tp = p.Kp / p.Tp
    if p.include_solar:
        a[FS, XS2] = kp_tp * sol.Kgs
        b[FS, US] = g[FS, PIS] = kp_tp * sol.Kgs * d
    # as in a sum over the subsystem models, -0.0 is stored as +0.0 (K1 = 0
    # when Td1 = Td2, say); the balance terms below are set and keep their sign
    a += 0.0
    b += 0.0
    g += 0.0
    a[FS, FS] = -(1.0 + wnd.Kig * p.Kp) / p.Tp
    a[FS, FT] = wnd.Kig * kp_tp
    a[FS, PGD] = kp_tp
    g[FS, PL] = -kp_tp

    # finite but extreme constants (Tp = 1e-320, say) overflow to inf here;
    # every command fills the plant, so one check covers them all
    if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(g).all()):
        raise NonFiniteState("assembled plant matrices are not finite")
    return a, b, g


def assemble_plant(p: SystemParams) -> StateSpaceModel:
    """Ten-state open-loop hybrid system model.

    State order is fixed: [dFs, dFt, dPgd, dXED11, dXED21, dPcw, dPC1,
    dPC2, xs1, xs2]; controls [dPcd, dPcu, us]; disturbances
    [dPl, dPiw, dPis]. Each row is one subsystem balance equation, written
    at fixed indices; a `SystemParams` checks its constants, and a
    `SolarChannelParams` its second-order converter block, when it is
    built. The dFs row balances generation against load,

        d/dt dFs = [-dFs + Kp*(dPgd + Kig*(dFt - dFs) + dPgs - dPl)] / Tp

    with the dPgs term present only when include_solar is set.
    """
    a, b, g = _fill_plant(p, len(PLANT_STATE_ORDER))
    return StateSpaceModel(
        a=a,
        b=b,
        g=g,
        state_labels=PLANT_STATE_ORDER,
        control_labels=PLANT_CONTROL_ORDER,
        disturbance_labels=PLANT_DISTURBANCE_ORDER,
    )


def output_map(p: SystemParams, gains: ControllerGains | None = None) -> OutputMap:
    """Derived-signal weights for [dPgw, dPgs, dP1] over the state of the
    model the same arguments build: the ten plant states of
    `assemble_plant(p)` without gains, the twelve of
    `build_closed_loop(p, gains)` with them. There the controller outputs
    u = H x + u0 fold into the state weights, Wx = [Wx_plant, 0] + Wu H,
    and Wu weighs only the constant offset u0. Raises NonFiniteState when
    a weight overflows."""
    wx = np.zeros((3, len(PLANT_STATE_ORDER)))
    wu = np.zeros((3, len(PLANT_CONTROL_ORDER)))
    wp = np.zeros((3, len(PLANT_DISTURBANCE_ORDER)))

    kig = p.wind.Kig
    wx[0, FT] = kig
    wx[0, FS] = -kig

    kgs = p.solar.Kgs
    d = _channel(p.solar)[2]
    wx[1, XS2] = kgs
    wu[1, US] = kgs * d
    wp[1, PIS] = kgs * d

    wx[2] = wx[0]
    wx[2, PGD] += 1.0
    if p.include_solar:
        wx[2] += wx[1]
        wu[2] += wu[1]
        wp[2] += wp[1]
    wp[2, PL] += -1.0

    if gains is not None:
        h = build_feedback_matrix(gains, kig)
        with np.errstate(over="ignore", invalid="ignore"):
            wx = np.hstack([wx, np.zeros((3, len(INTEGRATOR_LABELS)))]) + wu @ h
    # extreme but finite constants and gains (Kgs*d*Ksp past the double
    # range, say) would read every state, zero ones too, as nan or inf
    if not (np.isfinite(wx).all() and np.isfinite(wu).all() and np.isfinite(wp).all()):
        raise NonFiniteState("output map weights are not finite")
    return OutputMap(labels=("dPgw", "dPgs", "dP1"), wx=wx, wu=wu, wp=wp)


def build_feedback_matrix(g: ControllerGains, kig: float) -> np.ndarray:
    """PI feedback matrix H mapping the augmented state to [dPcd, dPcu, us].

    Rows, written at the fixed augmented indices (IFS, IFT follow XS2):
        diesel  u1 = -Kdp*dFs - Kdi*iFs
        pitch   u2 =  Kig*Kpp*(dFs - dFt) + Kig*Kpi*(iFs - iFt)
        solar   u3 = -Ksp*dFs - Ksi*iFs
    The pitch controller acts on the wind generation deviation, which is
    why its gains appear scaled by Kig.
    """
    h = np.zeros((len(PLANT_CONTROL_ORDER), N_AUGMENTED))
    # every loop reads dFs and iFs; only pitch reads dFt and iFt
    h[PCD, FS] = -g.Kdp
    h[PCD, IFS] = -g.Kdi
    h[PCU, FS] = kig * g.Kpp
    h[PCU, IFS] = kig * g.Kpi
    h[PCU, FT] = -kig * g.Kpp
    h[PCU, IFT] = -kig * g.Kpi
    h[US, FS] = -g.Ksp
    h[US, IFS] = -g.Ksi
    return h


def closed_loop_matrix(
    abar: np.ndarray, bbar: np.ndarray, gains: ControllerGains, kig: float
) -> np.ndarray:
    """Ahat = Abar + Bbar H under PI gains."""
    return abar + bbar @ build_feedback_matrix(gains, kig)


def build_closed_loop(p: SystemParams, gains: ControllerGains) -> StateSpaceModel:
    """Closed loop of the assembled plant under PI gains.

    Fills the augmented open loop at its 12 states directly, with the
    plant's own entries (Abar, Bbar, Gbar: the plant, then iFs and iFt at
    IFS and IFT as pure selectors on dFs and dFt, zero in Bbar's and
    Gbar's rows), builds H and applies u = H x: Ahat = Abar + Bbar H
    (`closed_loop_matrix`), the disturbance matrix untouched. With zero
    gains H = 0 and A is Abar, which is how the tuner gets the open loop
    it closes each candidate around. Raises NonFiniteState when the plant,
    or Ahat under extreme gains and constants, overflows.
    """
    abar, bbar, gbar = _fill_plant(p, N_AUGMENTED)
    abar[IFS, FS] = abar[IFT, FT] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        a = closed_loop_matrix(abar, bbar, gains, p.wind.Kig)
    if not np.isfinite(a).all():
        raise NonFiniteState("closed-loop state matrix is not finite")
    return StateSpaceModel(
        a=a,
        b=bbar,
        g=gbar,
        state_labels=PLANT_STATE_ORDER + INTEGRATOR_LABELS,
        control_labels=PLANT_CONTROL_ORDER,
        disturbance_labels=PLANT_DISTURBANCE_ORDER,
    )
