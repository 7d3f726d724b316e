"""Fills the open-loop plant from the subsystem balance equations and
closes the PI loop around it, both at fixed indices. The subsystem
builders' models, wired by label, are the tests' reference for the fill.

The augmentation trick: appending the integrals of dFs and dFt as states
iFs and iFt turns every PI control law into pure state feedback u = H x,
so the closed loop is just Ahat = Abar + Bbar H with unchanged
disturbance topology. `close_loop` owns that 12-state layout: the ten
plant states, then iFs and iFt. The closed loop is a plain
`StateSpaceModel` (A = Ahat, B = Bbar, G = Gbar) whose `h` field holds H,
so the engine consumes plants and closed loops alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diesel import DieselParams, governor_residues
from .errors import InvariantViolation, NonFiniteState, OrderingMismatch
from .lti import StateSpaceModel, companion_coefficients
from .solar import SolarChannelParams, solar_feedthrough
from .wind import WindParams

__all__ = [
    "SystemParams",
    "ControllerGains",
    "OutputMap",
    "PLANT_STATE_ORDER",
    "PLANT_CONTROL_ORDER",
    "PLANT_DISTURBANCE_ORDER",
    "INTEGRATOR_LABELS",
    "assemble_plant",
    "output_map",
    "build_feedback_matrix",
    "close_loop",
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

    def validate(self) -> None:
        if self.Kp <= 0:
            raise InvariantViolation("system.Kp must be > 0")
        if self.Tp <= 0:
            raise InvariantViolation("system.Tp must be > 0")
        if self.Fs_nominal <= 0:
            raise InvariantViolation("system.F must be > 0")
        self.diesel.validate()
        self.wind.validate()
        self.solar.validate()
        if self.solar.gbc.den.degree != 2:  # the plant has two channel states
            raise InvariantViolation(
                f"solar.gbc_den must be second order, got degree {self.solar.gbc.den.degree}"
            )


@dataclass(frozen=True)
class ControllerGains:
    Kdp: float = 0.0  # diesel proportional (pu kW/Hz)
    Kdi: float = 0.0  # diesel integral (pu kW/(Hz s))
    Kpp: float = 0.0  # blade pitch proportional
    Kpi: float = 0.0  # blade pitch integral
    Ksp: float = 0.0  # solar proportional
    Ksi: float = 0.0  # solar integral

    def as_tuple(self) -> tuple[float, ...]:
        return (self.Kdp, self.Kdi, self.Kpp, self.Kpi, self.Ksp, self.Ksi)

    def validate(self) -> None:
        for name, value in zip(("Kdp", "Kdi", "Kpp", "Kpi", "Ksp", "Ksi"), self.as_tuple()):
            if not np.isfinite(value):
                raise InvariantViolation(f"gains.{name} must be finite")


@dataclass(frozen=True)
class OutputMap:
    """Linear read-outs y = Wx x + Wu u + Wp p over the open-loop ordering.

    Carries the derived signals dPgw (wind generation), dPgs (solar
    generation) and dP1 (surplus power). For closed loops the state
    weights apply to the leading plant states; integrator states carry
    zero weight.
    """

    labels: tuple[str, ...]
    wx: np.ndarray
    wu: np.ndarray
    wp: np.ndarray


def assemble_plant(p: SystemParams) -> StateSpaceModel:
    """Ten-state open-loop hybrid system model.

    State order is fixed: [dFs, dFt, dPgd, dXED11, dXED21, dPcw, dPC1,
    dPC2, xs1, xs2]; controls [dPcd, dPcu, us]; disturbances
    [dPl, dPiw, dPis]. Each row is one subsystem balance equation, written
    at fixed indices for validated parameters (a second-order converter
    block); `SystemParams.validate` runs first. The dFs row balances
    generation against load,

        d/dt dFs = [-dFs + Kp*(dPgd + Kig*(dFt - dFs) + dPgs - dPl)] / Tp

    with the dPgs term present only when include_solar is set.
    """
    p.validate()
    dsl, wnd, sol = p.diesel, p.wind, p.solar
    n = len(PLANT_STATE_ORDER)
    a = np.zeros((n, n))
    b = np.zeros((n, len(PLANT_CONTROL_ORDER)))
    g = np.zeros((n, len(PLANT_DISTURBANCE_ORDER)))

    # diesel: governor branches on dPcd - dFs/Rd, then the generation lag
    k1, k2 = governor_residues(dsl)
    a[XED11, [FS, XED11]] = [-k1 / (dsl.Rd * dsl.Td2), -1.0 / dsl.Td2]
    a[XED21, [FS, XED21]] = [-k2 / (dsl.Rd * dsl.Td3), -1.0 / dsl.Td3]
    b[[XED11, XED21], PCD] = [k1 / dsl.Td2, k2 / dsl.Td3]
    a[PGD, [PGD, XED11, XED21]] = [-1.0 / dsl.Td4, 1.0 / dsl.Td4, 1.0 / dsl.Td4]
    # wind turbine: slip coupling to dFs, pitch power and wind input
    a[FT, [FS, FT, PCW]] = [wnd.Kig / wnd.Tw, -(1.0 + wnd.Kig - wnd.Ktp) / wnd.Tw, 1.0 / wnd.Tw]
    g[FT, PIW] = 1.0 / wnd.Tw
    # pitch chain from dPcu
    c = wnd.Kpc * wnd.Kp3 * wnd.Kp1 / wnd.Tp3
    a[PCW, [PCW, PC1, PC2]] = [-1.0 / wnd.Tp3, c, c * wnd.Tp1]
    a[PC1, [PC1, PC2]] = [-1.0, 1.0 - wnd.Tp1]
    a[PC2, PC2] = -1.0 / wnd.Tp2
    b[PC2, PCU] = wnd.Kp2 / wnd.Tp2
    # solar channel: companion form of gbc, with us and dPis summed at its input
    den, col, d = companion_coefficients(sol.gbc)
    a[XS1:, XS1:] = [[0.0, -den[0]], [1.0, -den[1]]]
    b[XS1:, US] = g[XS1:, PIS] = col

    kp_tp = p.Kp / p.Tp
    if p.include_solar:
        a[FS, XS2] = kp_tp * sol.Kgs
        b[FS, US] = g[FS, PIS] = kp_tp * sol.Kgs * d
    # as in a sum over the subsystem models, -0.0 is stored as +0.0 (K1 = 0
    # when Td1 = Td2, say); the balance terms below are set and keep their sign
    a += 0.0
    b += 0.0
    g += 0.0
    a[FS, [FS, FT, PGD]] = [-(1.0 + wnd.Kig * p.Kp) / p.Tp, wnd.Kig * kp_tp, kp_tp]
    g[FS, PL] = -kp_tp

    # finite but extreme constants (Tp = 1e-320, say) overflow to inf here;
    # every command assembles the plant, so one check covers them all
    if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(g).all()):
        raise NonFiniteState("assembled plant matrices are not finite")
    return StateSpaceModel(
        a=a,
        b=b,
        g=g,
        state_labels=PLANT_STATE_ORDER,
        control_labels=PLANT_CONTROL_ORDER,
        disturbance_labels=PLANT_DISTURBANCE_ORDER,
    )


def output_map(p: SystemParams) -> OutputMap:
    """Derived-signal weights for [dPgw, dPgs, dP1] over the plant ordering."""
    wx = np.zeros((3, len(PLANT_STATE_ORDER)))
    wu = np.zeros((3, len(PLANT_CONTROL_ORDER)))
    wp = np.zeros((3, len(PLANT_DISTURBANCE_ORDER)))

    kig = p.wind.Kig
    wx[0, FT] = kig
    wx[0, FS] = -kig

    kgs = p.solar.Kgs
    d = solar_feedthrough(p.solar)
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
    # every loop reads dFs and iFs (rows dPcd, dPcu, us); only pitch reads dFt and iFt
    h[:, FS] = [-g.Kdp, kig * g.Kpp, -g.Ksp]
    h[:, IFS] = [-g.Kdi, kig * g.Kpi, -g.Ksi]
    h[PCU, FT] = -kig * g.Kpp
    h[PCU, IFT] = -kig * g.Kpi
    return h


def close_loop(plant: StateSpaceModel, gains: ControllerGains, kig: float) -> StateSpaceModel:
    """Closed loop of an `assemble_plant` model under PI gains.

    Appends iFs and iFt at IFS and IFT as pure selectors on dFs and dFt
    (Abar, with Bbar and Gbar zero in their rows), builds H and applies
    u = H x: Ahat = Abar + Bbar H, the disturbance matrix untouched.
    Raises OrderingMismatch unless the plant carries the assembled state
    and control orderings.
    """
    if (plant.state_labels, plant.control_labels) != (PLANT_STATE_ORDER, PLANT_CONTROL_ORDER):
        raise OrderingMismatch(
            f"plant orderings {plant.state_labels}, {plant.control_labels} do not match "
            f"the assembled {PLANT_STATE_ORDER}, {PLANT_CONTROL_ORDER}"
        )
    abar = np.zeros((N_AUGMENTED, N_AUGMENTED))
    abar[:IFS, :IFS] = plant.a
    abar[IFS, FS] = abar[IFT, FT] = 1.0
    bbar = np.zeros((N_AUGMENTED, plant.b.shape[1]))
    bbar[:IFS] = plant.b
    gbar = np.zeros((N_AUGMENTED, plant.g.shape[1]))
    gbar[:IFS] = plant.g
    h = build_feedback_matrix(gains, kig)
    return StateSpaceModel(
        a=abar + bbar @ h,
        b=bbar,
        g=gbar,
        h=h,
        state_labels=PLANT_STATE_ORDER + INTEGRATOR_LABELS,
        control_labels=plant.control_labels,
        disturbance_labels=plant.disturbance_labels,
    )


def build_closed_loop(p: SystemParams, gains: ControllerGains) -> StateSpaceModel:
    """Convenience chain: assemble the plant, then close the loop."""
    return close_loop(assemble_plant(p), gains, p.wind.Kig)
