"""Wind turbine dynamics and the blade pitch actuation chain.

The turbine contributes a single frequency state dFt driven by slip
coupling to the system frequency, by the wind input power disturbance and
by the pitch-controlled power dPcw. The pitch chain is three cascaded
blocks: a hydraulic servo Kp2/(1+sTp2), a lead-lag (1+sTp1)/(1+s) and a
data-fit lag Kp3/(1+sTp3), scaled by the blade characteristic Kpc and the
actuator gain Kp1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .lti import Polynomial, StateSpaceModel, TransferFunction

__all__ = [
    "WindParams",
    "wind_generation",
    "build_turbine_subsystem",
    "build_pitch_subsystem",
    "pitch_chain_tf",
]


@dataclass(frozen=True)
class WindParams:
    Tw: float = 4.0  # turbine time constant (s)
    Kig: float = 0.9969  # wind share of load, function of slip (pu kW/Hz)
    Ktp: float = 0.003333  # turbine-curve slope coefficient (pu kW/Hz)
    Kpc: float = 0.08  # blade characteristic (pu kW/deg)
    Kp1: float = 1.25  # hydraulic actuator gain
    Kp2: float = 1.0  # hydraulic actuator gain
    Kp3: float = 1.4  # data-fit pitch gain
    Tp1: float = 0.6  # hydraulic actuator time constant (s)
    Tp2: float = 0.041  # hydraulic actuator time constant (s)
    Tp3: float = 1.0  # data-fit time constant (s)

    def __post_init__(self):
        if self.Tw <= 0:
            raise InvariantViolation("wind.Tw must be > 0")
        if self.Tp2 <= 0:
            raise InvariantViolation("wind.Tp2 must be > 0")
        if self.Tp3 <= 0:
            raise InvariantViolation("wind.Tp3 must be > 0")
        # Turbine pole is -(1 + Kig - Ktp)/Tw; keep it in the left half plane.
        if 1.0 + self.Kig - self.Ktp <= 0:
            raise InvariantViolation("wind requires 1 + Kig - Ktp > 0")


def wind_generation(kig: float, d_ft: float, d_fs: float) -> float:
    """Induction-generator power deviation dPgw = Kig*(dFt - dFs)."""
    return kig * (d_ft - d_fs)


def build_turbine_subsystem(p: WindParams) -> StateSpaceModel:
    """One-state turbine model for dFt.

        d/dt dFt = [-(1 + Kig - Ktp)*dFt + Kig*dFs + dPiw + dPcw] / Tw

    dFs and dPcw are couplings resolved at assembly time; dPiw is the
    wind input power disturbance.
    """
    a = np.array([[-(1.0 + p.Kig - p.Ktp) / p.Tw]])
    g = np.array([[p.Kig / p.Tw, 1.0 / p.Tw, 1.0 / p.Tw]])
    return StateSpaceModel(
        a=a,
        b=np.zeros((1, 0)),
        g=g,
        state_labels=("dFt",),
        disturbance_labels=("dFs", "dPiw", "dPcw"),
    )


def build_pitch_subsystem(p: WindParams) -> StateSpaceModel:
    """Three-state pitch actuation chain from the pitch command dPcu.

    The lead-lag (1+sTp1)/(1+s) is split as Tp1 + (1-Tp1)/(1+s), which
    puts its dynamic part in dPC1 while the Tp1 share of dPC2 feeds the
    output lag directly:

        d/dt dPC2 = (-dPC2 + Kp2*dPcu) / Tp2
        d/dt dPC1 = -dPC1 + (1 - Tp1)*dPC2
        d/dt dPcw = [-dPcw + Kpc*Kp3*Kp1*(dPC1 + Tp1*dPC2)] / Tp3
    """
    c = p.Kpc * p.Kp3 * p.Kp1 / p.Tp3
    a = np.array(
        [
            [-1.0 / p.Tp3, c, c * p.Tp1],
            [0.0, -1.0, 1.0 - p.Tp1],
            [0.0, 0.0, -1.0 / p.Tp2],
        ]
    )
    b = np.array([[0.0], [0.0], [p.Kp2 / p.Tp2]])
    return StateSpaceModel(
        a=a,
        b=b,
        g=np.zeros((3, 0)),
        state_labels=("dPcw", "dPC1", "dPC2"),
        control_labels=("dPcu",),
    )


def pitch_chain_tf(p: WindParams) -> TransferFunction:
    """Reference transfer function of the full chain, dPcu to dPcw.

    Used to cross-check the state realization: the product of the three
    cascaded blocks with the Kpc and Kp1 scale factors applied.
    """
    gain = p.Kpc * p.Kp3 * p.Kp1 * p.Kp2
    num = Polynomial([gain, gain * p.Tp1])
    den = Polynomial([1.0, p.Tp3]) * Polynomial([1.0, 1.0]) * Polynomial([1.0, p.Tp2])
    return TransferFunction(num, den)
