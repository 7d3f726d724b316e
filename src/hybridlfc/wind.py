"""Wind turbine and blade pitch constants.

The turbine contributes a single frequency state dFt driven by slip
coupling to the system frequency, by the wind input power disturbance and
by the pitch-controlled power dPcw. The pitch chain is three cascaded
blocks: a hydraulic servo Kp2/(1+sTp2), a lead-lag (1+sTp1)/(1+s) and a
data-fit lag Kp3/(1+sTp3), scaled by the blade characteristic Kpc and the
actuator gain Kp1. `assembly.assemble_plant` writes their rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation, check_fields

__all__ = ["WindParams"]


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
        check_fields(self, "wind.", positive=("Tw", "Tp2", "Tp3"))
        # Turbine pole is -(1 + Kig - Ktp)/Tw; keep it in the left half plane.
        if 1.0 + self.Kig - self.Ktp <= 0:
            raise InvariantViolation("wind requires 1 + Kig - Ktp > 0")
