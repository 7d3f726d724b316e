"""Diesel engine, speed governor and generation dynamics.

The governor is a lead-lag block K_d(1+sTd1)/((1+sTd2)(1+sTd3)) acting on
the speed-regulation error dPcd - dFs/Rd. Splitting it into partial
fractions gives two first-order states dXED11 and dXED21 whose sum feeds
the generation lag 1/(1+sTd4) that produces dPgd; `assembly.assemble_plant`
writes their rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation, check_fields

__all__ = ["DieselParams", "governor_residues"]

# Residue denominators blow up as Td2 -> Td3; refuse anything closer than this.
DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class DieselParams:
    Kd: float = 0.3333  # diesel share of load (pu kW/Hz)
    Td1: float = 1.0  # governor lead time constant (s)
    Td2: float = 2.0  # governor lag time constant (s)
    Td3: float = 0.025  # governor lag time constant (s)
    Td4: float = 3.0  # generation time constant (s)
    Rd: float = 5.0  # speed regulation (Hz / pu kW)

    def __post_init__(self):
        check_fields(self, "diesel.", positive=("Td2", "Td3", "Td4", "Rd"))
        if abs(self.Td2 - self.Td3) < DEGENERACY_TOL:
            raise InvariantViolation("diesel.Td2 must differ from diesel.Td3")


def governor_residues(p: DieselParams) -> tuple[float, float]:
    """Partial-fraction residues (K1, K2) of the governor lead-lag block.

    K1 scales the 1/(1+sTd2) branch and K2 the 1/(1+sTd3) branch. Their
    sum reproduces the governor's DC gain Kd exactly, which the caller can
    use as a cheap consistency check. `DieselParams` keeps Td2 and Td3 at
    least DEGENERACY_TOL apart, so the split always exists.
    """
    k1 = p.Kd * (p.Td2 - p.Td1) / (p.Td2 - p.Td3)
    k2 = p.Kd * (p.Td3 - p.Td1) / (p.Td3 - p.Td2)
    return k1, k2
