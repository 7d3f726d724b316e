"""Deterministic search for PI gains minimizing the frequency performance
index subject to closed-loop stability.

The cost surface has a hard discontinuity at the stability boundary
(unstable candidates cost infinity), so a derivative-free coordinate
pattern search with step halving is used instead of gradient descent.
No randomized moves are taken; the seed field exists for interface
stability should stochastic restarts ever be added.

The plant does not depend on the gains, so a run assembles it once; each
candidate then only closes the loop around it. Its cost is the exact
trapezoidal index of its RK4 trace, computed in closed form by
`engine.step_ise` with no stepping, so a cost evaluation takes a fraction
of a millisecond instead of a step loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .assembly import ControllerGains, SystemParams, assemble_plant, close_loop
from .engine import STEP_HEADROOM, Scenario, Step, rk4_growth, step_ise
from .errors import InvariantViolation, NoStableGainsFound
from .lti import eigenvalues

__all__ = ["GAIN_ORDER", "TuneSpec", "tune_gains"]

GAIN_ORDER = ("Kdp", "Kdi", "Kpp", "Kpi", "Ksp", "Ksi")

# a candidate counts as stable only when every eigenvalue clears this
# margin; guards against solver rounding right at the imaginary axis
STABILITY_MARGIN = -1e-6


def _default_bounds() -> dict[str, tuple[float, float]]:
    # proportional gains range wider than integral ones
    return {
        "Kdp": (0.0, 100.0),
        "Kdi": (0.0, 50.0),
        "Kpp": (0.0, 100.0),
        "Kpi": (0.0, 50.0),
        "Ksp": (0.0, 100.0),
        "Ksi": (0.0, 50.0),
    }


@dataclass(frozen=True)
class TuneSpec:
    bounds: Mapping[str, tuple[float, float]] = field(default_factory=_default_bounds)
    budget: int = 300  # max cost evaluations
    seed: int = 0  # reserved; the default search is deterministic
    per_loop: bool = False  # tune controller pairs one at a time
    eta_include_ft: bool = False  # add the dFt^2 term to the index
    t_end: float = 30.0  # evaluation horizon (s)
    dt: float = 0.005  # evaluation step (s)
    dpl: float = 0.01  # load step magnitude (pu kW)
    dpiw: float = 0.0  # wind input step magnitude (pu kW)
    dpis: float = 0.0  # solar input step magnitude (pu kW)
    onset: float = 1.0  # step onset, shared by all channels (s)

    def validate(self) -> None:
        if self.budget < 1:
            raise InvariantViolation("tune.budget must be >= 1")
        for name in GAIN_ORDER:
            if name not in self.bounds:
                raise InvariantViolation(f"tune bounds missing for {name}")
            lo, hi = self.bounds[name]
            if lo > hi:
                raise InvariantViolation(f"tune.{name}_min must not exceed tune.{name}_max")
        if self.dt <= 0:
            raise InvariantViolation("tune.dt must be > 0")
        if self.t_end < self.dt:
            raise InvariantViolation("tune.t_end must be >= tune.dt")
        if not math.isfinite(self.t_end / self.dt):
            raise InvariantViolation("tune.t_end / tune.dt overflows")
        if not 0.0 <= self.onset <= self.t_end:
            raise InvariantViolation("tune.onset must lie within [0, tune.t_end]")

    def scenario(self) -> Scenario:
        steps = {"dPl": Step(self.dpl, self.onset)}
        # optional extra excitation; stepping every channel makes the cost
        # sensitive to slow modes that a load step alone barely reaches
        if self.dpiw:
            steps["dPiw"] = Step(self.dpiw, self.onset)
        if self.dpis:
            steps["dPis"] = Step(self.dpis, self.onset)
        return Scenario(t_end=self.t_end, dt=self.dt, disturbances=steps)


class _OutOfBudget(Exception):
    pass


def _descend(cost, holder, names, bounds, tol_frac=1e-4):
    """Coordinate pattern search over `names`, mutating holder in place.

    Probes each coordinate one step up then down, accepts strict
    improvements, and halves every step after a sweep with no progress.
    """
    steps = {n: 0.1 * (bounds[n][1] - bounds[n][0]) for n in names}
    holder["cost"] = cost(holder["x"])
    while any(steps[n] > tol_frac * max(bounds[n][1] - bounds[n][0], 1.0) for n in names):
        improved = False
        for n in names:
            if steps[n] == 0.0:
                continue
            for sign in (1.0, -1.0):
                lo, hi = bounds[n]
                cand = min(max(holder["x"][n] + sign * steps[n], lo), hi)
                if cand == holder["x"][n]:
                    continue
                trial = dict(holder["x"])
                trial[n] = cand
                c = cost(trial)
                if c < holder["cost"]:
                    holder["x"] = trial
                    holder["cost"] = c
                    improved = True
                    break
        if not improved:
            for n in names:
                steps[n] *= 0.5


def tune_gains(params: SystemParams, spec: TuneSpec) -> tuple[ControllerGains, float]:
    """Best-found controller gains and their performance index.

    Candidates whose closed loop has any eigenvalue real part above the
    stability margin cost infinity, as do candidates on which a step
    STEP_HEADROOM times the evaluation step would leave a decaying mode
    undamped (the band where `integrate` warns), so every accepted iterate
    is a stable design that the evaluation step resolves. The
    search is deterministic: rerunning with the same inputs returns
    bit-identical gains. Raises NoStableGainsFound when nothing stable
    turns up within the budget.
    """
    spec.validate()
    scenario = spec.scenario()
    scenario.validate()
    plant = assemble_plant(params)

    active = list(GAIN_ORDER) if params.include_solar else list(GAIN_ORDER[:4])
    start = {
        # modest initial gains, clipped into the caller's box
        name: (
            min(max(0.5, spec.bounds[name][0]), spec.bounds[name][1])
            if name in active
            else 0.0
        )
        for name in GAIN_ORDER
    }

    state = {"evals": 0, "cap": spec.budget}
    cache: dict[tuple[float, ...], float] = {}

    def cost(xdict) -> float:
        key = tuple(xdict[n] for n in GAIN_ORDER)
        if key in cache:
            return cache[key]
        if state["evals"] >= state["cap"]:
            raise _OutOfBudget
        state["evals"] += 1
        model = close_loop(plant, ControllerGains(*key), params.wind.Kig)
        lam = eigenvalues(model.a)
        if (
            float(np.max(lam.real)) >= STABILITY_MARGIN
            or rk4_growth(lam, spec.dt * STEP_HEADROOM) >= 0.0
        ):
            c = math.inf
        else:
            c = step_ise(model, scenario, include_ft=spec.eta_include_ft)
        cache[key] = c
        return c

    holder = {"x": start, "cost": math.inf}
    # per_loop searches the (proportional, integral) pairs in turn, each but
    # the last capped at an equal share of the budget
    groups = [active[i : i + 2] for i in range(0, len(active), 2)] if spec.per_loop else [active]
    share = max(spec.budget // len(groups), 1)
    for i, names in enumerate(groups):
        last = i == len(groups) - 1
        state["cap"] = spec.budget if last else min(spec.budget, state["evals"] + share)
        try:
            _descend(cost, holder, names, spec.bounds)
        except _OutOfBudget:
            pass

    if not math.isfinite(holder["cost"]):
        raise NoStableGainsFound(
            f"no stable gain set found within {spec.budget} evaluations"
        )
    best = ControllerGains(**holder["x"])
    return best, holder["cost"]
