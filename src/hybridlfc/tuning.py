"""Deterministic search for PI gains minimizing the frequency performance
index subject to closed-loop stability.

The cost surface has a hard discontinuity at the stability boundary
(unstable candidates cost infinity), so a derivative-free coordinate
pattern search with step halving is used instead of gradient descent.
No randomized moves are taken, so the seed field is read by nothing; it is
kept only because existing configs, the benchmark's among them, still set
`tune.seed`, and it goes with ROADMAP item 13.

Nothing but Ahat depends on the gains, so a run builds one closed loop
at zero gains (`assembly.build_closed_loop`, whose A is then the
augmented open loop Abar) and sets up the index's scenario bookkeeping
once (`engine.ise_evaluator`). A candidate, a tuple of six gains in
GAIN_ORDER, then costs one fill of Ahat = Abar + Bbar H from that tuple
(`assembly.closed_loop_matrix`, no `ControllerGains`) and one evaluation
of the exact trapezoidal index of its RK4 trace, summed in closed form
with no stepping. Only a candidate whose index beats the best so far also
costs an eigenvalue solve and the stability and step headroom screen:
the search accepts nothing else, and the best never rises, so an index
that does not beat it now never will (Hooke & Jeeves, J. ACM 8, 1961).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .assembly import (
    GAIN_ORDER,
    ControllerGains,
    SystemParams,
    build_closed_loop,
    closed_loop_matrix,
)
from .engine import Scenario, Step, ise_evaluator, rk4_growth
from .errors import (
    InvalidArgument,
    InvariantViolation,
    NoStableGainsFound,
    NonFiniteState,
    check_fields,
)
from .lti import eigenvalues

__all__ = ["GAIN_ORDER", "TuneSpec", "tune_gains"]

# a candidate counts as stable only when every eigenvalue clears this
# margin; guards against solver rounding right at the imaginary axis
STABILITY_MARGIN = -1e-6

# a candidate also costs infinity unless a step this many times tune.dt would
# still damp every decaying mode, so that no optimum rests on the weak damping
# RK4 gives near its edge: on the negative real axis, where RK4 stops damping
# at |lambda|*dt = 2.78529... (the real root of 24 + 12x + 4x^2 + x^3), that
# admits |lambda|*dt up to 2.5
STEP_HEADROOM = 2.785293563405282 / 2.5

# RK4 damps every mode inside the open left half-disk of this radius (its
# stability boundary comes no nearer to the origin than about 2.61, near
# 122 degrees; tests/test_tuning.py proves the disk), so a candidate whose
# every |lambda| * dt * STEP_HEADROOM lies below it needs no `rk4_growth`
RK4_DISK_RADIUS = 2.5


def _admissible(lam: np.ndarray, dt: float) -> bool:
    """Whether a candidate's closed-loop eigenvalues pass the tuner's screen:
    every real part below STABILITY_MARGIN, and a step STEP_HEADROOM times
    dt damping every mode (`rk4_growth` < 0, skipped when the whole
    spectrum lies inside the RK4_DISK_RADIUS half-disk)."""
    # `eigenvalues` sorts by real part, descending
    if lam[0].real >= STABILITY_MARGIN:
        return False
    step = dt * STEP_HEADROOM
    return bool(abs(lam).max() * step < RK4_DISK_RADIUS or rk4_growth(lam, step) < 0.0)


def _default_bounds() -> dict[str, tuple[float, float]]:
    # GAIN_ORDER pairs each loop's gains, proportional first; proportional
    # gains range wider than integral ones
    return dict(zip(GAIN_ORDER, [(0.0, 100.0), (0.0, 50.0)] * 3))


@dataclass(frozen=True)
class TuneSpec:
    bounds: Mapping[str, tuple[float, float]] = field(default_factory=_default_bounds)
    budget: int = 300  # max cost evaluations
    seed: int = 0  # read by nothing; kept so configs that set tune.seed parse
    per_loop: bool = False  # tune controller pairs one at a time
    eta_include_ft: bool = False  # add the dFt^2 term to the index
    t_end: float = 30.0  # evaluation horizon (s)
    dt: float = 0.005  # evaluation step (s)
    dpl: float = 0.01  # load step magnitude (pu kW)
    dpiw: float = 0.0  # wind input step magnitude (pu kW)
    dpis: float = 0.0  # solar input step magnitude (pu kW)
    onset: float = 1.0  # step onset, shared by all channels (s)

    def __post_init__(self):
        check_fields(self, "tune.", positive=("dt",))
        # a read-only copy of tuples: no later change to the caller's dict
        # or lists can undo the box checks
        bounds = {}
        for name, box in self.bounds.items():
            try:
                lo, hi = box
                finite = math.isfinite(lo) and math.isfinite(hi)
            except (TypeError, ValueError):
                finite = False
            if not finite:
                raise InvariantViolation(f"tune.{name}_min/_max must be a finite pair: {box!r}")
            bounds[name] = (lo, hi)
        object.__setattr__(self, "bounds", MappingProxyType(bounds))
        if self.budget < 1:
            raise InvariantViolation("tune.budget must be >= 1")
        for name in GAIN_ORDER:
            if name not in self.bounds:
                raise InvariantViolation(f"tune bounds missing for {name}")
            lo, hi = self.bounds[name]
            if lo > hi:
                raise InvariantViolation(f"tune.{name}_min must not exceed tune.{name}_max")
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


def _descend(cost, x, names, bounds):
    """Coordinate pattern search over `names`, moving the gain list x in place.

    Probes each coordinate one step up then down, accepts strict
    improvements, and halves every step after a sweep with no progress.
    `cost(key, best)` is told the best cost so far, which never rises.
    """
    steps = {n: 0.1 * (bounds[n][1] - bounds[n][0]) for n in names}
    best = cost(tuple(x), math.inf)
    while any(steps[n] > 1e-4 * max(bounds[n][1] - bounds[n][0], 1.0) for n in names):
        improved = False
        for n in names:
            if steps[n] == 0.0:
                continue
            i = GAIN_ORDER.index(n)
            lo, hi = bounds[n]
            for sign in (1.0, -1.0):
                cand = min(max(x[i] + sign * steps[n], lo), hi)
                if cand == x[i]:
                    continue
                c = cost((*x[:i], cand, *x[i + 1 :]), best)
                if c < best:
                    x[i], best, improved = cand, c, True
                    break
        if not improved:
            for n in names:
                steps[n] *= 0.5


def tune_gains(params: SystemParams, spec: TuneSpec) -> tuple[ControllerGains, float]:
    """Best-found controller gains and their performance index.

    Candidates whose Ahat overflows, or whose closed loop has any
    eigenvalue real part above the stability margin, are never accepted,
    nor are candidates on which a step STEP_HEADROOM times the evaluation
    step would leave a decaying mode undamped, so every accepted iterate is a
    stable design that the evaluation step resolves with room to spare. The
    search is deterministic: rerunning with the same inputs returns
    bit-identical gains. Raises NoStableGainsFound, naming how many
    candidates were costed, when nothing stable turns up within the budget.
    `params` and `spec` checked themselves when they were built, so a bad
    box or horizon raises InvariantViolation from `TuneSpec`, not from here.
    """
    # at zero gains H = 0, so base.a is the augmented open loop Abar
    base = build_closed_loop(params, ControllerGains())
    evaluate = ise_evaluator(base, spec.scenario(), include_ft=spec.eta_include_ft)
    kig = params.wind.Kig

    active = list(GAIN_ORDER) if params.include_solar else list(GAIN_ORDER[:4])
    x = [
        # modest initial gains, clipped into the caller's box
        min(max(0.5, spec.bounds[name][0]), spec.bounds[name][1]) if name in active else 0.0
        for name in GAIN_ORDER
    ]
    # costs by gain tuple; its size counts the evaluations, capped at `cap`
    cache: dict[tuple[float, ...], float] = {}

    def admissible(a: np.ndarray) -> bool:
        try:
            return _admissible(eigenvalues(a), spec.dt)
        except InvalidArgument:  # eigenvalues refuses an Ahat that overflowed
            return False

    def cost(key: tuple[float, ...], best: float) -> float:
        # the index, or infinity when the screen refuses the candidate; an
        # index that does not beat `best` is cached unscreened, since it
        # cannot beat any later best either
        if key in cache:
            return cache[key]
        if len(cache) >= cap:
            raise _OutOfBudget
        a = closed_loop_matrix(base.a, base.b, key, kig)
        try:
            c = evaluate(a)
        except NonFiniteState:
            if admissible(a):
                raise
            c = math.inf
        if c < best and not admissible(a):
            c = math.inf
        cache[key] = c
        return c

    # per_loop searches the (proportional, integral) pairs in turn, each but
    # the last capped at an equal share of the budget
    groups = [active[i : i + 2] for i in range(0, len(active), 2)] if spec.per_loop else [active]
    share = max(spec.budget // len(groups), 1)
    # extreme gains can overflow Ahat, and unstable ones the index; such a
    # candidate costs infinity, and one errstate for the whole search keeps
    # numpy from warning about it
    with np.errstate(over="ignore", invalid="ignore"):
        for i, names in enumerate(groups):
            last = i == len(groups) - 1
            cap = spec.budget if last else min(spec.budget, len(cache) + share)
            try:
                _descend(cost, x, names, spec.bounds)
            except _OutOfBudget:
                pass

    eta = cache[tuple(x)]
    if not math.isfinite(eta):
        n = len(cache)
        raise NoStableGainsFound(f"no stable gain set found within {n} evaluation{'s' * (n != 1)}")
    return ControllerGains(*x), eta
