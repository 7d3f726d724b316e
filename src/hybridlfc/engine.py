"""Fixed-step simulation of the linear models, analytic steady states and
the scalar performance index.

The integrator is classical fourth-order Runge-Kutta. Because the models
are linear and the inputs are held constant across each step, the four
stage evaluations collapse into two constant matrices,

    x+ = P x + Q c,   P = I + M + M^2/2 + M^3/6 + M^4/24,
                      Q = dt (I + M/2 + M^2/6 + M^3/24),  M = dt A,

where c = B u + G p is the forcing over the step. This is algebraically
identical to running the four stages and keeps the hot loop at one
matrix-vector product per step.

The performance index needs no stepping at all. Over a stretch of rows
with constant forcing the augmented state z = [x; 1] follows
z+ = T z with T = [[P, Q c], [0, 1]], so the sum of squared frequency
deviations over L rows is z' (sum_{j<L} (T^j)' W T^j) z, where W picks
dFs (and dFt). `step_ise` sums that series by binary doubling,
S_2m = S_m + (T^m)' S_m T^m, in about 2 log2(L) small matrix products
and without an inverse (Smith 1968; Van Loan 1978), then applies the
trapezoid end correction. It returns what `ise(integrate(...))` returns,
to rounding; `integrate` + `ise` stay as its reference.

Every function takes one model type, `lti.StateSpaceModel`; on a closed
loop its `h` field holds the feedback matrix, so the engine needs only
`lti`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidArgument,
    InvariantViolation,
    NonFiniteState,
    SingularSystem,
    UnstableStepSize,
)
from .lti import StateSpaceModel, eigenvalues

__all__ = [
    "Step",
    "Scenario",
    "SimulationTrace",
    "rk4_growth",
    "integrate",
    "step_ise",
    "steady_state",
    "ise",
]

# `integrate` warns while a step this many times longer would leave a
# decaying mode undamped; on the negative real axis, where RK4 stops damping
# at |lambda|*dt = 2.78529... (the real root of 24 + 12x + 4x^2 + x^3),
# that is from |lambda|*dt = 2.5 on
STEP_HEADROOM = 2.785293563405282 / 2.5

# `integrate` stores every row, and `simulate` holds about 0.8 kB per row
# in states, forcing and CSV text, so this keeps a run near 1.6 GB; the
# default 60 s / 1 ms scenario has 60 001 rows
MAX_ROWS = 2_000_000


@dataclass(frozen=True)
class Step:
    """Step input: zero before onset, magnitude from onset onward."""

    magnitude: float
    onset: float = 0.0


@dataclass(frozen=True)
class Scenario:
    t_end: float
    dt: float
    disturbances: Mapping[str, Step] = field(default_factory=dict)
    controls: Mapping[str, float] = field(default_factory=dict)
    x0: np.ndarray | None = None

    def __post_init__(self):
        # allow bare numbers as shorthand for steps applied at t = 0
        normalized = {
            lbl: s if isinstance(s, Step) else Step(float(s))
            for lbl, s in self.disturbances.items()
        }
        object.__setattr__(self, "disturbances", normalized)

    def validate(self) -> None:
        if not self.dt > 0:
            raise InvariantViolation("scenario.dt must be > 0")
        if self.dt > self.t_end:
            raise InvariantViolation("scenario.dt must not exceed scenario.t_end")
        if not math.isfinite(self.t_end / self.dt):
            raise InvariantViolation("scenario.t_end / scenario.dt overflows")
        for lbl, step in self.disturbances.items():
            if not 0.0 <= step.onset <= self.t_end:
                raise InvariantViolation(
                    f"onset of '{lbl}' must lie within [0, t_end]"
                )


@dataclass(frozen=True)
class SimulationTrace:
    times: np.ndarray
    states: np.ndarray
    state_labels: tuple[str, ...]
    outputs: dict[str, np.ndarray] = field(default_factory=dict)

    def column(self, label: str) -> np.ndarray:
        """State or derived-output column by name."""
        if label in self.state_labels:
            return self.states[:, self.state_labels.index(label)]
        if label in self.outputs:
            return self.outputs[label]
        raise KeyError(label)


def _input_vector(values: Mapping[str, float], labels: tuple[str, ...], kind: str):
    vec = np.zeros(len(labels))
    for lbl, val in values.items():
        if lbl not in labels:
            raise InvalidArgument(f"unknown {kind} input '{lbl}'; model has {labels}")
        vec[labels.index(lbl)] += float(val)
    return vec


def _weighted_states(labels: tuple[str, ...], include_ft: bool) -> list[int]:
    """Indices of the states the performance index weighs: dFs, and dFt
    when include_ft is set. A missing one raises InvalidArgument, with the
    same message from `step_ise` and `ise`."""
    wanted = ("dFs", "dFt") if include_ft else ("dFs",)
    for lbl in wanted:
        if lbl not in labels:
            raise InvalidArgument(f"performance index needs a '{lbl}' state; states are {labels}")
    return [labels.index(lbl) for lbl in wanted]


def _propagators(a: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    n = a.shape[0]
    eye = np.eye(n)
    m1 = dt * a
    m2 = m1 @ m1
    m3 = m2 @ m1
    m4 = m3 @ m1
    p = eye + m1 + m2 / 2.0 + m3 / 6.0 + m4 / 24.0
    q = dt * (eye + m1 / 2.0 + m2 / 6.0 + m3 / 24.0)
    return p, q


def rk4_growth(lam: np.ndarray, dt: float) -> float:
    """max |R(lambda*dt)| - 1 over the eigenvalues with Re lambda < 0, where
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 is the factor by which one RK4
    step multiplies a mode: below 0 while every decaying mode is damped,
    -1.0 when no mode decays.

    Evaluated from w = R - 1: e = |R|^2 - 1 = (2 + Re w) Re w + (Im w)^2,
    then |R| - 1 = e / (sqrt(1 + e) + 1), so a barely decaying mode near
    z = 0 reads just below 0 instead of a rounded |R| of 1.0. A mode so
    fast that e overflows (to inf, or to nan through inf - inf) lies far
    outside the stability region and reads inf.
    """
    z = lam[lam.real < 0.0] * dt
    if not z.size:
        return -1.0
    with np.errstate(over="ignore", invalid="ignore"):
        w = z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
        e = float(np.max((2.0 + w.real) * w.real + w.imag**2))
    if not e < math.inf:
        return math.inf
    return e / (math.sqrt(1.0 + e) + 1.0)


def _inputs(model: StateSpaceModel, scenario: Scenario):
    """Grid and input bookkeeping shared by `integrate` and `step_ise`.

    Returns the row count, the constant control vector, one
    (onset row, disturbance column, magnitude) triple per step, and the
    initial state. The scenario must already be validated.
    """
    n, dlabels = model.n_states, model.disturbance_labels
    dt = scenario.dt
    rows = int(math.floor(scenario.t_end / dt + 1e-9)) + 1
    u_const = _input_vector(scenario.controls, model.control_labels, "control")
    onsets = []
    for lbl, step in scenario.disturbances.items():
        if lbl not in dlabels:
            raise InvalidArgument(f"unknown disturbance input '{lbl}'; model has {dlabels}")
        onset_idx = int(math.floor(step.onset / dt + 1e-9))
        onsets.append((onset_idx, dlabels.index(lbl), step.magnitude))

    if scenario.x0 is None:
        x = np.zeros(n)
    else:
        x = np.asarray(scenario.x0, dtype=float).reshape(-1)
        if x.shape != (n,):
            raise DimensionMismatch(f"initial state has length {x.size}, model has {n} states")
    return rows, u_const, onsets, x


def integrate(model: StateSpaceModel, scenario: Scenario, outputs=None) -> SimulationTrace:
    """Simulate the model under the scenario's step inputs.

    Inputs are piecewise constant: each disturbance switches from zero to
    its magnitude at the sample on (or just before) its onset time and is
    held across every step. Rows run t = 0, dt, ..., floor(t_end/dt)*dt;
    more than MAX_ROWS of them raise InvariantViolation before allocating.
    A step that does not damp every decaying mode (`rk4_growth` >= 0)
    raises UnstableStepSize; one within STEP_HEADROOM of that edge warns.

    When an OutputMap is supplied its derived signals are evaluated along
    the trace, with controller outputs u = H x + u0 reconstructed when the
    model carries a feedback matrix `h` (u = u0 otherwise).
    """
    scenario.validate()
    a, b, g = model.a, model.b, model.g
    n = model.n_states
    dt = scenario.dt

    lam = eigenvalues(a)
    growth = rk4_growth(lam, dt)
    if growth >= 0.0:
        raise UnstableStepSize(
            f"max|R(lambda*dt)| = {1.0 + growth:.5g} >= 1: an RK4 step of {dt:g} s "
            "does not damp every decaying mode"
        )
    if rk4_growth(lam, dt * STEP_HEADROOM) >= 0.0:
        # slow modes keep max|R| near 1 on any plant, so name the headroom
        warnings.warn(
            f"dt = {dt:g} s is within {STEP_HEADROOM - 1.0:.1%} of the RK4 stability "
            "edge: a step that much longer would not damp every decaying mode",
            RuntimeWarning,
            stacklevel=2,
        )

    rows, u_const, onsets, x = _inputs(model, scenario)
    if rows > MAX_ROWS:
        raise InvariantViolation(
            f"scenario has {rows:.7g} rows, above the cap of {MAX_ROWS}; "
            "raise scenario.dt or lower scenario.t_end"
        )
    times = np.arange(rows) * dt
    p_rows = np.zeros((rows, g.shape[1]))
    for onset_idx, col, magnitude in onsets:
        p_rows[onset_idx:, col] += magnitude

    p_mat, q_mat = _propagators(a, dt)
    # per-row forcing, already pushed through Q
    qc = (p_rows @ g.T + b @ u_const) @ q_mat.T

    states = np.empty((rows, n))
    states[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(rows - 1):
            x = p_mat @ x + qc[k]
            states[k + 1] = x
    if not np.all(np.isfinite(states)):
        raise NonFiniteState("simulation produced non-finite state values")

    out_cols: dict[str, np.ndarray] = {}
    if outputs is not None:
        n_open = outputs.wx.shape[1]
        if n < n_open:
            raise DimensionMismatch(
                f"output map expects at least {n_open} states, model has {n}"
            )
        if model.h is not None:
            u_rows = states @ model.h.T + u_const
        else:
            u_rows = np.broadcast_to(u_const, (rows, len(u_const)))
        y = states[:, :n_open] @ outputs.wx.T + u_rows @ outputs.wu.T + p_rows @ outputs.wp.T
        out_cols = {lbl: y[:, j] for j, lbl in enumerate(outputs.labels)}

    return SimulationTrace(
        times=times,
        states=states,
        state_labels=model.state_labels,
        outputs=out_cols,
    )


def _doubling_sum(t: np.ndarray, w: np.ndarray, z: np.ndarray, length: int):
    """Sum of z' (T^j)' W T^j z over j < length, and T^length z.

    S_m = sum_{j<m} (T^j)' W T^j doubles as S_2m = S_m + (T^m)' S_m T^m;
    each set bit of `length` consumes one block S_m from the current z.
    """
    s, tm, total = w, t, 0.0
    while True:
        if length & 1:
            total += z @ s @ z
            z = tm @ z
        length >>= 1
        if not length:
            return total, z
        s = s + tm.T @ s @ tm
        tm = tm @ tm


def step_ise(model: StateSpaceModel, scenario: Scenario, include_ft: bool = False) -> float:
    """`ise(integrate(model, scenario), include_ft)` without stepping.

    Each stretch of rows between onsets has constant forcing, so its sum
    of squared deviations is one quadratic form in the augmented state,
    summed by binary doubling; the last row enters through the trapezoid
    end correction dt * (sum - (y_0 + y_N) / 2). A stretch that starts at
    rest (x = 0) with zero forcing stays at rest, and since W ignores the
    constant component each of its rows adds exactly 0.0; such a stretch,
    like the quiet rows before a step onset, is skipped, which leaves the
    result bit-for-bit unchanged.

    Unlike `integrate` this applies no eigenvalue step guard: its only
    caller, the tuner, already rejects every candidate on which
    `integrate` would warn (`rk4_growth` at dt * STEP_HEADROOM >= 0), and
    a second eigenvalue solve per candidate would add about a fifth to a
    tuner run. Raises NonFiniteState when the sum overflows; on an
    unstable model this can happen through the matrix powers alone, even
    from a mode that the scenario never excites and that stays at zero in
    the stepped trace.
    """
    scenario.validate()
    a, b, g = model.a, model.b, model.g
    n = model.n_states
    rows, u_const, onsets, x = _inputs(model, scenario)
    w = np.zeros((n + 1, n + 1))
    for i in _weighted_states(model.state_labels, include_ft):
        w[i, i] = 1.0

    p_mat, q_mat = _propagators(a, scenario.dt)
    t = np.zeros((n + 1, n + 1))
    t[:n, :n] = p_mat
    t[n, n] = 1.0
    z = np.append(x, 1.0)
    y0 = z @ w @ z
    # rows 0 .. rows-2 are summed by segment; the last row needs only its state
    last = rows - 1
    starts = sorted(r for r in {0, *(row for row, _, _ in onsets)} if r < last)
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for start, stop in zip(starts, starts[1:] + [last]):
            p = np.zeros(g.shape[1])
            for row, col, magnitude in onsets:
                if row <= start:
                    p[col] += magnitude
            t[:n, n] = q_mat @ (g @ p + b @ u_const)
            if not (z[:n].any() or t[:n, n].any()):
                continue  # at rest and unforced: every row adds 0.0, z stays
            part, z = _doubling_sum(t, w, z, stop - start)
            total += part
        result = scenario.dt * (total + (z @ w @ z - y0) / 2.0)
    if not math.isfinite(result):
        raise NonFiniteState("performance index is not finite")
    return float(result)


def steady_state(
    model: StateSpaceModel,
    disturbances: Mapping[str, float] | None = None,
    controls: Mapping[str, float] | None = None,
) -> np.ndarray:
    """Equilibrium state under constant inputs: solve A x = -(B u + G p).

    Uses a partial-pivoting direct solve after rejecting systems whose
    smallest singular value falls below 1e-12 of the largest (free
    integrators, for instance, make the equilibrium non-unique).
    """
    a, b, g = model.a, model.b, model.g
    u = _input_vector(controls or {}, model.control_labels, "control")
    p = _input_vector(disturbances or {}, model.disturbance_labels, "disturbance")

    svals = np.linalg.svd(a, compute_uv=False)
    if svals[-1] <= 1e-12 * svals[0]:
        raise SingularSystem(
            "state matrix is rank deficient; no unique equilibrium exists"
        )
    return np.linalg.solve(a, -(b @ u + g @ p))


def ise(trace: SimulationTrace, include_ft: bool = False) -> float:
    """Performance index: integral of squared frequency deviation.

    Trapezoidal integral of dFs(t)^2 over the trace; include_ft adds the
    dFt(t)^2 term for tuning studies that weight both frequencies.
    """
    if trace.times.size == 0:
        raise InvariantViolation("cannot integrate an empty trace")
    y = sum(trace.states[:, i] ** 2 for i in _weighted_states(trace.state_labels, include_ft))
    return float(np.trapezoid(y, trace.times))
