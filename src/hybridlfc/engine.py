"""Fixed-step simulation of the linear models, analytic steady states and
the scalar performance index.

The integrator is classical fourth-order Runge-Kutta. Because the models
are linear and the inputs are held constant across each step, the four
stage evaluations collapse into two constant matrices,

    x+ = P x + Q c,   P = I + M + M^2/2 + M^3/6 + M^4/24,
                      Q = dt (I + M/2 + M^2/6 + M^3/24),  M = dt A,

where c = B u + G p is the forcing over the step. This is algebraically
identical to running the four stages. `_propagators` evaluates both in
Horner form with three products: R = I/6 + M/24, then R = M R + I/2,
then R = M R + I, so Q = dt R and P = I + M R = I + M Q/dt. The step
inputs cut the rows into stretches of constant forcing, which `_inputs`
forms once for both `integrate` and `ise_evaluator`; both form each
stretch's Q c as `q_mat.dot(forcing)`, so the trace and the index start
from the same bits.

`integrate` does not step row by row. Within a stretch,
x_{k+j} = P^j x_k + (I + P + ... + P^{j-1}) Q c, so one stack of
P, P^2, ..., P^B and one of the partial sums, built once per run, fill
up to B rows with one matrix-vector product (the standard power
treatment of a linear recurrence; Moler & Van Loan, SIAM Rev. 45, 2003).
B is MAX_CHUNK, halved while a stacked power or sum is not finite, so
that an unstable mode the scenario never excites stays at zero as it
does when stepping. The result is within 1e-12 of each column's scale
of the stepped recurrence (tests/reference.py keeps it as the oracle),
not bit for bit; at B = 1 it is the stepped recurrence.

The performance index needs no stepping at all. Over a stretch of rows
with constant forcing the augmented state z = [x; 1] follows
z+ = T z with T = [[P, Q c], [0, 1]], so the sum of squared frequency
deviations over L rows is z' (sum_{j<L} (T^j)' W T^j) z, where W picks
dFs (and dFt). `ise_evaluator` sums that series by binary doubling,
S_2m = S_m + (T^m)' S_m T^m, in about 2 log2(L) small matrix products
and without an inverse (Smith 1968; Van Loan 1978), then applies the
trapezoid end correction. It returns the trapezoid sum over the rows of
`integrate(...)` to rounding (tests/reference.py keeps that sum as its
reference). It is a set-up over the scenario and one evaluation per state
matrix, so the tuner does the scenario bookkeeping once per run.

Every function takes one model type, `lti.StateSpaceModel`, plants and
closed loops alike, so the engine needs only `lti`. The derived outputs
are one affine read-out of the state, y = Wx x + Wu u + Wp p, with the
weights over that state from `assembly.output_map`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidArgument,
    InvariantViolation,
    NonFiniteState,
    SingularSystem,
    UnstableStepSize,
    check_fields,
)
from .lti import StateSpaceModel, eigenvalues

__all__ = [
    "Step",
    "Scenario",
    "SimulationTrace",
    "rk4_growth",
    "integrate",
    "ise_evaluator",
    "steady_state",
]

# `integrate` stores every row; `simulate` writes its CSV a block at a
# time, so a run holds about 0.13 kB a row, its states, times and derived
# outputs (115 MB resident at 600 001 rows), and this keeps it under 0.4 GB
# and about 6 s; the default 60 s / 1 ms scenario has 60 001 rows
MAX_ROWS = 2_000_000

# `integrate` fills at most this many rows per matrix-vector product: on a
# 60 001-row run the loop takes about 1 900 turns instead of 60 000. Each
# of its two (32 n x n) stacks takes 37 kB at n = 12, below glibc's 128 kB
# mmap threshold; 16 costs more on long runs and 64 on short ones
MAX_CHUNK = 32


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
        # read-only copies, so that no later change to the caller's objects
        # (or to these) can slip past the checks below; bare numbers are
        # shorthand for steps applied at t = 0
        normalized = {
            lbl: s if isinstance(s, Step) else Step(float(s))
            for lbl, s in self.disturbances.items()
        }
        object.__setattr__(self, "disturbances", MappingProxyType(normalized))
        object.__setattr__(self, "controls", MappingProxyType(dict(self.controls)))
        if self.x0 is not None:
            x0 = np.array(self.x0, dtype=float)
            x0.flags.writeable = False
            object.__setattr__(self, "x0", x0)
        check_fields(self, "scenario.", positive=("dt",))
        if self.dt > self.t_end:
            raise InvariantViolation("scenario.dt must not exceed scenario.t_end")
        if not math.isfinite(self.t_end / self.dt):
            raise InvariantViolation("scenario.t_end / scenario.dt overflows")
        for lbl, step in self.disturbances.items():
            if not math.isfinite(step.magnitude):
                raise InvariantViolation(f"scenario.{lbl} must be finite")
            if not 0.0 <= step.onset <= self.t_end:
                raise InvariantViolation(
                    f"onset of '{lbl}' must lie within [0, t_end]"
                )
        for lbl, value in self.controls.items():
            if not math.isfinite(value):
                raise InvariantViolation(f"scenario.{lbl} must be finite")


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
    when include_ft is set. A missing one raises InvalidArgument."""
    wanted = ("dFs", "dFt") if include_ft else ("dFs",)
    for lbl in wanted:
        if lbl not in labels:
            raise InvalidArgument(f"performance index needs a '{lbl}' state; states are {labels}")
    return [labels.index(lbl) for lbl in wanted]


# bounded, since a library caller may simulate models of many sizes
@functools.lru_cache(maxsize=8)
def _identities(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only I, I/2 and I/6 of order n, built once per state count."""
    eyes = (np.eye(n), np.eye(n) / 2.0, np.eye(n) / 6.0)
    for eye in eyes:
        eye.flags.writeable = False
    return eyes


# `_propagators`, `_doubling_sum` and the evaluator run once per tuner
# candidate on 13 x 13 operands, where each numpy call costs more than the
# arithmetic; `ndarray.dot` costs about half the call overhead of `@` and
# calls the same BLAS routine, so the bits match
def _propagators(a: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    eye, half, sixth = _identities(a.shape[0])
    m = dt * a
    r = m / 24.0
    r += sixth
    r = m.dot(r)
    r += half
    r = m.dot(r)
    r += eye
    p = m.dot(r)
    p += eye
    return p, dt * r


def _chunk_propagators(p_mat: np.ndarray, chunk: int):
    """The chunk length B actually used, at most `chunk` (a power of two),
    and, as (B*n, n) stacks, the powers P, P^2, ..., P^B and the partial
    sums I, I + P, ..., sum_{i<B} P^i.

    The powers double by 2-D products, P^{j+m} = P^j P^m for j <= m; B
    halves while any stacked power or sum is not finite, since one inf
    times a zero state entry would make a NaN where stepping keeps 0.
    """
    n = p_mat.shape[0]
    powers = np.empty((chunk * n, n))
    powers[:n] = p_mat
    m = 1
    while m < chunk:
        # blocks 0 .. m-1 hold P .. P^m
        powers[m * n : 2 * m * n] = powers[: m * n] @ powers[(m - 1) * n : m * n]
        m *= 2
    stack = powers.reshape(chunk, n, n)
    sums = np.cumsum(np.concatenate([_identities(n)[0][None], stack[:-1]]), axis=0)
    finite = np.isfinite(stack).all(axis=(1, 2)) & np.isfinite(sums).all(axis=(1, 2))
    while chunk > 1 and not finite[:chunk].all():
        chunk //= 2
    return chunk, powers[: chunk * n], sums[:chunk].reshape(chunk * n, n)


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
    """What `integrate` and `ise_evaluator` need of the scenario: the row
    count, the control vector u, the initial state and the schedule of
    stretches of constant input. Row 0 and each distinct onset row start a
    stretch; stretch i covers rows edges[i] .. edges[i+1] - 1, with
    edges = [0, ..., rows], and holds ps[i] = p and forcings[i] = G p + B u.
    An onset on the last row changes that row's derived outputs, no state.
    """
    dt, steps = scenario.dt, scenario.disturbances
    rows = int(math.floor(scenario.t_end / dt + 1e-9)) + 1
    u = _input_vector(scenario.controls, model.control_labels, "control")
    onset = {lbl: int(math.floor(step.onset / dt + 1e-9)) for lbl, step in steps.items()}
    starts = sorted({0, *onset.values()})
    active = [{lbl: s.magnitude for lbl, s in steps.items() if onset[lbl] <= r} for r in starts]
    ps = np.array([_input_vector(a, model.disturbance_labels, "disturbance") for a in active])
    # huge inputs can overflow here; the callers' finiteness checks report it
    with np.errstate(over="ignore", invalid="ignore"):
        forcings = np.array([model.g @ p + model.b @ u for p in ps])

    n = model.n_states
    if scenario.x0 is None:
        x = np.zeros(n)
    else:
        x = scenario.x0.reshape(-1)
        if x.shape != (n,):
            raise DimensionMismatch(f"initial state has length {x.size}, model has {n} states")
    return rows, u, x, starts + [rows], ps, forcings


def integrate(model: StateSpaceModel, scenario: Scenario, outputs=None) -> SimulationTrace:
    """Simulate the model under the scenario's step inputs.

    Inputs are piecewise constant: each disturbance switches from zero to
    its magnitude at the sample on (or just before) its onset time and is
    held across every step. Rows run t = 0, dt, ..., floor(t_end/dt)*dt;
    more than MAX_ROWS of them raise InvariantViolation before allocating.
    A step that does not damp every decaying mode (`rk4_growth` >= 0)
    raises UnstableStepSize.

    Rows are filled in chunks of up to B by x_{k+j} = P^j x_k + r_j,
    j = 1..B, from the stacks of `_chunk_propagators`, built once per run;
    each stretch of the `_inputs` schedule forms Q c = q_mat.dot(forcing) and
    r = (partial sums) @ Q c once. B is MAX_CHUNK, halved while a stacked
    power is not finite. Every row is within 1e-12 of its column's scale
    of the stepped recurrence x+ = P x + Q c, and B = 1 is that
    recurrence; beside the states the loop holds O(B n^2).

    When an OutputMap is supplied its derived signals are evaluated along
    the trace as y = states Wx' plus, over each stretch's rows, the offset
    Wu u + Wp p of the scenario's controls u and the stretch's p. The map
    must weigh the model's own states (`output_map` with the gains the
    closed loop was built with); one over another state count raises
    DimensionMismatch.
    """
    a = model.a
    n = model.n_states
    dt = scenario.dt
    if outputs is not None and outputs.wx.shape[1] != n:
        raise DimensionMismatch(
            f"output map weighs {outputs.wx.shape[1]} states, model has {n}"
        )

    growth = rk4_growth(eigenvalues(a), dt)
    if growth >= 0.0:
        raise UnstableStepSize(
            f"max|R(lambda*dt)| = {1.0 + growth:.5g} >= 1: an RK4 step of {dt:g} s "
            "does not damp every decaying mode"
        )

    rows, u, x, edges, ps, forcings = _inputs(model, scenario)
    if rows > MAX_ROWS:
        raise InvariantViolation(
            f"scenario has {rows:.7g} rows, above the cap of {MAX_ROWS}; "
            "raise scenario.dt or lower scenario.t_end"
        )
    times = np.arange(rows) * dt

    states = np.empty((rows, n))
    states[0] = x
    # huge gains can overflow the propagators themselves; the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        p_mat, q_mat = _propagators(a, dt)
        chunk, powers, sums = _chunk_propagators(p_mat, MAX_CHUNK)
        # the steps leaving rows start .. stop - 1 fill rows start + 1 ..
        # stop; the last row leaves none
        for start, stop, forcing in zip(edges, edges[1:], forcings):
            k, end = start, min(stop, rows - 1)
            r = (sums @ q_mat.dot(forcing)).reshape(chunk, n)
            while k < end:
                m = min(chunk, end - k)
                states[k + 1 : k + 1 + m] = (powers[: m * n] @ x).reshape(m, n) + r[:m]
                k += m
                x = states[k]
    if not np.all(np.isfinite(states)):
        raise NonFiniteState("simulation produced non-finite state values")

    out_cols: dict[str, np.ndarray] = {}
    if outputs is not None:
        y = states @ outputs.wx.T
        for start, stop, y_p in zip(edges, edges[1:], outputs.wu @ u + ps @ outputs.wp.T):
            y[start:stop] += y_p
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
            total += z.dot(s).dot(z)
            z = tm.dot(z)
        length >>= 1
        if not length:
            return total, z
        s = s + tm.T.dot(s).dot(tm)
        tm = tm.dot(tm)


def ise_evaluator(model: StateSpaceModel, scenario: Scenario, include_ft: bool = False):
    """The trapezoid integral of dFs^2 (plus dFt^2 with include_ft) over
    the rows of `integrate(model, scenario)`, without stepping, split in
    two: the set-up over the model's B, G and labels, the scenario and
    include_ft, done here once, and a returned function that evaluates the
    index of the model with n x n state matrix `a`, so the index of `model`
    itself is `ise_evaluator(model, scenario, include_ft)(model.a)`. The
    set-up holds the weight W, the augmented start state and its weight
    y_0, and each `_inputs` stretch's length and forcing; an evaluation
    forms only the propagators, T and the doubling sums. Each evaluation
    copies its own T from the set-up's template, whose corner 1 is already
    written, so one evaluator may serve several threads.

    Each stretch of rows between onsets has constant forcing, so its sum
    of squared deviations is one quadratic form in the augmented state,
    summed by binary doubling; the last row enters through the trapezoid
    end correction dt * (sum - (y_0 + y_N) / 2). A stretch that starts at
    rest (x = 0) with zero forcing stays at rest, and since W ignores the
    constant component each of its rows adds exactly 0.0; such a stretch,
    like the quiet rows before a step onset, is skipped, which leaves the
    result bit-for-bit unchanged.

    Unlike `integrate` this applies no eigenvalue step guard, so it also
    returns an index for an unstable model: the tuner screens, with its
    own stricter step headroom, every candidate whose index would beat its
    best, and another caller that needs the guard can call `rk4_growth` on
    the eigenvalues it has. Raises NonFiniteState when the sum overflows;
    on an unstable model this can happen through the matrix powers alone,
    even from a mode that the scenario never excites and that stays at
    zero in the stepped trace.
    """
    n = model.n_states
    dt = scenario.dt
    rows, _, x, edges, _, forcings = _inputs(model, scenario)
    w = np.zeros((n + 1, n + 1))
    for i in _weighted_states(model.state_labels, include_ft):
        w[i, i] = 1.0
    z0 = np.append(x, 1.0)
    y0 = z0 @ w @ z0
    # rows 0 .. rows-2 are summed by stretch; the last row needs only its state
    last = rows - 1
    stretches = zip(edges, edges[1:], forcings)
    segments = [(min(stop, last) - start, f) for start, stop, f in stretches if start < last]

    # T = [[P, Q c], [0, 1]]: each evaluation copies this and writes P and Q c
    t_template = np.zeros((n + 1, n + 1))
    t_template[n, n] = 1.0

    def evaluate(a: np.ndarray) -> float:
        if a.shape != (n, n):
            raise DimensionMismatch(f"state matrix has shape {a.shape}, want {(n, n)}")
        t = t_template.copy()
        z, total = z0, 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            p_mat, q_mat = _propagators(a, dt)
            t[:n, :n] = p_mat
            for length, forcing in segments:
                t[:n, n] = q_mat.dot(forcing)
                if not (z[:n].any() or t[:n, n].any()):
                    continue  # at rest and unforced: every row adds 0.0, z stays
                part, z = _doubling_sum(t, w, z, length)
                total += part
            result = dt * (total + (z.dot(w).dot(z) - y0) / 2.0)
        if not math.isfinite(result):
            raise NonFiniteState("performance index is not finite")
        return float(result)

    return evaluate


def steady_state(
    model: StateSpaceModel,
    disturbances: Mapping[str, float] | None = None,
    controls: Mapping[str, float] | None = None,
) -> np.ndarray:
    """Equilibrium state under constant inputs: solve A x = -(B u + G p).

    Uses a partial-pivoting direct solve after rejecting systems whose
    smallest singular value falls below 1e-12 of the largest (free
    integrators, for instance, make the equilibrium non-unique). Raises
    NonFiniteState when the equilibrium overflows.
    """
    a, b, g = model.a, model.b, model.g
    u = _input_vector(controls or {}, model.control_labels, "control")
    p = _input_vector(disturbances or {}, model.disturbance_labels, "disturbance")

    svals = np.linalg.svd(a, compute_uv=False)
    if svals[-1] <= 1e-12 * svals[0]:
        raise SingularSystem(
            "state matrix is rank deficient; no unique equilibrium exists"
        )
    # a well-conditioned A can still map extreme inputs past the double
    # range, in G p or in the solve, where LAPACK flags nothing; the check
    # on the result catches both
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.linalg.solve(a, -(b @ u + g @ p))
    if not np.isfinite(x).all():
        raise NonFiniteState("equilibrium state is not finite")
    return x
