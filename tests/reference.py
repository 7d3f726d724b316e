"""Label-wired reference model for the tests.

`assembly.assemble_plant` writes the plant at fixed indices, and
`assembly.build_closed_loop(p, gains)`, the toolkit's one closed-loop
builder, writes the 12-state augmented loop around it the same way. This
module builds the same matrices the long way round: one state model per
subsystem block, its own companion-form realization of the converter
block, the blocks summed into zero matrices by label, and the PI loop
wired by named row and column. The tests compare the two bit for bit,
signed zeros included.

It also holds the small polynomial and transfer-function helpers
(evaluation, products, the DC gain) on plain coefficient tuples, and
`plant_block`, which cuts one subsystem's block out of an assembled plant
so that a test can check src's rows against a block-level property.

`stepped_states` is the RK4 recurrence x+ = P x + Q c stepped one row at
a time: the oracle of `engine.integrate`, which fills rows in chunks of
matrix powers. `ise`, the trapezoid sum of squared frequency deviations
over an `integrate` trace, is the oracle of `engine.ise_evaluator`, which
sums the same rows in closed form.

`eager_tune_gains` is the tuner with the eager cost, which screens every
candidate for stability before its index: the oracle of
`tuning.tune_gains`, which screens only a candidate whose index beats the
best so far.

Last, `golden_mpp` finds a cell's maximum power point by a grid scan
refined with golden-section search, and `dp_dv` gives the slope of the
power curve in closed form: two oracles for `solar.pv_curve`'s Newton
solve.
"""

import math

import numpy as np
from numpy.polynomial import polynomial as P

import hybridlfc.tuning as tuning
from hybridlfc.assembly import (
    INTEGRATOR_LABELS,
    PLANT_CONTROL_ORDER,
    PLANT_DISTURBANCE_ORDER,
    PLANT_STATE_ORDER,
    ControllerGains,
    build_closed_loop,
)
from hybridlfc.diesel import governor_residues
from hybridlfc.engine import _inputs, _propagators, _weighted_states, ise_evaluator
from hybridlfc.errors import InvalidArgument, InvariantViolation, NoStableGainsFound, ToolkitError
from hybridlfc.lti import StateSpaceModel, eigenvalues
from hybridlfc.solar import (
    open_circuit_voltage,
    photocurrent,
    solve_pv_current,
    voltage_grid_points,
)

# --- polynomials and transfer functions ------------------------------------
# A polynomial is a sequence of coefficients ascending in s; a transfer
# function is a pair (num, den) of them.


class ZeroDcDenominator(ToolkitError):
    """Denominator vanishes at s = 0 (free integrator); no finite DC gain."""


def polyval(p, s):
    """p(s)."""
    return P.polyval(s, p)


def poly_mul(p, q) -> tuple[float, ...]:
    return tuple(P.polymul(p, q).tolist())


def tf_eval(tf, s):
    """num(s)/den(s)."""
    num, den = tf
    return polyval(num, s) / polyval(den, s)


def tf_dc_gain(tf) -> float:
    """Gain of tf at s = 0, num(0)/den(0); ZeroDcDenominator when den(0) = 0."""
    num, den = tf
    if den[0] == 0.0:
        raise ZeroDcDenominator("denominator vanishes at s = 0")
    return num[0] / den[0]


def tf_to_ss(tf, state_prefix: str = "x", input_label: str = "u"):
    """Companion-form realization ``(model, feedthrough)`` of a proper
    transfer function whose denominator has degree n >= 1.

    The model has n states; the block output is the LAST state plus
    ``feedthrough * input``. On the coefficients scaled by den's leading
    one, the feedthrough is num's coefficient of s^n and the input column
    the strictly-proper remainder num - feedthrough*den, so K/(1+sT)
    becomes dx/dt = -x/T + (K/T) u, y = x, and the eigenvalues of A are the
    denominator roots. Trailing zero coefficients are dropped first.
    """
    num, den = (np.trim_zeros(np.array(c, dtype=float), "b") for c in tf)
    n = den.size - 1
    if n < 1 or num.size > n + 1:
        raise ValueError(f"no realization of a block of degrees {num.size - 1}/{n}")
    lead = den[n]
    num = np.concatenate([num / lead, np.zeros(n + 1 - num.size)])
    den = den / lead
    d = float(num[n])
    a = np.eye(n, k=-1)
    a[:, n - 1] = -den[:n]
    model = StateSpaceModel(
        a=a,
        b=(num[:n] - d * den[:n]).reshape(n, 1),
        g=np.zeros((n, 0)),
        state_labels=tuple(f"{state_prefix}{i + 1}" for i in range(n)),
        control_labels=(input_label,),
    )
    return model, d


# --- subsystem blocks --------------------------------------------------------


def build_diesel_subsystem(p) -> StateSpaceModel:
    """Three-state diesel block [dXED11, dXED21, dPgd] from the setpoint
    dPcd, with dFs entering through the droop term -1/Rd:

        d/dt dXED11 = (-dXED11 + K1*(dPcd - dFs/Rd)) / Td2
        d/dt dXED21 = (-dXED21 + K2*(dPcd - dFs/Rd)) / Td3
        d/dt dPgd   = (-dPgd + dXED11 + dXED21) / Td4
    """
    k1, k2 = governor_residues(p)
    a = np.array(
        [
            [-1.0 / p.Td2, 0.0, 0.0],
            [0.0, -1.0 / p.Td3, 0.0],
            [1.0 / p.Td4, 1.0 / p.Td4, -1.0 / p.Td4],
        ]
    )
    b = np.array([[k1 / p.Td2], [k2 / p.Td3], [0.0]])
    g = np.array([[-k1 / (p.Rd * p.Td2)], [-k2 / (p.Rd * p.Td3)], [0.0]])
    return StateSpaceModel(
        a=a,
        b=b,
        g=g,
        state_labels=("dXED11", "dXED21", "dPgd"),
        control_labels=("dPcd",),
        disturbance_labels=("dFs",),
    )


def wind_generation(kig: float, d_ft: float, d_fs: float) -> float:
    """Induction-generator power deviation dPgw = Kig*(dFt - dFs)."""
    return kig * (d_ft - d_fs)


def build_turbine_subsystem(p) -> StateSpaceModel:
    """One-state turbine model for dFt, with couplings dFs and dPcw:

        d/dt dFt = [-(1 + Kig - Ktp)*dFt + Kig*dFs + dPiw + dPcw] / Tw
    """
    return StateSpaceModel(
        a=np.array([[-(1.0 + p.Kig - p.Ktp) / p.Tw]]),
        b=np.zeros((1, 0)),
        g=np.array([[p.Kig / p.Tw, 1.0 / p.Tw, 1.0 / p.Tw]]),
        state_labels=("dFt",),
        disturbance_labels=("dFs", "dPiw", "dPcw"),
    )


def build_pitch_subsystem(p) -> StateSpaceModel:
    """Three-state pitch chain [dPcw, dPC1, dPC2] from the command dPcu,
    with the lead-lag (1+sTp1)/(1+s) split as Tp1 + (1-Tp1)/(1+s):

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
    return StateSpaceModel(
        a=a,
        b=np.array([[0.0], [0.0], [p.Kp2 / p.Tp2]]),
        g=np.zeros((3, 0)),
        state_labels=("dPcw", "dPC1", "dPC2"),
        control_labels=("dPcu",),
    )


def pitch_chain_tf(p):
    """The pitch chain dPcu to dPcw, as (num, den), the product of its
    cascaded blocks."""
    gain = p.Kpc * p.Kp3 * p.Kp1 * p.Kp2
    den = poly_mul(poly_mul((1.0, p.Tp3), (1.0, 1.0)), (1.0, p.Tp2))
    return (gain, gain * p.Tp1), den


def build_solar_subsystem(p) -> StateSpaceModel:
    """Realization of the converter block, with the control us and the
    disturbance dPis summed at its input (the same column in B and G)."""
    realization, _ = tf_to_ss((p.gbc_num, p.gbc_den), state_prefix="xs", input_label="us")
    return StateSpaceModel(
        a=realization.a,
        b=realization.b,
        g=realization.b.copy(),
        state_labels=realization.state_labels,
        control_labels=("us",),
        disturbance_labels=("dPis",),
    )


def plant_block(plant, states, controls=(), couplings=()) -> StateSpaceModel:
    """The diagonal block of an `assemble_plant` model over the named states,
    as a model of its own: the named plant controls drive it through their
    columns of B, and the named plant states outside the block (couplings
    such as dFs) through their columns of A."""
    rows = [plant.state_labels.index(lbl) for lbl in states]
    cols = [plant.control_labels.index(lbl) for lbl in controls]
    coupled = [plant.state_labels.index(lbl) for lbl in couplings]
    return StateSpaceModel(
        a=plant.a[np.ix_(rows, rows)],
        b=plant.b[np.ix_(rows, cols)],
        g=plant.a[np.ix_(rows, coupled)],
        state_labels=tuple(states),
        control_labels=tuple(controls),
        disturbance_labels=tuple(couplings),
    )


# --- wired plant and closed loop ---------------------------------------------


def wired_plant(p):
    """(A, B, G) of the plant: the subsystem models summed into zero
    matrices by label, then the frequency balance row."""
    spos = {lbl: i for i, lbl in enumerate(PLANT_STATE_ORDER)}
    cpos = {lbl: i for i, lbl in enumerate(PLANT_CONTROL_ORDER)}
    dpos = {lbl: i for i, lbl in enumerate(PLANT_DISTURBANCE_ORDER)}
    a = np.zeros((10, 10))
    b = np.zeros((10, 3))
    g = np.zeros((10, 3))
    for sub in (
        build_diesel_subsystem(p.diesel),
        build_turbine_subsystem(p.wind),
        build_pitch_subsystem(p.wind),
        build_solar_subsystem(p.solar),
    ):
        rows = [spos[lbl] for lbl in sub.state_labels]
        for i, ri in enumerate(rows):
            for j, rj in enumerate(rows):
                a[ri, rj] += sub.a[i, j]
            for j, lbl in enumerate(sub.control_labels):
                b[ri, cpos[lbl]] += sub.b[i, j]
            # a coupling that names a plant state lands in A
            for j, lbl in enumerate(sub.disturbance_labels):
                if lbl in spos:
                    a[ri, spos[lbl]] += sub.g[i, j]
                else:
                    g[ri, dpos[lbl]] += sub.g[i, j]

    kp_tp = p.Kp / p.Tp
    kig = p.wind.Kig
    a[0, spos["dFs"]] = -(1.0 + kig * p.Kp) / p.Tp
    a[0, spos["dFt"]] = kig * kp_tp
    a[0, spos["dPgd"]] = kp_tp
    g[0, dpos["dPl"]] = -kp_tp
    if p.include_solar:
        kgs = p.solar.Kgs
        _, d = tf_to_ss((p.solar.gbc_num, p.solar.gbc_den))
        a[0, spos["xs2"]] += kp_tp * kgs
        b[0, cpos["us"]] += kp_tp * kgs * d
        g[0, dpos["dPis"]] += kp_tp * kgs * d
    return a, b, g


def labelled_closed_loop(plant, g, kig):
    """Closed loop wired by label: iFs and iFt appended as selectors on the
    states named dFs and dFt, H filled by named row and column, then
    Ahat = Abar + Bbar H. Returns (Ahat, Bbar, Gbar, H)."""
    labels = plant.state_labels + INTEGRATOR_LABELS
    col = {lbl: i for i, lbl in enumerate(labels)}
    row = {lbl: i for i, lbl in enumerate(plant.control_labels)}
    n = plant.n_states
    abar = np.zeros((n + 2, n + 2))
    abar[:n, :n] = plant.a
    abar[col["iFs"], col["dFs"]] = 1.0
    abar[col["iFt"], col["dFt"]] = 1.0
    bbar = np.zeros((n + 2, plant.b.shape[1]))
    bbar[:n, :] = plant.b
    gbar = np.zeros((n + 2, plant.g.shape[1]))
    gbar[:n, :] = plant.g
    h = np.zeros((len(row), n + 2))
    h[row["dPcd"], col["dFs"]] = -g.Kdp
    h[row["dPcd"], col["iFs"]] = -g.Kdi
    h[row["dPcu"], col["dFs"]] = kig * g.Kpp
    h[row["dPcu"], col["dFt"]] = -kig * g.Kpp
    h[row["dPcu"], col["iFs"]] = kig * g.Kpi
    h[row["dPcu"], col["iFt"]] = -kig * g.Kpi
    h[row["us"], col["dFs"]] = -g.Ksp
    h[row["us"], col["iFs"]] = -g.Ksi
    return abar + bbar @ h, bbar, gbar, h


# --- stepped RK4 trace ---------------------------------------------------------


def stepped_states(model, scenario, dtype=float):
    """(rows, n) states of `engine.integrate`'s recurrence stepped one row at
    a time: x+ = P x + Q c, with each `_inputs` stretch's Q c formed as
    q_mat @ forcing. No step guard, row cap or finiteness check. With
    dtype=np.longdouble the same double P and Q c are stepped in extended
    precision, where the platform has it."""
    rows, _, x, edges, _, forcings = _inputs(model, scenario)
    states = np.empty((rows, model.n_states), dtype=dtype)
    states[0] = x
    x = states[0]
    with np.errstate(over="ignore", invalid="ignore"):
        p_mat, q_mat = _propagators(model.a, scenario.dt)
        p_mat = p_mat.astype(dtype)
        # the steps leaving rows start .. stop - 1; the last row leaves none
        for start, stop, forcing in zip(edges, edges[1:], forcings):
            qc = (q_mat @ forcing).astype(dtype)
            for k in range(start + 1, min(stop + 1, rows)):
                x = p_mat @ x + qc
                states[k] = x
    return states


def ise(trace, include_ft: bool = False) -> float:
    """Performance index: integral of squared frequency deviation.

    Trapezoidal integral of dFs(t)^2 over the trace; include_ft adds the
    dFt(t)^2 term for tuning studies that weight both frequencies.
    """
    if trace.times.size == 0:
        raise InvariantViolation("cannot integrate an empty trace")
    y = sum(trace.states[:, i] ** 2 for i in _weighted_states(trace.state_labels, include_ft))
    return float(np.trapezoid(y, trace.times))


# --- eager tuner -----------------------------------------------------------------


def eager_tune_gains(params, spec):
    """`tuning.tune_gains` with the eager cost: every candidate is screened
    (`tuning._admissible` on its eigenvalues) before its index, and one the
    screen refuses costs infinity unevaluated. The search, its budget caps
    and its groups are the tuner's, and so is the fill: each Ahat is filled
    from the candidate's key tuple, with no `ControllerGains` built. It
    looks up `tuning.closed_loop_matrix` and `tuning._descend` at call
    time, so a test that wraps them sees this search and the shipped one
    alike."""
    base = build_closed_loop(params, ControllerGains())
    evaluate = ise_evaluator(base, spec.scenario(), include_ft=spec.eta_include_ft)
    active = tuning.GAIN_ORDER if params.include_solar else tuning.GAIN_ORDER[:4]
    x = [
        min(max(0.5, spec.bounds[name][0]), spec.bounds[name][1]) if name in active else 0.0
        for name in tuning.GAIN_ORDER
    ]
    cache = {}

    def cost(key, best):  # `best` unused: the screen comes first
        if key in cache:
            return cache[key]
        if len(cache) >= cap:
            raise tuning._OutOfBudget
        a = tuning.closed_loop_matrix(base.a, base.b, key, params.wind.Kig)
        try:
            admissible = tuning._admissible(eigenvalues(a), spec.dt)
        except InvalidArgument:
            admissible = False
        cache[key] = evaluate(a) if admissible else math.inf
        return cache[key]

    groups = [active[i : i + 2] for i in range(0, len(active), 2)] if spec.per_loop else [active]
    share = max(spec.budget // len(groups), 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, names in enumerate(groups):
            last = i == len(groups) - 1
            cap = spec.budget if last else min(spec.budget, len(cache) + share)
            try:
                tuning._descend(cost, x, list(names), spec.bounds)
            except tuning._OutOfBudget:
                pass
    eta = cache[tuple(x)]
    if not math.isfinite(eta):
        n = len(cache)
        raise NoStableGainsFound(f"no stable gain set found within {n} evaluation{'s' * (n != 1)}")
    return ControllerGains(*x), eta


# --- golden-section maximum power point --------------------------------------

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(fn, lo: float, hi: float, tol: float) -> float:
    """Abscissa of the maximum of a unimodal fn on [lo, hi]."""
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def golden_mpp(p, v_step):
    """(V, I, P) at the best sample of the grid {0, v_step, ...} up to Voc,
    refined by golden-section search to 1e-6 V between its neighbours, or
    the grid sample itself where the refinement does worse; (0, 0, 0) in
    darkness. Every power is a scalar `solve_pv_current` times its voltage."""
    voc = open_circuit_voltage(p)
    if voc <= 0.0:
        return 0.0, 0.0, 0.0
    power = lambda v: v * solve_pv_current(p, v)
    best = max((k * v_step for k in range(voltage_grid_points(voc, v_step))), key=power)
    v = golden_max(power, max(best - v_step, 0.0), min(best + v_step, voc), 1e-6)
    if power(v) < power(best):
        v = best
    i = solve_pv_current(p, v)
    return v, i, v * i


def dp_dv(p, v, i):
    """dP/dV = I + V dI/dV of the single-diode law at (v, i), in closed form."""
    return i - v / (p.Rs + p.thermal_voltage / (photocurrent(p) + p.Isat - i))
