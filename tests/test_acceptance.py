"""End-to-end acceptance checks for the toolkit.

Each test prints one [PASS]/[FAIL] line (visible under pytest -s) so the
whole gate can be read at a glance, then asserts. The checks exercise the
governor split, the uncontrolled droop response, the tuned closed loop,
the tuner's search path, the spectrum bookkeeping, integrator accuracy,
linearity, the PV solver, the switched converter and the solar channel
block.
"""

import math

import numpy as np
import pytest

import hybridlfc.tuning
from hybridlfc.assembly import (
    ControllerGains,
    SystemParams,
    assemble_plant,
    build_closed_loop,
)
from hybridlfc.diesel import DieselParams, governor_residues
from hybridlfc.engine import Scenario, Step, integrate, steady_state
from hybridlfc.lti import eigenvalues
from hybridlfc.solar import (
    BoostParams,
    PvCellParams,
    SolarChannelParams,
    boost_switched_step,
    open_circuit_voltage,
    photocurrent,
    pv_curve,
    solve_pv_current,
)
from reference import plant_block, tf_dc_gain


def report(label: str, ok: bool) -> None:
    print(("[PASS] " if ok else "[FAIL] ") + label, flush=True)
    assert ok, label


def test_governor_split_identity():
    p = DieselParams()
    k1, k2 = governor_residues(p)
    ok = abs(k1 + k2 - p.Kd) < 1e-12

    rng = np.random.default_rng(1729)
    for _ in range(20):
        s = complex(rng.uniform(0.0, 2.0), rng.uniform(-10.0, 10.0))
        split = k1 / (1.0 + s * p.Td2) + k2 / (1.0 + s * p.Td3)
        direct = p.Kd * (1.0 + s * p.Td1) / ((1.0 + s * p.Td2) * (1.0 + s * p.Td3))
        ok = ok and abs(split - direct) <= 1e-10 * abs(direct)
    report("governor split reproduces the lead-lag block", ok)


def test_uncontrolled_droop_response():
    plant = assemble_plant(SystemParams())
    trace = integrate(
        plant, Scenario(t_end=120.0, dt=0.005, disturbances={"dPl": 0.01})
    )
    analytic = -0.01 / (
        1.0 / 72.0
        + 0.3333 / 5.0
        + 0.9969 * (1.0 - 0.003333) / (1.0 + 0.9969 - 0.003333)
    )
    final = trace.column("dFs")[-1]
    report(
        "droop-only load step settles at the analytic frequency deviation",
        abs(final - analytic) < 1e-5,
    )


def test_tuned_gains_settle_every_channel(default_params, tuned):
    gains, _ = tuned
    model = build_closed_loop(default_params, gains)
    ok = True
    for channel in ("dPl", "dPiw", "dPis"):
        trace = integrate(
            model,
            Scenario(t_end=200.0, dt=0.005, disturbances={channel: Step(0.01)}),
        )
        ok = ok and abs(trace.column("dFs")[-1]) < 1e-6
        ok = ok and abs(trace.column("dFt")[-1]) < 1e-6
    report("tuned gains drive both frequency deviations to zero", ok)


def test_tuner_search_path(default_params, tuned, monkeypatch):
    gains, eta = tuned
    expected = dict(Kdp=85.5, Kdi=35.0, Kpp=100.0, Kpi=43.0, Ksp=10.5, Ksi=0.5)
    ok = gains == ControllerGains(**expected)
    ok = ok and eta == pytest.approx(1.0544345933961472e-05, rel=1e-9)

    # the rerun must fill exactly the budget's worth of candidate loops, and
    # solve for the eigenvalues of only those whose index beats the best
    built, solved = [], []
    real_fill = hybridlfc.tuning.closed_loop_matrix
    real_eigenvalues = hybridlfc.tuning.eigenvalues

    def counting_fill(abar, bbar, gains, kig):
        built.append(gains)
        return real_fill(abar, bbar, gains, kig)

    def counting_eigenvalues(a):
        solved.append(a)
        return real_eigenvalues(a)

    monkeypatch.setattr(hybridlfc.tuning, "closed_loop_matrix", counting_fill)
    monkeypatch.setattr(hybridlfc.tuning, "eigenvalues", counting_eigenvalues)
    spec = hybridlfc.tuning.TuneSpec(dpiw=0.01, dpis=0.01, eta_include_ft=True)
    ok = ok and hybridlfc.tuning.tune_gains(default_params, spec) == (gains, eta)
    ok = ok and len(built) == 300 and len(solved) == 78
    report("acceptance tuning follows its pinned search path", ok)


def test_zero_feedback_spectrum(default_params):
    plant = assemble_plant(default_params)
    model = build_closed_loop(default_params, ControllerGains())
    lam = eigenvalues(model.a)
    at_origin = lam[np.abs(lam) < 1e-9]
    rest = np.sort_complex(lam[np.abs(lam) >= 1e-9])
    plant_lam = np.sort_complex(eigenvalues(plant.a))
    ok = (
        at_origin.size == 2
        and rest.size == plant_lam.size
        and bool(np.all(np.abs(rest - plant_lam) < 1e-6))
    )
    report("zero feedback adds exactly two integrator modes", ok)


def test_integrator_order_of_accuracy():
    model_kwargs = dict(
        a=np.array([[-1.0]]),
        b=np.zeros((1, 0)),
        g=np.zeros((1, 0)),
        state_labels=("x",),
    )
    from hybridlfc.lti import StateSpaceModel

    model = StateSpaceModel(**model_kwargs)

    def endpoint_error(dt):
        trace = integrate(model, Scenario(t_end=5.0, dt=dt, x0=np.array([1.0])))
        return abs(trace.states[-1, 0] - math.exp(-5.0))

    ratio = endpoint_error(0.1) / endpoint_error(0.05)
    report(
        f"halving the step scales the endpoint error by {ratio:.2f}",
        14.0 <= ratio <= 18.0,
    )


def test_linearity_of_responses(default_params, stable_gains):
    model = build_closed_loop(default_params, stable_gains)

    def run(**steps):
        sc = Scenario(t_end=10.0, dt=0.005, disturbances=steps)
        return integrate(model, sc).states

    a = run(dPl=0.01)
    b = run(dPiw=0.004)
    both = run(dPl=0.01, dPiw=0.004)
    doubled = run(dPl=0.02)
    ok = bool(np.max(np.abs(a + b - both)) < 1e-9)
    ok = ok and bool(np.max(np.abs(2.0 * a - doubled)) < 1e-9)
    report("step responses superpose and scale", ok)


def test_pv_solver_against_bisection():
    p = PvCellParams()
    iph = photocurrent(p)
    vt = p.thermal_voltage

    def residual(v, i):
        return iph - p.Isat * (math.exp((v + i * p.Rs) / vt) - 1.0) - i

    def bisect(v):
        lo, hi = -1.0, iph
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if residual(v, mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    voc = open_circuit_voltage(p)
    grid = np.linspace(0.0, voc, 100)
    ok = all(
        abs(solve_pv_current(p, float(v)) - bisect(float(v))) < 1e-8 for v in grid
    )

    _, _, pmax = pv_curve(p, 0.01)[2]
    sweep_best = max(
        (k * 1e-4 for k in range(int(voc / 1e-4) + 1)),
        key=lambda v: v * solve_pv_current(p, v),
    )
    sweep_power = sweep_best * solve_pv_current(p, sweep_best)
    ok = ok and abs(pmax - sweep_power) <= 1e-5 * sweep_power
    report("cell current solver and power-point search match brute force", ok)


def test_boost_voltage_ratio():
    boost = BoostParams(L=1e-3, C=1e-3, R=10.0, Ts=1e-5, duty=0.5)
    vpv = 10.0
    state = (0.0, 0.0)
    tail = []
    cycles = 30000
    for cycle in range(cycles):
        state = boost_switched_step(boost, state, vpv, 1, boost.duty * boost.Ts)
        state = boost_switched_step(
            boost, state, vpv, 0, (1.0 - boost.duty) * boost.Ts
        )
        if cycle >= int(0.9 * cycles):
            tail.append(state[1])
    ratio = float(np.mean(tail)) / vpv
    target = 1.0 / (1.0 - boost.duty)
    report(
        f"switched converter holds vo/vpv = {ratio:.4f} at half duty",
        abs(ratio - target) <= 0.02 * target,
    )


def test_solar_channel_block():
    p = SolarChannelParams()
    plant = assemble_plant(SystemParams(solar=p))
    model = plant_block(plant, ("xs1", "xs2"), ("us",))
    lam = np.sort(eigenvalues(model.a).real)
    ok = abs(lam[0] - (-99.4975)) < 1e-4 and abs(lam[1] - (-0.5025)) < 1e-4

    x = steady_state(model, controls={"us": 1.0})
    dpgs = p.Kgs * x[model.state_labels.index("xs2")]
    ok = ok and abs(dpgs - 3.6) < 1e-9
    ok = ok and abs(p.Kgs * tf_dc_gain((p.gbc_num, p.gbc_den)) - 3.6) < 1e-9
    report("solar channel has the expected modes and DC power gain", ok)
