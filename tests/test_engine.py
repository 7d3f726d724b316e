import cmath
import math
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from reference import ise, stepped_states

import hybridlfc.engine
from hybridlfc.assembly import (
    GAIN_ORDER,
    ControllerGains,
    SystemParams,
    assemble_plant,
    build_closed_loop,
    build_feedback_matrix,
    output_map,
)
from hybridlfc.engine import (
    MAX_CHUNK,
    Scenario,
    SimulationTrace,
    Step,
    _chunk_propagators,
    _propagators,
    integrate,
    ise_evaluator,
    rk4_growth,
    steady_state,
)
from hybridlfc.errors import (
    DimensionMismatch,
    InvalidArgument,
    InvariantViolation,
    NonFiniteState,
    SingularSystem,
    UnstableStepSize,
)
from hybridlfc.lti import StateSpaceModel, eigenvalues
from hybridlfc.solar import SolarChannelParams


def assert_near_stepped(model, scenario):
    """`integrate` within 1e-12 of each column's scale of the stepped
    recurrence; a column that stays exactly 0 when stepped stays 0."""
    got = integrate(model, scenario).states
    want = stepped_states(model, scenario)
    scale = np.abs(want).max(axis=0)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)
    return got


def scalar_decay(a=-1.0):
    """One-state test model dx/dt = a*x + u + w."""
    return StateSpaceModel(
        a=np.array([[a]]),
        b=np.array([[1.0]]),
        g=np.array([[1.0]]),
        state_labels=("x",),
        control_labels=("u",),
        disturbance_labels=("w",),
    )


class TestScenario:
    def test_bare_magnitude_becomes_step(self):
        sc = Scenario(t_end=1.0, dt=0.1, disturbances={"w": 2.0})
        assert sc.disturbances["w"] == Step(2.0, 0.0)

    def test_validate_rejects_bad_grid(self):
        with pytest.raises(InvariantViolation):
            Scenario(t_end=1.0, dt=0.0)
        with pytest.raises(InvariantViolation):
            Scenario(t_end=1.0, dt=2.0)
        with pytest.raises(InvariantViolation):
            Scenario(t_end=1e300, dt=1e-10)

    def test_validate_rejects_onset_outside_horizon(self):
        with pytest.raises(InvariantViolation):
            Scenario(t_end=1.0, dt=0.1, disturbances={"w": Step(1.0, onset=2.0)})
        with pytest.raises(InvariantViolation):
            Scenario(t_end=1.0, dt=0.1, disturbances={"w": Step(1.0, onset=-0.5)})


class TestIntegrate:
    def test_free_decay_matches_exponential(self):
        trace = integrate(
            scalar_decay(), Scenario(t_end=5.0, dt=0.01, x0=np.array([1.0]))
        )
        assert trace.states[-1, 0] == pytest.approx(math.exp(-5.0), abs=1e-6)

    def test_forced_step_response(self):
        trace = integrate(
            scalar_decay(), Scenario(t_end=5.0, dt=0.01, disturbances={"w": 1.0})
        )
        assert trace.states[-1, 0] == pytest.approx(1.0 - math.exp(-5.0), abs=1e-6)

    def test_constant_control_matches_disturbance(self):
        # b and g columns are identical in the scalar model
        via_u = integrate(
            scalar_decay(), Scenario(t_end=2.0, dt=0.01, controls={"u": 0.7})
        )
        via_w = integrate(
            scalar_decay(), Scenario(t_end=2.0, dt=0.01, disturbances={"w": 0.7})
        )
        np.testing.assert_array_equal(via_u.states, via_w.states)

    def test_delayed_onset(self):
        trace = integrate(
            scalar_decay(),
            Scenario(t_end=2.0, dt=0.1, disturbances={"w": Step(2.0, onset=0.5)}),
        )
        assert np.all(trace.states[:6, 0] == 0.0)
        assert trace.states[-1, 0] == pytest.approx(
            2.0 * (1.0 - math.exp(-1.5)), abs=1e-5
        )

    def test_time_invariance_of_shifted_step(self):
        base = integrate(
            scalar_decay(), Scenario(t_end=2.0, dt=0.1, disturbances={"w": 1.0})
        )
        shifted = integrate(
            scalar_decay(),
            Scenario(t_end=3.0, dt=0.1, disturbances={"w": Step(1.0, onset=1.0)}),
        )
        np.testing.assert_array_equal(shifted.states[10:31], base.states[:21])

    def test_row_grid(self):
        trace = integrate(scalar_decay(), Scenario(t_end=1.0, dt=0.1))
        assert trace.times.shape == (11,)
        assert trace.times[-1] == pytest.approx(1.0)
        # horizon that is not a step multiple is truncated, not extended
        trace = integrate(scalar_decay(), Scenario(t_end=0.25, dt=0.1))
        np.testing.assert_allclose(trace.times, [0.0, 0.1, 0.2])

    def test_step_size_hard_limit(self):
        with pytest.raises(UnstableStepSize):
            integrate(scalar_decay(), Scenario(t_end=30.0, dt=3.0))

    def test_safe_step_is_silent(self, default_params, stable_gains):
        model = build_closed_loop(default_params, stable_gains)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            integrate(model, Scenario(t_end=1.0, dt=0.005, disturbances={"dPl": 0.01}))

    def test_divergence_reported(self):
        with pytest.raises(NonFiniteState):
            integrate(
                scalar_decay(a=50.0),
                Scenario(t_end=20.0, dt=0.01, x0=np.array([1.0])),
            )

    def test_rejects_wrong_initial_state_length(self):
        with pytest.raises(DimensionMismatch):
            integrate(
                scalar_decay(), Scenario(t_end=1.0, dt=0.1, x0=np.array([1.0, 2.0]))
            )

    def test_rejects_unknown_labels(self):
        with pytest.raises(ValueError):
            integrate(
                scalar_decay(), Scenario(t_end=1.0, dt=0.1, disturbances={"bogus": 1.0})
            )
        with pytest.raises(ValueError):
            integrate(
                scalar_decay(), Scenario(t_end=1.0, dt=0.1, controls={"bogus": 1.0})
            )

    def test_unknown_labels_are_toolkit_errors(self, default_params):
        model = build_closed_loop(default_params, ControllerGains())
        sc = Scenario(t_end=1.0, dt=0.01, controls={"dPcx": 1.0})
        for run in (integrate, lambda m, s: ise_evaluator(m, s)(m.a)):
            with pytest.raises(InvalidArgument, match="unknown control input 'dPcx'"):
                run(model, sc)
        with pytest.raises(InvalidArgument, match="unknown disturbance input 'dPx'"):
            steady_state(model, disturbances={"dPx": 0.01})

    def test_column_lookup(self):
        trace = integrate(scalar_decay(), Scenario(t_end=1.0, dt=0.1))
        assert trace.column("x").shape == (11,)
        with pytest.raises(KeyError):
            trace.column("bogus")

    def test_traced_peak_stays_near_the_states(self, default_params):
        # the loop holds one Q c per stretch of constant input, not a
        # forcing row per time row: on 60 001 rows the traced peak is the
        # states, the times and the finiteness check
        gains = ControllerGains(Kdp=85.5, Kdi=35.0, Kpp=100.0, Kpi=43.0, Ksp=10.5, Ksi=0.5)
        model = build_closed_loop(default_params, gains)
        sc = Scenario(
            t_end=60.0,
            dt=0.001,
            disturbances={"dPl": Step(0.01, 1.0), "dPiw": Step(0.005, 20.0)},
        )
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = integrate(model, sc)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert trace.states.shape == (60_001, 12)
        assert peak < 1.5 * trace.states.nbytes


def rk4_factor(z: complex) -> float:
    """|R(z)| of one RK4 step, R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24."""
    return abs(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24)


def boundary_radius(degrees: float) -> float:
    """Radius along the ray at `degrees` where |R| first reaches 1."""
    ray = cmath.exp(1j * math.radians(degrees))
    lo, hi = 1.0, 3.0  # |R| < 1 at radius 1 and > 1 at 3 on every ray here
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if rk4_factor(mid * ray) >= 1.0 else (mid, hi)
    return hi


def oscillator(lam: complex) -> StateSpaceModel:
    """Two-state model with eigenvalues lam and its conjugate."""
    return StateSpaceModel(
        a=np.array([[lam.real, lam.imag], [-lam.imag, lam.real]]),
        b=np.zeros((2, 0)),
        g=np.zeros((2, 0)),
        state_labels=("x1", "x2"),
    )


class TestStepGuard:
    """`integrate` rejects exactly the steps with |R(lambda*dt)| >= 1 for a
    decaying mode, whatever its direction in the left half plane."""

    ANGLES = [90.01, *range(91, 181), 122.7]
    DT = 0.5

    @pytest.mark.parametrize(
        "degrees, radius", [(90.01, 2.828), (122.7, 2.616), (180.0, 2.785)]
    )
    def test_boundary_radius(self, degrees, radius):
        assert boundary_radius(degrees) == pytest.approx(radius, abs=1e-3)

    @pytest.mark.parametrize("degrees", ANGLES)
    def test_rejects_from_the_boundary_on(self, degrees):
        ray = cmath.exp(1j * math.radians(degrees))
        edge = boundary_radius(degrees)
        for radius in (edge * (1 + 1e-7), edge * 1.05, 3.5):
            z = radius * ray
            assert rk4_factor(z) >= 1.0
            with pytest.raises(UnstableStepSize):
                integrate(oscillator(z / self.DT), Scenario(t_end=1.0, dt=self.DT))

    @pytest.mark.parametrize("degrees", ANGLES)
    def test_accepts_just_inside(self, degrees):
        z = boundary_radius(degrees) * (1 - 1e-7) * cmath.exp(1j * math.radians(degrees))
        assert rk4_factor(z) < 1.0
        # inside, though at the edge: the step runs, and silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            integrate(oscillator(z / self.DT), Scenario(t_end=1.0, dt=self.DT))

    def test_off_axis_mode_inside_the_old_radius(self):
        # |lambda*dt| = 2.7 is below 2.785, yet at 122.7 degrees one step
        # multiplies the mode by 1.110
        z = 2.7 * cmath.exp(1j * math.radians(122.7))
        assert rk4_factor(z) == pytest.approx(1.110, abs=5e-4)
        with pytest.raises(UnstableStepSize, match="1.1103"):
            integrate(oscillator(z / self.DT), Scenario(t_end=1.0, dt=self.DT))

    def test_growth_matches_direct_factor(self):
        lam = np.array(
            [r * cmath.exp(1j * math.radians(d)) for r in (1e-3, 0.5, 2.0, 2.7, 4.0)
             for d in (91, 120, 150, 179)]
        )
        for one in lam:
            assert rk4_growth(np.array([one]), 1.0) == pytest.approx(
                rk4_factor(one) - 1.0, abs=1e-14
            )
        assert rk4_growth(lam, 1.0) == max(rk4_growth(np.array([x]), 1.0) for x in lam)

    def test_only_decaying_modes_count(self):
        assert rk4_growth(np.array([0.0, 3.0 + 0.0j, 1e-9 + 3.0j]), 1.0) == -1.0

    def test_barely_decaying_mode_is_damped(self):
        # |R| rounds to 1.0 here; the guard must still see a damped mode
        assert rk4_factor(-1e-20) == 1.0
        assert rk4_growth(np.array([-1e-20 + 0.0j]), 1.0) < 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            integrate(scalar_decay(a=-1e-20), Scenario(t_end=1.0, dt=0.5))

    @pytest.mark.parametrize(
        "lam", [-1e300 + 0.0j, -1e200 + 1e200j, -1.0 + 1e300j], ids=["real", "diagonal", "steep"]
    )
    def test_overflowing_mode_is_unstable(self, lam):
        # |R|^2 - 1 overflows to inf or nan here; the mode is far outside
        # the stability region, so the growth reads inf, with no warning
        assert rk4_growth(np.array([lam]), 1.0) == math.inf
        with pytest.raises(UnstableStepSize, match=r"= inf >= 1"):
            integrate(oscillator(lam), Scenario(t_end=1.0, dt=self.DT))

    def test_huge_finite_growth_is_unstable(self):
        # |R(-1e20)| = 1e80 / 24 (1 - 4e-20 + ...), and e = |R|^2 - 1 still fits
        growth = rk4_growth(np.array([-1e20 + 0.0j]), 1.0)
        assert growth == pytest.approx(1e80 / 24, rel=1e-12)
        with pytest.raises(UnstableStepSize, match=r"= 4.1667e\+78 >= 1"):
            integrate(oscillator(-1e20 + 0.0j), Scenario(t_end=1.0, dt=1.0))


class TestClosedLoopTrace:
    def test_converges_to_equilibrium(self, default_params, stable_gains):
        model = build_closed_loop(default_params, stable_gains)
        x_ss = steady_state(model, disturbances={"dPl": 0.01})
        trace = integrate(
            model, Scenario(t_end=115.0, dt=0.005, disturbances={"dPl": 0.01})
        )
        assert np.max(np.abs(trace.states[-1] - x_ss)) < 1e-6

    def test_derived_outputs_along_trace(self, default_params, stable_gains):
        model = build_closed_loop(default_params, stable_gains)
        om = output_map(default_params, stable_gains)
        trace = integrate(
            model,
            Scenario(t_end=60.0, dt=0.005, disturbances={"dPl": 0.01}),
            outputs=om,
        )
        kig = default_params.wind.Kig
        expected = kig * (trace.column("dFt") - trace.column("dFs"))
        np.testing.assert_allclose(trace.column("dPgw"), expected, atol=1e-15)
        # surplus power dies out once the controllers have rebalanced
        assert abs(trace.column("dP1")[-1]) < 1e-6

    @pytest.mark.parametrize("closed", [True, False], ids=["closed_loop", "open_plant"])
    def test_solar_generation_reads_controls_back(self, stable_gains, closed):
        # a biproper converter block passes its input through, so
        # dPgs = Kgs*(xs2 + d*(us + dPis)) with the solar control us = H x + u0
        # on a closed loop and us = u0 on the plant, which has no H
        solar = SolarChannelParams(gbc_num=(3.0, -1.0, 0.7), gbc_den=(2.0, 5.0, 3.0))
        p = SystemParams(solar=solar)
        gains = stable_gains if closed else None
        model = build_closed_loop(p, gains) if closed else assemble_plant(p)
        sc = Scenario(
            t_end=5.0,
            dt=0.01,
            disturbances={"dPl": 0.01, "dPis": Step(0.02, 0.5)},
            controls={"us": 0.03},
        )
        trace = integrate(model, sc, outputs=output_map(p, gains))
        x = trace.states
        if closed:
            us = 0.03 + x @ build_feedback_matrix(gains, p.wind.Kig)[2]
        else:
            us = 0.03
        dpis = np.where(np.arange(len(x)) >= 50, 0.02, 0.0)
        expected = p.solar.Kgs * (trace.column("xs2") + 0.7 / 3.0 * (us + dpis))
        np.testing.assert_allclose(trace.column("dPgs"), expected, rtol=1e-12, atol=1e-16)

    # stretches of constant input at their edges: a first stretch that
    # already carries a step, two labels sharing one onset row, and a
    # stretch made of the last row alone; the biproper converter block
    # passes dPis through to dPgs and dP1
    BIPROPER = SystemParams(
        solar=SolarChannelParams(gbc_num=(3.0, -1.0, 0.7), gbc_den=(2.0, 5.0, 3.0))
    )
    EDGE_STEPS = {
        "onset_at_row_0": {"dPl": Step(0.01, 0.0), "dPiw": Step(0.005, 1.0)},
        "shared_onset_row": {"dPl": Step(0.01, 1.0), "dPiw": Step(0.005, 1.0), "dPis": Step(0.02, 0.5)},
        "dPis_on_last_row": {"dPl": Step(0.01, 0.5), "dPis": Step(0.02, 2.0)},
    }

    @pytest.mark.parametrize("closed", [True, False], ids=["closed_loop", "open_plant"])
    @pytest.mark.parametrize("case", list(EDGE_STEPS))
    def test_outputs_match_a_dense_reference(self, stable_gains, case, closed):
        # the plant map's weights, with u = H x + u0 read out row by row
        p = self.BIPROPER
        gains = stable_gains if closed else None
        model = build_closed_loop(p, gains) if closed else assemble_plant(p)
        steps = self.EDGE_STEPS[case]
        sc = Scenario(t_end=2.0, dt=0.01, disturbances=steps, controls={"us": 0.003})
        om = output_map(p)
        trace = integrate(model, sc, outputs=output_map(p, gains))
        # the disturbance term row by row, every row's p written out
        rows = len(trace.times)
        p_rows = np.zeros((rows, len(model.disturbance_labels)))
        for lbl, step in steps.items():
            p_rows[round(step.onset / sc.dt) :, model.disturbance_labels.index(lbl)] = step.magnitude
        u = np.where(np.array(model.control_labels) == "us", 0.003, 0.0)
        if closed:
            u_rows = trace.states @ build_feedback_matrix(gains, p.wind.Kig).T + u
        else:
            u_rows = np.tile(u, (rows, 1))
        x_open = trace.states[:, : om.wx.shape[1]]
        want = x_open @ om.wx.T + u_rows @ om.wu.T + p_rows @ om.wp.T
        got = np.column_stack([trace.column(lbl) for lbl in om.labels])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())

    def test_onset_on_the_last_row_moves_only_its_outputs(self, stable_gains):
        model = build_closed_loop(self.BIPROPER, stable_gains)
        om = output_map(self.BIPROPER, stable_gains)
        steps = dict(self.EDGE_STEPS["dPis_on_last_row"])
        with_step = integrate(model, Scenario(t_end=2.0, dt=0.01, disturbances=steps), om)
        del steps["dPis"]
        without = integrate(model, Scenario(t_end=2.0, dt=0.01, disturbances=steps), om)
        np.testing.assert_array_equal(with_step.states, without.states)
        for lbl in om.labels:
            a, b = with_step.column(lbl), without.column(lbl)
            np.testing.assert_array_equal(a[:-1], b[:-1])
            assert (a[-1] != b[-1]) == (lbl in ("dPgs", "dP1"))

    def test_map_over_another_state_count_is_refused(self, default_params, stable_gains):
        # the plant's 10-state map cannot read a 12-state closed loop, nor
        # the closed loop's map a plant
        sc = Scenario(t_end=1.0, dt=0.01, disturbances={"dPl": 0.01})
        model = build_closed_loop(default_params, stable_gains)
        with pytest.raises(DimensionMismatch, match="weighs 10 states, model has 12"):
            integrate(model, sc, outputs=output_map(default_params))
        plant = assemble_plant(default_params)
        with pytest.raises(DimensionMismatch, match="weighs 12 states, model has 10"):
            integrate(plant, sc, outputs=output_map(default_params, stable_gains))

    def test_states_step_with_the_evaluators_q_c(self, default_params, stable_gains, monkeypatch):
        # each stretch's Q c is `q_mat.dot(forcing)`, the product
        # ise_evaluator forms, so the trace and the index start from the
        # same bits (`@` below calls the same BLAS routine); one
        # many-row product for all stretches rounds some of them differently.
        # Chunks of one row are the stepped recurrence, bit for bit
        monkeypatch.setattr(hybridlfc.engine, "MAX_CHUNK", 1)
        model = build_closed_loop(default_params, stable_gains)
        steps = {
            "dPl": Step(0.017666, 0.1),
            "dPiw": Step(0.01258, 0.5),
            "dPis": Step(0.005365, 0.8),
        }
        trace = integrate(model, Scenario(t_end=1.0, dt=0.01, disturbances=steps))
        p_mat, q_mat = _propagators(model.a, 0.01)
        u = np.zeros(len(model.control_labels))
        x = np.zeros(model.n_states)
        want = [x]
        # the onsets fall on rows 10, 50 and 80: four stretches of steps
        for steps_taken, active in [(10, ""), (40, "dPl"), (30, "dPl dPiw"), (20, "dPl dPiw dPis")]:
            p = np.array([
                steps[lbl].magnitude if lbl in active.split() else 0.0
                for lbl in model.disturbance_labels
            ])
            qc = q_mat @ (model.g @ p + model.b @ u)
            for _ in range(steps_taken):
                x = p_mat @ x + qc
                want.append(x)
        assert trace.states.shape == (101, model.n_states)
        np.testing.assert_array_equal(trace.states, np.array(want))

    def test_chunked_states_stay_near_the_stepped_ones(self, default_params, stable_gains):
        # the same three onsets in chunks of MAX_CHUNK rows
        model = build_closed_loop(default_params, stable_gains)
        steps = {
            "dPl": Step(0.017666, 0.1),
            "dPiw": Step(0.01258, 0.5),
            "dPis": Step(0.005365, 0.8),
        }
        assert_near_stepped(model, Scenario(t_end=1.0, dt=0.01, disturbances=steps))

    def test_open_loop_control_path(self, default_params):
        plant = assemble_plant(default_params)
        x_ss = steady_state(plant, controls={"dPcd": 0.1})
        trace = integrate(
            plant, Scenario(t_end=60.0, dt=0.005, controls={"dPcd": 0.1})
        )
        assert np.max(np.abs(trace.states[-1] - x_ss)) < 1e-6


def rk4_step(a, x, c, dt):
    """One classical four-stage RK4 step of dx/dt = a x + c from x, column by
    column, with its stages k1 ... k4 written out."""
    k1 = a @ x + c
    k2 = a @ (x + dt / 2.0 * k1) + c
    k3 = a @ (x + dt / 2.0 * k2) + c
    k4 = a @ (x + dt * k3) + c
    return x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def guard_edge_dt(a):
    """A step 0.9999 times the largest one that `integrate`'s guard admits for a."""
    lam = eigenvalues(a)
    lo, hi = 0.0, 10.0 / np.abs(lam).max()
    for _ in range(60):
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if rk4_growth(lam, mid) < 0.0 else (lo, mid)
    return 0.9999 * lo


class TestPropagators:
    """P and Q c, the collapsed Horner form of `_propagators`, against an
    explicit four-stage RK4 step: P e_j is one step from the unit state e_j
    unforced, Q c one step from rest under the forcing c."""

    def assert_one_rk4_step(self, model, dt):
        a = model.a
        n = model.n_states
        p_mat, q_mat = _propagators(a, dt)
        forcing = np.hstack([model.b, model.g, np.random.default_rng(7).normal(size=(n, 2))])
        for got, want in [
            (p_mat, rk4_step(a, np.eye(n), np.zeros((n, 1)), dt)),
            (q_mat @ forcing, rk4_step(a, np.zeros_like(forcing), forcing, dt)),
        ]:
            scale = np.abs(want).max(axis=0)
            assert np.all(np.abs(got - want) <= 1e-14 * scale)

    @pytest.mark.parametrize("dt", [0.001, 0.01])
    def test_random_stable_closed_loops(self, default_params, dt):
        rng = np.random.default_rng(2701)
        box = [(0.0, 100.0), (0.0, 50.0)] * 3
        stable = 0
        while stable < 20:
            gains = ControllerGains(*(rng.uniform(lo, hi) for lo, hi in box))
            model = build_closed_loop(default_params, gains)
            if eigenvalues(model.a)[0].real < 0.0:
                self.assert_one_rk4_step(model, dt)
                stable += 1

    @pytest.mark.parametrize(
        "build",
        [assemble_plant, lambda p: build_closed_loop(p, ControllerGains())],
        ids=["plant", "zero_gains"],
    )
    def test_open_plant_with_free_integrators(self, default_params, build):
        # the plant, and its loop at zero gains, where iFs and iFt integrate
        # freely: two eigenvalues at 0
        self.assert_one_rk4_step(build(default_params), 0.005)

    def test_step_just_inside_the_guard(self, default_params, stable_gains):
        model = build_closed_loop(default_params, stable_gains)
        dt = guard_edge_dt(model.a)
        assert -1e-3 < rk4_growth(eigenvalues(model.a), dt) < 0.0
        self.assert_one_rk4_step(model, dt)


class TestChunkedPropagation:
    """`integrate` fills rows in chunks of matrix powers; the stepped
    recurrence in tests/reference.py is its oracle."""

    def test_stacks_hold_powers_and_partial_sums(self, default_params, stable_gains):
        p_mat, _ = _propagators(build_closed_loop(default_params, stable_gains).a, 0.01)
        chunk, powers, sums = _chunk_propagators(p_mat, 8)
        n = p_mat.shape[0]
        assert chunk == 8 and powers.shape == sums.shape == (8 * n, n)
        power, total = np.eye(n), np.zeros((n, n))
        for j in range(8):
            total = total + power
            power = power @ p_mat
            for got, want in ((powers, power), (sums, total)):
                block = got[j * n : (j + 1) * n]
                np.testing.assert_allclose(block, want, rtol=0, atol=1e-14 * np.abs(want).max())

    def test_random_stable_closed_loops(self, default_params):
        rng = np.random.default_rng(2020)
        box = [100.0 if name.endswith("p") else 50.0 for name in GAIN_ORDER]
        checked = 0
        while checked < 12:
            gains = ControllerGains(*(rng.uniform(0.0, hi) for hi in box))
            model = build_closed_loop(default_params, gains)
            lam = eigenvalues(model.a)
            dt = float(rng.uniform(0.002, 0.02))
            if lam[0].real >= 0.0 or rk4_growth(lam, dt) >= 0.0:
                continue
            rows = int(rng.integers(2, 700))
            t_end = (rows - 1) * dt
            onsets = rng.uniform(0.0, t_end, size=3)
            steps = {
                lbl: Step(float(rng.uniform(-0.02, 0.02)), float(t))
                for lbl, t in zip(model.disturbance_labels, onsets)
            }
            x0 = rng.normal(0.0, 1e-3, model.n_states) if checked % 2 else None
            sc = Scenario(t_end=t_end, dt=dt, disturbances=steps, x0=x0)
            assert assert_near_stepped(model, sc).shape == (rows, model.n_states)
            checked += 1

    @pytest.mark.parametrize("rows", [2, 3, 256, 257, 258])
    def test_open_plant_with_controls_and_initial_state(self, default_params, rows):
        # a chunk is 32 rows; at 256-258 rows the dPl onset on row 33 leaves a
        # first stretch of a chunk + 1 steps and a second of 222, 223 and 224,
        # which ends two rows short of, one row short of and on a chunk edge
        plant = assemble_plant(default_params)
        onset = min(MAX_CHUNK + 1, rows - 1) * 0.01
        sc = Scenario(
            t_end=(rows - 1) * 0.01,
            dt=0.01,
            disturbances={"dPl": Step(0.01, onset)},
            controls={"dPcd": 0.002, "us": -0.001},
            x0=np.linspace(-1e-3, 1e-3, plant.n_states),
        )
        assert assert_near_stepped(plant, sc).shape == (rows, plant.n_states)

    @pytest.mark.parametrize(
        "steps",
        [
            {"dPl": Step(0.01, 0.37), "dPiw": Step(0.005, 0.37), "dPis": Step(0.02, 1.0)},
            {"dPl": Step(0.01, 0.5), "dPis": Step(0.02, 2.37)},
        ],
        ids=["two_onsets_on_one_row", "onset_on_the_last_row"],
    )
    def test_onsets_at_the_edges(self, default_params, stable_gains, steps):
        model = build_closed_loop(default_params, stable_gains)
        sc = Scenario(t_end=2.37, dt=0.01, disturbances=steps)
        assert_near_stepped(model, sc)

    def test_step_just_inside_the_guard(self, default_params):
        # the guard refuses 0.028 on the default (zero-gain) loop, whose
        # fastest mode, -99.5, meets the RK4 edge there; at 0.026 its free
        # integrators ramp and its slowest mode decays by under 1% a step:
        # where P^B and stepping part most
        model = build_closed_loop(default_params, ControllerGains())
        lam = eigenvalues(model.a)
        assert rk4_growth(lam, 0.026) < 0.0 <= rk4_growth(lam, 0.028)
        sc = Scenario(t_end=60.0, dt=0.026, disturbances={"dPl": Step(0.01, 1.0)})
        assert_near_stepped(model, sc)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="no extended precision"
    )
    def test_long_run_near_the_guard_rounds_less_than_stepping(self, default_params):
        # over 23 077 rows of the same loop the chunks, 32 rows each, round
        # less than the stepped oracle, measured against the same double
        # recurrence stepped in extended precision
        model = build_closed_loop(default_params, ControllerGains())
        sc = Scenario(t_end=600.0, dt=0.026, disturbances={"dPl": Step(0.01, 1.0)})
        exact = stepped_states(model, sc, np.longdouble)
        scale = np.abs(exact).max(axis=0).astype(float)
        scale[scale == 0.0] = 1.0
        error = lambda states: np.max(np.abs((states - exact).astype(float)) / scale)
        chunked, stepped = error(integrate(model, sc).states), error(stepped_states(model, sc))
        assert chunked < 1e-13 and chunked < stepped

    @staticmethod
    def _fast_growing(excited):
        # dx2/dt = 6e4 x2 grows by 5.4e9 a step at dt = 0.01, so P^32 overflows
        return StateSpaceModel(
            a=np.diag([-1.0, 6e4]),
            b=np.zeros((2, 0)),
            g=np.array([[1.0], [1.0 if excited else 0.0]]),
            state_labels=("x1", "x2"),
            disturbance_labels=("w",),
        )

    def test_unexcited_overflowing_mode_stays_at_zero(self):
        model = self._fast_growing(excited=False)
        sc = Scenario(t_end=10.0, dt=0.01, disturbances={"w": Step(1.0, 0.5)})
        # a chunk is 32 rows; P^32 overflows, P^16 does not
        p_mat, _ = _propagators(model.a, 0.01)
        with np.errstate(over="ignore", invalid="ignore"):
            assert _chunk_propagators(p_mat, MAX_CHUNK)[0] == 16
        states = assert_near_stepped(model, sc)
        assert np.all(np.isfinite(states)) and not states[:, 1].any()

    def test_excited_overflow_raises_without_a_warning(self):
        model = self._fast_growing(excited=True)
        sc = Scenario(t_end=10.0, dt=0.01, disturbances={"w": Step(1.0, 0.5)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState):
                integrate(model, sc)


class TestStepIse:
    """The closed-form index against the stepped trace it replaces."""

    @staticmethod
    def _models(params, gains):
        return {
            "closed": build_closed_loop(params, gains),
            "plant": assemble_plant(params),
        }

    @staticmethod
    def _assert_matches(model, scenario, include_ft):
        got = ise_evaluator(model, scenario, include_ft)(model.a)
        assert type(got) is float
        want = ise(integrate(model, scenario), include_ft=include_ft)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("include_ft", [False, True])
    @pytest.mark.parametrize(
        "kind, onset, controls",
        [
            # at rest and unforced before the onset: the skipped stretch
            pytest.param("closed", 1.0, {}, id="closed"),
            pytest.param("plant", 1.0, {}, id="plant"),
            # at rest but forced by the controls before the onset
            pytest.param("closed", 10.0, {"dPcd": 0.002, "us": -0.001}, id="closed-forced_rest"),
            pytest.param("plant", 10.0, {"dPcd": 0.002, "us": -0.001}, id="plant-forced_rest"),
        ],
    )
    def test_single_onset(
        self, default_params, stable_gains, kind, onset, controls, include_ft
    ):
        model = self._models(default_params, stable_gains)[kind]
        sc = Scenario(
            t_end=20.0,
            dt=0.005,
            disturbances={"dPl": Step(0.01, onset=onset)},
            controls=controls,
        )
        self._assert_matches(model, sc, include_ft)

    @pytest.mark.parametrize("include_ft", [False, True])
    def test_three_onsets_controls_and_initial_state(
        self, default_params, stable_gains, include_ft
    ):
        model = build_closed_loop(default_params, stable_gains)
        x0 = np.linspace(-0.02, 0.03, model.n_states)
        sc = Scenario(
            t_end=10.0,
            dt=0.01,
            # onsets at the first row, mid-horizon and the last row
            disturbances={
                "dPl": Step(0.01, onset=0.0),
                "dPiw": Step(-0.004, onset=3.3),
                "dPis": Step(0.006, onset=10.0),
            },
            controls={"dPcd": 0.002, "us": -0.001},
            x0=x0,
        )
        self._assert_matches(model, sc, include_ft)

    # a validated scenario has dt <= t_end, hence at least two rows
    @pytest.mark.parametrize("rows", [2, 3, 64, 65, 101])
    def test_row_counts(self, default_params, stable_gains, rows):
        model = build_closed_loop(default_params, stable_gains)
        x0 = np.full(model.n_states, 0.01)
        sc = Scenario(
            t_end=(rows - 1) * 0.01,
            dt=0.01,
            disturbances={"dPl": Step(0.01, onset=0.01)},
            x0=x0,
        )
        assert integrate(model, sc).times.size == rows
        self._assert_matches(model, sc, include_ft=True)

    def test_truncated_horizon(self, default_params, stable_gains):
        # t_end that is not a step multiple drops the partial step
        model = build_closed_loop(default_params, stable_gains)
        sc = Scenario(t_end=2.557, dt=0.01, disturbances={"dPl": Step(0.01, onset=0.5)})
        self._assert_matches(model, sc, include_ft=False)

    def test_rejects_unknown_disturbance_like_integrate(self, default_params, stable_gains):
        model = build_closed_loop(default_params, stable_gains)
        sc = Scenario(t_end=1.0, dt=0.01, disturbances={"bogus": 1.0})
        with pytest.raises(ValueError) as stepped:
            integrate(model, sc)
        with pytest.raises(ValueError) as closed:
            ise_evaluator(model, sc)(model.a)
        assert str(closed.value) == str(stepped.value)

    @pytest.mark.parametrize(
        "labels, include_ft, missing",
        [(("x",), False, "dFs"), (("dFs",), True, "dFt")],
        ids=["no_dFs", "no_dFt"],
    )
    def test_missing_frequency_state_named_like_ise(self, labels, include_ft, missing):
        model = StateSpaceModel(
            a=[[-1.0]], b=np.zeros((1, 0)), g=np.zeros((1, 0)), state_labels=labels
        )
        sc = Scenario(t_end=1.0, dt=0.01)
        with pytest.raises(InvalidArgument, match=f"'{missing}' state") as stepped:
            ise(integrate(model, sc), include_ft=include_ft)
        with pytest.raises(InvalidArgument) as closed:
            ise_evaluator(model, sc, include_ft)(model.a)
        assert str(closed.value) == str(stepped.value)

    def test_overflow_reported(self):
        model = StateSpaceModel(
            a=np.array([[50.0]]),
            b=np.zeros((1, 0)),
            g=np.zeros((1, 0)),
            state_labels=("dFs",),
        )
        sc = Scenario(t_end=20.0, dt=0.01, x0=np.array([1.0]))
        with pytest.raises(NonFiniteState):
            integrate(model, sc)
        with pytest.raises(NonFiniteState):
            ise_evaluator(model, sc)(model.a)

    def test_overflowing_forcing_reported(self, default_params, stable_gains):
        # a step of 1e308 overflows G p in the set-up; the failure is a
        # NonFiniteState, not a numpy warning
        model = build_closed_loop(default_params, stable_gains)
        sc = Scenario(t_end=1.0, dt=0.01, disturbances={"dPl": Step(1e308, 0.5)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState):
                ise_evaluator(model, sc)(model.a)

    def test_overflowing_propagators_reported(self, default_params):
        # a gain of -1e300 overflows P and Q themselves, before any step; the
        # failure is a NonFiniteState, not a numpy warning
        model = build_closed_loop(default_params, ControllerGains(Ksp=-1e300))
        sc = Scenario(t_end=1.0, dt=0.01, disturbances={"dPl": 0.01})
        with pytest.raises(NonFiniteState):
            integrate(model, sc)
        with pytest.raises(NonFiniteState):
            ise_evaluator(model, sc)(model.a)


def random_stable_loops(params, dt, count, seed):
    """Closed loops under random gains whose spectrum decays and which an
    RK4 step of dt damps."""
    rng = np.random.default_rng(seed)
    loops = []
    while len(loops) < count:
        model = build_closed_loop(params, ControllerGains(*rng.uniform(0.0, 30.0, 6)))
        lam = eigenvalues(model.a)
        if lam[0].real < -1e-3 and rk4_growth(lam, dt) < 0.0:
            loops.append(model)
    return loops


class TestIseEvaluator:
    """One set-up per scenario, one evaluation per state matrix: bit for bit
    an evaluator set up on each model itself, and the stepped index to
    rounding."""

    X0 = np.linspace(0.01, -0.02, 12)
    SCENARIOS = {
        "no_onset": Scenario(t_end=8.0, dt=0.01, controls={"dPcd": 0.002}, x0=X0),
        "one_onset": Scenario(t_end=8.0, dt=0.01, disturbances={"dPl": Step(0.01, 1.0)}),
        "three_onsets": Scenario(
            t_end=8.0,
            dt=0.01,
            disturbances={
                "dPl": Step(0.01, 0.0),
                "dPiw": Step(-0.004, 2.5),
                "dPis": Step(0.006, 8.0),
            },
            controls={"dPcd": 0.002, "us": -0.001},
            x0=X0,
        ),
        # two labels sharing one onset row, after a first stretch that
        # already carries a step
        "shared_onset_row": Scenario(
            t_end=8.0,
            dt=0.01,
            disturbances={
                "dPl": Step(0.01, 2.5),
                "dPiw": Step(-0.004, 2.5),
                "dPis": Step(0.006, 0.0),
            },
            x0=X0,
        ),
    }

    @pytest.mark.parametrize("include_ft", [False, True])
    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_matches_step_ise_and_the_trace(self, default_params, name, include_ft):
        sc = self.SCENARIOS[name]
        evaluate = ise_evaluator(build_closed_loop(default_params, ControllerGains()), sc, include_ft)
        loops = random_stable_loops(default_params, sc.dt, 6, seed=4100)
        # one set-up serves every loop in turn, with nothing carried over
        for model in loops + loops[::-1]:
            got = evaluate(model.a)
            assert got == ise_evaluator(model, sc, include_ft)(model.a)
            want = ise(integrate(model, sc), include_ft=include_ft)
            assert got == pytest.approx(want, rel=1e-12)

    def test_threads_share_one_evaluator(self, default_params):
        # each evaluation allocates its own T: threads sharing one evaluator
        # get the serial results bit for bit
        sc = self.SCENARIOS["three_onsets"]
        evaluate = ise_evaluator(build_closed_loop(default_params, ControllerGains()), sc, True)
        loops = random_stable_loops(default_params, sc.dt, 8, seed=77)
        serial = [evaluate(m.a) for m in loops]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(evaluate, m.a) for m in loops * 8]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(old)
        assert got == serial * 8

    def test_rejects_a_misshapen_state_matrix(self, default_params):
        sc = self.SCENARIOS["one_onset"]
        evaluate = ise_evaluator(build_closed_loop(default_params, ControllerGains()), sc)
        with pytest.raises(DimensionMismatch):
            evaluate(assemble_plant(default_params).a)


class TestSteadyState:
    def test_solves_equilibrium_residual(self):
        model = scalar_decay(a=-3.0)
        x = steady_state(model, disturbances={"w": 2.0}, controls={"u": 1.0})
        assert -3.0 * x[0] + 2.0 + 1.0 == pytest.approx(0.0, abs=1e-12)

    def test_rejects_singular_system(self):
        model = StateSpaceModel(
            a=np.array([[0.0]]),
            b=np.zeros((1, 0)),
            g=np.array([[1.0]]),
            state_labels=("x",),
            disturbance_labels=("w",),
        )
        with pytest.raises(SingularSystem):
            steady_state(model, disturbances={"w": 1.0})


class TestIse:
    @staticmethod
    def _trace(times, dfs, dft=None):
        cols = [np.asarray(dfs)]
        labels = ["dFs"]
        if dft is not None:
            cols.append(np.asarray(dft))
            labels.append("dFt")
        return SimulationTrace(
            times=np.asarray(times),
            states=np.stack(cols, axis=1),
            state_labels=tuple(labels),
        )

    def test_constant_deviation(self):
        t = np.linspace(0.0, 4.0, 41)
        trace = self._trace(t, np.full_like(t, 0.5))
        assert ise(trace) == pytest.approx(0.25 * 4.0, abs=1e-12)

    def test_turbine_term_switch(self):
        t = np.linspace(0.0, 4.0, 41)
        trace = self._trace(t, np.full_like(t, 0.5), np.full_like(t, 0.25))
        assert ise(trace) == pytest.approx(0.25 * 4.0, abs=1e-12)
        assert ise(trace, include_ft=True) == pytest.approx(
            (0.25 + 0.0625) * 4.0, abs=1e-12
        )

    def test_exponential_decay(self):
        t = np.arange(0.0, 20.0001, 1e-3)
        trace = self._trace(t, np.exp(-t))
        assert ise(trace) == pytest.approx(0.5, abs=1e-4)

    def test_empty_trace_rejected(self):
        trace = self._trace(np.array([]), np.array([]))
        with pytest.raises(InvariantViolation):
            ise(trace)
