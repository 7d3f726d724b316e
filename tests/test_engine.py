import cmath
import math
import warnings

import numpy as np
import pytest

from hybridlfc.assembly import (
    ControllerGains,
    SystemParams,
    assemble_plant,
    build_closed_loop,
    output_map,
)
from hybridlfc.engine import (
    Scenario,
    SimulationTrace,
    Step,
    integrate,
    ise,
    rk4_growth,
    step_ise,
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
from hybridlfc.lti import StateSpaceModel, TransferFunction
from hybridlfc.solar import SolarChannelParams


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
            Scenario(t_end=1.0, dt=0.0).validate()
        with pytest.raises(InvariantViolation):
            Scenario(t_end=1.0, dt=2.0).validate()
        with pytest.raises(InvariantViolation):
            Scenario(t_end=1e300, dt=1e-10).validate()

    def test_validate_rejects_onset_outside_horizon(self):
        sc = Scenario(t_end=1.0, dt=0.1, disturbances={"w": Step(1.0, onset=2.0)})
        with pytest.raises(InvariantViolation):
            sc.validate()
        sc = Scenario(t_end=1.0, dt=0.1, disturbances={"w": Step(1.0, onset=-0.5)})
        with pytest.raises(InvariantViolation):
            sc.validate()


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

    def test_step_size_warning_band(self):
        with pytest.warns(RuntimeWarning):
            integrate(scalar_decay(), Scenario(t_end=26.0, dt=2.6))

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
        for run in (integrate, step_ise):
            with pytest.raises(InvalidArgument, match="unknown control input 'dPcx'"):
                run(model, sc)
        with pytest.raises(InvalidArgument, match="unknown disturbance input 'dPx'"):
            steady_state(model, disturbances={"dPx": 0.01})

    def test_column_lookup(self):
        trace = integrate(scalar_decay(), Scenario(t_end=1.0, dt=0.1))
        assert trace.column("x").shape == (11,)
        with pytest.raises(KeyError):
            trace.column("bogus")


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
        # inside, but at the edge: the warning band covers it
        with pytest.warns(RuntimeWarning, match="RK4 stability edge"):
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
        om = output_map(default_params)
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
        gbc = TransferFunction([3.0, -1.0, 0.7], [2.0, 5.0, 3.0])
        p = SystemParams(solar=SolarChannelParams(gbc=gbc))
        model = build_closed_loop(p, stable_gains) if closed else assemble_plant(p)
        sc = Scenario(
            t_end=5.0,
            dt=0.01,
            disturbances={"dPl": 0.01, "dPis": Step(0.02, 0.5)},
            controls={"us": 0.03},
        )
        trace = integrate(model, sc, outputs=output_map(p))
        x = trace.states
        if closed:
            us = 0.03 + x @ model.h[2]
        else:
            assert model.h is None
            us = 0.03
        dpis = np.where(np.arange(len(x)) >= 50, 0.02, 0.0)
        expected = p.solar.Kgs * (trace.column("xs2") + 0.7 / 3.0 * (us + dpis))
        np.testing.assert_allclose(trace.column("dPgs"), expected, rtol=1e-12, atol=1e-16)

    def test_open_loop_control_path(self, default_params):
        plant = assemble_plant(default_params)
        x_ss = steady_state(plant, controls={"dPcd": 0.1})
        trace = integrate(
            plant, Scenario(t_end=60.0, dt=0.005, controls={"dPcd": 0.1})
        )
        assert np.max(np.abs(trace.states[-1] - x_ss)) < 1e-6


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
        got = step_ise(model, scenario, include_ft=include_ft)
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
            step_ise(model, sc)
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
            step_ise(model, sc, include_ft=include_ft)
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
            step_ise(model, sc)


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
