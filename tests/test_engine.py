import math
import warnings

import numpy as np
import pytest

from hybridlfc.assembly import assemble_plant, build_closed_loop, output_map
from hybridlfc.engine import (
    Scenario,
    SimulationTrace,
    Step,
    integrate,
    ise,
    step_ise,
    steady_state,
)
from hybridlfc.errors import (
    DimensionMismatch,
    InvariantViolation,
    NonFiniteState,
    SingularSystem,
    UnstableStepSize,
)
from hybridlfc.lti import StateSpaceModel


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

    def test_column_lookup(self):
        trace = integrate(scalar_decay(), Scenario(t_end=1.0, dt=0.1))
        assert trace.column("x").shape == (11,)
        with pytest.raises(KeyError):
            trace.column("bogus")


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
