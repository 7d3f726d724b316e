import random
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridlfc.assembly import (
    INTEGRATOR_LABELS,
    PLANT_CONTROL_ORDER,
    PLANT_DISTURBANCE_ORDER,
    PLANT_STATE_ORDER,
    ControllerGains,
    SystemParams,
    assemble_plant,
    build_closed_loop,
    build_feedback_matrix,
    closed_loop_matrix,
    output_map,
)
from hybridlfc.engine import steady_state
from hybridlfc.errors import InvariantViolation, SingularSystem
from hybridlfc.lti import eigenvalues
from hybridlfc.solar import SolarChannelParams
from hybridlfc.tuning import GAIN_ORDER, TuneSpec, tune_gains
from reference import labelled_closed_loop, wired_plant

# Steady frequency deviation for a 0.01 pu load step with all controllers
# off: the droop and slip contributions in closed form,
#   -0.01 / (1/Kp + Kd/Rd + Kig*(1 - Ktp)/(1 + Kig - Ktp))
DROOP_DFS = -0.01727292825182671


class TestPlantMatrix:
    def test_orderings(self, default_params):
        m = assemble_plant(default_params)
        assert m.state_labels == PLANT_STATE_ORDER
        assert m.control_labels == PLANT_CONTROL_ORDER
        assert m.disturbance_labels == PLANT_DISTURBANCE_ORDER
        assert m.n_states == 10

    def test_frequency_balance_row(self, default_params):
        m = assemble_plant(default_params)
        row = m.a[0]
        assert row[m.state_labels.index("dFs")] == pytest.approx(
            -5.053944444444444, abs=1e-12
        )
        assert row[m.state_labels.index("dFt")] == pytest.approx(4.9845, abs=1e-12)
        assert row[m.state_labels.index("dPgd")] == pytest.approx(5.0, abs=1e-12)
        assert row[m.state_labels.index("xs2")] == pytest.approx(1.0, abs=1e-12)
        assert m.g[0, 0] == pytest.approx(-5.0, abs=1e-12)
        # frequency responds to generation and load only, not to setpoints
        np.testing.assert_array_equal(m.b[0], 0.0)

    def test_solar_exclusion_drops_power_term(self, default_params):
        from dataclasses import replace

        m = assemble_plant(replace(default_params, include_solar=False))
        assert m.a[0, m.state_labels.index("xs2")] == 0.0
        # the channel states themselves stay in the model
        assert m.state_labels == PLANT_STATE_ORDER

    def test_droop_only_load_step(self, default_params):
        m = assemble_plant(default_params)
        x = steady_state(m, disturbances={"dPl": 0.01})
        assert x[0] == pytest.approx(DROOP_DFS, abs=1e-12)

    def test_plant_is_stable(self, default_params):
        lam = eigenvalues(assemble_plant(default_params).a)
        assert np.max(lam.real) < 0.0


def _draw(rng, value):
    """A scalar near `value`, or an edge: zero of either sign, one, or a
    flipped sign."""
    pick = rng.random()
    if pick < 0.04:
        return rng.choice([0.0, -0.0, 1.0])
    scaled = value * 10.0 ** rng.uniform(-1.0, 1.0)
    return -scaled if pick < 0.08 else scaled


def draw_system(rng, include_solar):
    """A valid plant with every parameter drawn around its default; the
    converter block is strictly proper or biproper, with any leading
    coefficient."""

    def section(params):
        return {
            f.name: _draw(rng, getattr(params, f.name))
            for f in fields(params)
            if isinstance(getattr(params, f.name), float)
        }

    base = SystemParams()
    while True:
        # draw every value before building anything, so a rejected draw
        # uses as many random numbers as an accepted one
        num = [_draw(rng, c) for c in (900.0, -18.0, 1.0)[: rng.randint(1, 3)]]
        den = [_draw(rng, c) for c in (50.0, 100.0)] + [rng.choice([1.0, _draw(rng, 3.0)])]
        diesel, wind, solar, system = map(section, (base.diesel, base.wind, base.solar, base))
        try:
            return replace(
                base,
                diesel=replace(base.diesel, **diesel),
                wind=replace(base.wind, **wind),
                solar=replace(base.solar, gbc_num=num, gbc_den=den, **solar),
                include_solar=include_solar,
                **system,
            )
        except InvariantViolation:
            continue


class TestDirectFill:
    """assemble_plant writes the balance equations straight into A, B and
    G; it must match the wired subsystem models bit for bit, signed zeros
    included."""

    def assert_bit_equal(self, p):
        plant = assemble_plant(p)
        for got, want in zip((plant.a, plant.b, plant.g), wired_plant(p)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("include_solar", [True, False])
    def test_matches_wired_subsystems_on_draws(self, include_solar):
        rng = random.Random(6101 + include_solar)
        for _ in range(1000):
            self.assert_bit_equal(draw_system(rng, include_solar))

    @pytest.mark.parametrize("include_solar", [True, False])
    @pytest.mark.parametrize(
        "change",
        [
            {"gbc_num": (3.0, -1.0, 0.7), "gbc_den": (2.0, 5.0, 3.0)},  # biproper, lead 3
            {"gbc_num": (0.0, 2.0), "gbc_den": (0.0, 4.0, -2.0)},  # zero constant terms
            {"Tp1": 1.0},  # no dynamic part in the pitch lead-lag
            {"Td1": 2.0},  # K1 = 0
            {"Kpc": 0.0, "Tp1": -0.6},
            {"Kgs": -0.0},
        ],
        ids=["biproper_lead_3", "zero_constants", "Tp1_1", "K1_0", "zero_pitch_gain", "Kgs_neg_zero"],
    )
    def test_matches_wired_subsystems_at_edges(self, include_solar, change):
        base = SystemParams(include_solar=include_solar)
        parts = {"diesel": base.diesel, "wind": base.wind, "solar": base.solar}
        for name, part in parts.items():
            own = {k: v for k, v in change.items() if hasattr(part, k)}
            parts[name] = replace(part, **own)
        self.assert_bit_equal(replace(base, **parts))

    def test_zero_residue_stores_positive_zero(self, default_params):
        # Td1 = Td2 makes K1 = 0, so the droop term -K1/(Rd*Td2) is -0.0;
        # summed into a zero matrix it is +0.0
        p = replace(default_params, diesel=replace(default_params.diesel, Td1=2.0))
        a = assemble_plant(p).a
        entry = a[PLANT_STATE_ORDER.index("dXED11"), PLANT_STATE_ORDER.index("dFs")]
        assert entry == 0.0 and np.copysign(1.0, entry) == 1.0


def draw_gains(rng):
    """Gains anywhere in the tuner's default box, each an exact zero of
    either sign 4 % of the time."""
    return ControllerGains(
        *(
            rng.choice([0.0, -0.0]) if rng.random() < 0.04 else rng.uniform(lo, hi)
            for lo, hi in (TuneSpec().bounds[name] for name in GAIN_ORDER)
        )
    )


class TestFeedbackMatrix:
    ORDER = PLANT_STATE_ORDER + INTEGRATOR_LABELS

    def test_zero_gains_zero_matrix(self):
        h = build_feedback_matrix(ControllerGains(), kig=0.9969)
        np.testing.assert_array_equal(h, np.zeros((3, 12)))

    def test_diesel_proportional_entry(self):
        h = build_feedback_matrix(ControllerGains(Kdp=1.0), kig=0.9969)
        expected = np.zeros((3, 12))
        expected[0, self.ORDER.index("dFs")] = -1.0
        np.testing.assert_array_equal(h, expected)

    def test_pitch_gains_scaled_by_slip_coupling(self):
        h = build_feedback_matrix(ControllerGains(Kpp=1.0), kig=0.9969)
        assert h[1, self.ORDER.index("dFs")] == pytest.approx(0.9969)
        assert h[1, self.ORDER.index("dFt")] == pytest.approx(-0.9969)
        assert np.all(h[0] == 0.0) and np.all(h[2] == 0.0)

    def test_integral_gains_hit_integrators(self):
        h = build_feedback_matrix(ControllerGains(Kdi=2.0, Ksi=3.0), kig=0.9969)
        assert h[0, self.ORDER.index("iFs")] == -2.0
        assert h[2, self.ORDER.index("iFs")] == -3.0
        assert np.all(h[:, : len(PLANT_STATE_ORDER)] == 0.0)

    def test_any_six_gains_in_gain_order_give_the_same_matrix(self, default_params):
        # the tuner passes a tuple, a caller may pass an array: H and Ahat
        # are those of the ControllerGains, float64 and bit for bit
        base = build_closed_loop(default_params, ControllerGains())
        rng = random.Random(3101)
        for _ in range(200):
            gains = draw_gains(rng)
            want_h = build_feedback_matrix(gains, 0.9969)
            want_a = closed_loop_matrix(base.a, base.b, gains, 0.9969)
            for other in (tuple(gains), np.array(tuple(gains))):
                h = build_feedback_matrix(other, 0.9969)
                assert h.dtype == np.float64 and h.tobytes() == want_h.tobytes()
                a = closed_loop_matrix(base.a, base.b, other, 0.9969)
                assert a.tobytes() == want_a.tobytes()

    def test_complex_step_is_the_analytic_derivative(self, default_params, stable_gains):
        # Ahat = Abar + Bbar H is affine in each gain, with dAhat/dK_i =
        # Bbar H(e_i); a complex step of a power of two scales exactly, so
        # its imaginary part over the step is that derivative exactly, and
        # its real part is the real fill
        base = build_closed_loop(default_params, ControllerGains())
        kig = default_params.wind.Kig
        gains = np.array(tuple(stable_gains))
        real = closed_loop_matrix(base.a, base.b, gains, kig)
        step = 2.0**-60
        for e in np.eye(len(GAIN_ORDER)):
            a = closed_loop_matrix(base.a, base.b, gains + 1j * step * e, kig)
            assert a.dtype == np.complex128
            np.testing.assert_array_equal(a.imag / step, base.b @ build_feedback_matrix(e, kig))
            assert a.real.tobytes() == real.tobytes()
            assert np.any(a.imag != 0.0)


class TestAugmentation:
    def test_shapes_and_selectors(self, default_params):
        plant = assemble_plant(default_params)
        model = build_closed_loop(default_params, ControllerGains())
        abar, bbar, gbar = model.a, model.b, model.g
        assert abar.shape == (12, 12)
        assert bbar.shape == (12, 3)
        assert gbar.shape == (12, 3)
        np.testing.assert_array_equal(abar[:10, :10], plant.a)
        # iFs and iFt rows integrate exactly one state each
        assert abar[10, 0] == 1.0 and np.sum(np.abs(abar[10])) == 1.0
        assert abar[11, 1] == 1.0 and np.sum(np.abs(abar[11])) == 1.0
        np.testing.assert_array_equal(abar[:10, 10:], 0.0)
        np.testing.assert_array_equal(bbar[10:], 0.0)
        np.testing.assert_array_equal(gbar[10:], 0.0)


class TestLabelledReference:
    """build_closed_loop writes the augmentation and H at fixed indices; it must
    match the loop wired by label bit for bit, signed zeros included."""

    @pytest.mark.parametrize("include_solar", [True, False])
    def test_matches_labelled_loop_on_draws(self, include_solar):
        rng = random.Random(8101 + include_solar)
        for _ in range(1000):
            p = draw_system(rng, include_solar)
            gains = draw_gains(rng)
            model = build_closed_loop(p, gains)
            want = labelled_closed_loop(assemble_plant(p), gains, p.wind.Kig)
            h = build_feedback_matrix(gains, p.wind.Kig)
            for got, ref in zip((model.a, model.b, model.g, h), want):
                assert got.tobytes() == ref.tobytes()
            assert model.state_labels == PLANT_STATE_ORDER + INTEGRATOR_LABELS


@pytest.mark.parametrize("den", [[2.0, 1.0], [1.0, 2.0, 3.0, 1.0]], ids=["first", "third"])
@pytest.mark.parametrize(
    "build",
    [
        assemble_plant,
        lambda p: build_closed_loop(p, ControllerGains()),
        lambda p: tune_gains(p, TuneSpec(budget=5)),
    ],
    ids=["assemble_plant", "build_closed_loop", "tune_gains"],
)
def test_library_entry_points_validate(build, den):
    # a library caller gets the CLI's InvariantViolation, not an indexing or
    # broadcasting error: the block is checked when it is built, before any
    # entry point can see it
    with pytest.raises(InvariantViolation, match="solar.gbc_den must be second order"):
        build(SystemParams(solar=SolarChannelParams(gbc_den=den)))


class TestClosedLoop:
    def test_zero_feedback_passthrough(self, default_params):
        plant = assemble_plant(default_params)
        abar, bbar, gbar, _ = labelled_closed_loop(plant, ControllerGains(), 0.9969)
        model = build_closed_loop(default_params, ControllerGains())
        np.testing.assert_array_equal(model.a, abar)
        np.testing.assert_array_equal(model.b, bbar)
        np.testing.assert_array_equal(model.g, gbar)
        assert model.state_labels == PLANT_STATE_ORDER + INTEGRATOR_LABELS
        assert model.n_states == 12

    def test_zero_feedback_keeps_two_integrator_modes(self, default_params):
        model = build_closed_loop(default_params, ControllerGains())
        lam = eigenvalues(model.a)
        assert int(np.sum(np.abs(lam) < 1e-9)) == 2

    def test_matrices_read_only(self, default_params, stable_gains):
        model = build_closed_loop(default_params, stable_gains)
        with pytest.raises(ValueError):
            model.a[0, 0] = 1.0

    def test_zero_gain_equilibrium_is_singular(self, default_params):
        model = build_closed_loop(default_params, ControllerGains())
        with pytest.raises(SingularSystem):
            steady_state(model, disturbances={"dPl": 0.01})

    def test_integrators_zero_both_frequencies(self, default_params, stable_gains):
        model = build_closed_loop(default_params, stable_gains)
        x = steady_state(model, disturbances={"dPl": 0.01})
        labels = model.state_labels
        assert abs(x[labels.index("dFs")]) < 1e-12
        assert abs(x[labels.index("dFt")]) < 1e-12
        # with both frequencies pinned, diesel and solar pick up the load
        kgs = default_params.solar.Kgs
        dpgs = kgs * x[labels.index("xs2")]
        assert x[labels.index("dPgd")] + dpgs == pytest.approx(0.01, abs=1e-12)

    @given(
        gains=st.tuples(*[st.floats(0.0, 100.0) for _ in range(6)]),
    )
    @settings(max_examples=40)
    def test_feedback_never_touches_integrator_rows(self, gains):
        params = SystemParams()
        model = build_closed_loop(params, ControllerGains(*gains))
        sel = np.zeros((2, 12))
        sel[0, 0] = 1.0
        sel[1, 1] = 1.0
        np.testing.assert_array_equal(model.a[10:], sel)
        np.testing.assert_array_equal(model.g[10:], 0.0)


class TestOutputMap:
    def test_wind_generation_weights(self, default_params):
        om = output_map(default_params)
        assert om.labels == ("dPgw", "dPgs", "dP1")
        kig = default_params.wind.Kig
        assert om.wx[0, 1] == kig and om.wx[0, 0] == -kig
        assert np.sum(np.abs(om.wx[0])) == pytest.approx(2.0 * kig)
        np.testing.assert_array_equal(om.wu[0], 0.0)
        np.testing.assert_array_equal(om.wp[0], 0.0)

    def test_solar_generation_weights(self, default_params):
        om = output_map(default_params)
        idx = PLANT_STATE_ORDER.index("xs2")
        assert om.wx[1, idx] == default_params.solar.Kgs
        # strictly proper default block: no direct input feedthrough
        np.testing.assert_array_equal(om.wu[1], 0.0)

    def test_surplus_weights_balance(self, default_params):
        om = output_map(default_params)
        expected = om.wx[0] + om.wx[1]
        expected[PLANT_STATE_ORDER.index("dPgd")] += 1.0
        np.testing.assert_allclose(om.wx[2], expected, atol=1e-15)
        assert om.wp[2, 0] == -1.0

    def test_surplus_excludes_solar_when_disabled(self, default_params):
        from dataclasses import replace

        om = output_map(replace(default_params, include_solar=False))
        assert om.wx[2, PLANT_STATE_ORDER.index("xs2")] == 0.0

    def test_surplus_vanishes_at_regulated_equilibrium(
        self, default_params, stable_gains
    ):
        model = build_closed_loop(default_params, stable_gains)
        x = steady_state(model, disturbances={"dPl": 0.01})
        om = output_map(default_params, stable_gains)
        p = np.array([0.01, 0.0, 0.0])
        y = om.wx @ x + om.wp @ p
        assert abs(y[0]) < 1e-12  # frequencies agree, no slip power
        assert y[2] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "solar",
        [SolarChannelParams(), SolarChannelParams(gbc_num=(3.0, -1.0, 0.7), gbc_den=(2.0, 5.0, 3.0))],
        ids=["strictly_proper", "biproper"],
    )
    def test_zero_gains_pad_the_plant_map(self, solar):
        # the closed loop's map at H = 0 is the plant map over two more
        # states of zero weight, signed zeros included
        p = SystemParams(solar=solar)
        plant, closed = output_map(p), output_map(p, ControllerGains())
        assert closed.labels == plant.labels
        padded = np.hstack([plant.wx, np.zeros((3, len(INTEGRATOR_LABELS)))])
        for got, want in ((closed.wx, padded), (closed.wu, plant.wu), (closed.wp, plant.wp)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert closed.wu.any() == (solar.gbc_num[-1] == 0.7)
