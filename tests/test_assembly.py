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
    close_loop,
    output_map,
)
from hybridlfc.engine import steady_state
from hybridlfc.errors import (
    DimensionMismatch,
    InvariantViolation,
    OrderingMismatch,
    SingularSystem,
)
from hybridlfc.diesel import build_diesel_subsystem
from hybridlfc.lti import StateSpaceModel, TransferFunction, eigenvalues
from hybridlfc.solar import SolarChannelParams, build_solar_subsystem, solar_feedthrough
from hybridlfc.tuning import GAIN_ORDER, TuneSpec, tune_gains
from hybridlfc.wind import build_pitch_subsystem, build_turbine_subsystem

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
        assert row[m.state_index("dFs")] == pytest.approx(
            -5.053944444444444, abs=1e-12
        )
        assert row[m.state_index("dFt")] == pytest.approx(4.9845, abs=1e-12)
        assert row[m.state_index("dPgd")] == pytest.approx(5.0, abs=1e-12)
        assert row[m.state_index("xs2")] == pytest.approx(1.0, abs=1e-12)
        assert m.g[0, 0] == pytest.approx(-5.0, abs=1e-12)
        # frequency responds to generation and load only, not to setpoints
        np.testing.assert_array_equal(m.b[0], 0.0)

    def test_solar_exclusion_drops_power_term(self, default_params):
        from dataclasses import replace

        m = assemble_plant(replace(default_params, include_solar=False))
        assert m.a[0, m.state_index("xs2")] == 0.0
        # the channel states themselves stay in the model
        assert m.state_labels == PLANT_STATE_ORDER

    def test_droop_only_load_step(self, default_params):
        m = assemble_plant(default_params)
        x = steady_state(m, disturbances={"dPl": 0.01})
        assert x[0] == pytest.approx(DROOP_DFS, abs=1e-12)

    def test_plant_is_stable(self, default_params):
        lam = eigenvalues(assemble_plant(default_params).a)
        assert np.max(lam.real) < 0.0


def wired_plant(p):
    """Reference plant: the public subsystem builders' models summed into
    zero matrices by label, then the frequency balance row."""
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
        d = solar_feedthrough(p.solar)
        a[0, spos["xs2"]] += kp_tp * kgs
        b[0, cpos["us"]] += kp_tp * kgs * d
        g[0, dpos["dPis"]] += kp_tp * kgs * d
    return a, b, g


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
        num = [_draw(rng, c) for c in (900.0, -18.0, 1.0)[: rng.randint(1, 3)]]
        den = [_draw(rng, c) for c in (50.0, 100.0)] + [rng.choice([1.0, _draw(rng, 3.0)])]
        p = replace(
            base,
            diesel=replace(base.diesel, **section(base.diesel)),
            wind=replace(base.wind, **section(base.wind)),
            solar=replace(base.solar, gbc=TransferFunction(num, den), **section(base.solar)),
            include_solar=include_solar,
            **section(base),
        )
        try:
            p.validate()
        except InvariantViolation:
            continue
        return p


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
            {"gbc": TransferFunction([3.0, -1.0, 0.7], [2.0, 5.0, 3.0])},  # biproper, lead 3
            {"gbc": TransferFunction([0.0, 2.0], [0.0, 4.0, -2.0])},  # zero constant terms
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


def labelled_closed_loop(plant, g, kig):
    """Reference closed loop wired by label: iFs and iFt appended as
    selectors on the states named dFs and dFt, H filled by named row and
    column, then Ahat = Abar + Bbar H. Returns (Ahat, Bbar, Gbar, H)."""
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


def draw_gains(rng):
    """Gains anywhere in the tuner's default box, each an exact zero of
    either sign 4 % of the time."""
    return ControllerGains(
        *(
            rng.choice([0.0, -0.0]) if rng.random() < 0.04 else rng.uniform(lo, hi)
            for lo, hi in (TuneSpec().bounds[name] for name in GAIN_ORDER)
        )
    )


def relabelled(plant, state_labels=None, control_labels=None):
    return StateSpaceModel(
        a=plant.a,
        b=plant.b,
        g=plant.g,
        state_labels=state_labels or plant.state_labels,
        control_labels=control_labels or plant.control_labels,
        disturbance_labels=plant.disturbance_labels,
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

    def test_rejects_foreign_ordering(self, default_params):
        # H is written at the assembled indices, so close_loop refuses a
        # plant whose states are ordered otherwise
        plant = assemble_plant(default_params)
        shuffled = PLANT_STATE_ORDER[1:] + PLANT_STATE_ORDER[:1]
        with pytest.raises(OrderingMismatch):
            close_loop(relabelled(plant, state_labels=shuffled), ControllerGains(), 0.9969)

    def test_rejects_foreign_control_ordering(self, default_params):
        plant = assemble_plant(default_params)
        swapped = ("dPcu", "dPcd", "us")
        with pytest.raises(OrderingMismatch):
            close_loop(relabelled(plant, control_labels=swapped), ControllerGains(), 0.9969)


class TestAugmentation:
    def test_shapes_and_selectors(self, default_params):
        plant = assemble_plant(default_params)
        model = close_loop(plant, ControllerGains(), default_params.wind.Kig)
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

    def test_requires_both_frequency_states(self):
        turbine = build_turbine_subsystem(SystemParams().wind)
        with pytest.raises(OrderingMismatch):
            close_loop(turbine, ControllerGains(), 0.9969)


class TestLabelledReference:
    """close_loop writes the augmentation and H at fixed indices; it must
    match the loop wired by label bit for bit, signed zeros included."""

    @pytest.mark.parametrize("include_solar", [True, False])
    def test_matches_labelled_loop_on_draws(self, include_solar):
        rng = random.Random(8101 + include_solar)
        for _ in range(1000):
            p = draw_system(rng, include_solar)
            gains = draw_gains(rng)
            model = build_closed_loop(p, gains)
            want = labelled_closed_loop(assemble_plant(p), gains, p.wind.Kig)
            for got, ref in zip((model.a, model.b, model.g, model.h), want):
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
    # the CLI validates every config first; a library caller gets the same
    # InvariantViolation instead of an indexing or broadcasting error
    p = SystemParams(solar=SolarChannelParams(gbc=TransferFunction([900.0, -18.0], den)))
    with pytest.raises(InvariantViolation, match="solar.gbc_den must be second order"):
        build(p)


class TestClosedLoop:
    def test_zero_feedback_passthrough(self, default_params):
        plant = assemble_plant(default_params)
        abar, bbar, gbar, _ = labelled_closed_loop(plant, ControllerGains(), 0.9969)
        model = close_loop(plant, ControllerGains(), default_params.wind.Kig)
        np.testing.assert_array_equal(model.a, abar)
        np.testing.assert_array_equal(model.g, gbar)
        np.testing.assert_array_equal(model.h, 0.0)
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
        with pytest.raises(ValueError):
            model.h[0, 0] = 1.0

    def test_rejects_misshapen_feedback(self, default_params):
        # close_loop builds H itself; a caller constructing the model directly
        # still gets its shapes checked
        model = build_closed_loop(default_params, ControllerGains())
        with pytest.raises(DimensionMismatch):
            replace(model, h=np.zeros((3, 11)))
        with pytest.raises(DimensionMismatch):
            replace(model, b=model.b[:11])

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
        om = output_map(default_params)
        u = model.h @ x
        p = np.array([0.01, 0.0, 0.0])
        y = om.wx @ x[:10] + om.wu @ u + om.wp @ p
        assert abs(y[0]) < 1e-12  # frequencies agree, no slip power
        assert y[2] == pytest.approx(0.0, abs=1e-12)
