import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridlfc import solar
from hybridlfc.engine import steady_state
from hybridlfc.errors import InvariantViolation, NoConvergence
from hybridlfc.lti import TransferFunction, eigenvalues, tf_dc_gain, tf_to_ss
from hybridlfc.solar import (
    BoostParams,
    PvCellParams,
    SolarChannelParams,
    boost_switched_step,
    build_solar_subsystem,
    mppt_operating_point,
    open_circuit_voltage,
    photocurrent,
    pv_curve,
    solar_feedthrough,
    solve_pv_current,
)

# Frozen from the default cell constants.
VOC_DEFAULT = 0.694046771680788
MPP_V = 0.4495449497775216
MPP_P = 1.5260847973119633


def diode_residual(p, vpv, ipv):
    vt = p.thermal_voltage
    return photocurrent(p) - p.Isat * math.expm1((vpv + ipv * p.Rs) / vt) - ipv


class TestPhotocurrent:
    def test_reference_conditions(self):
        assert photocurrent(PvCellParams()) == pytest.approx(3.8, abs=1e-15)

    def test_darkness(self):
        assert photocurrent(PvCellParams(lam=0.0)) == 0.0

    def test_derated_warm_cell(self):
        p = PvCellParams(lam=500.0, T=35.0)
        assert photocurrent(p) == pytest.approx(1.912, abs=1e-15)

    @given(lam=st.floats(0.0, 1500.0), scale=st.floats(0.1, 3.0))
    @settings(max_examples=40)
    def test_linear_in_irradiance(self, lam, scale):
        base = photocurrent(PvCellParams(lam=lam))
        scaled = photocurrent(PvCellParams(lam=scale * lam))
        assert scaled == pytest.approx(scale * base, rel=1e-12, abs=1e-15)


class TestPvCurrent:
    def test_open_circuit_voltage(self):
        assert open_circuit_voltage(PvCellParams()) == pytest.approx(
            VOC_DEFAULT, abs=1e-12
        )
        assert open_circuit_voltage(PvCellParams(lam=0.0)) == 0.0

    def test_short_circuit_current(self):
        p = PvCellParams()
        i0 = solve_pv_current(p, 0.0)
        # the Rs drop turns on the diode slightly even at V = 0
        assert i0 == pytest.approx(3.8, abs=1e-5)
        assert i0 < photocurrent(p)

    def test_current_vanishes_at_open_circuit(self):
        p = PvCellParams()
        assert abs(solve_pv_current(p, open_circuit_voltage(p))) < 1e-10

    def test_residual_contract_on_grid(self):
        p = PvCellParams()
        for v in np.linspace(0.0, VOC_DEFAULT, 25):
            i = solve_pv_current(p, float(v))
            assert abs(diode_residual(p, float(v), i)) <= 1e-8

    def test_current_monotone_in_voltage(self):
        p = PvCellParams()
        grid = np.linspace(0.0, VOC_DEFAULT, 100)
        currents = [solve_pv_current(p, float(v)) for v in grid]
        assert all(a >= b - 1e-12 for a, b in zip(currents, currents[1:]))

    def test_beyond_open_circuit_goes_negative(self):
        # past Voc the diode current exceeds Iph, so the terminal current turns negative
        p = PvCellParams()
        i = solve_pv_current(p, 1.2 * VOC_DEFAULT)
        assert i < 0.0
        assert abs(diode_residual(p, 1.2 * VOC_DEFAULT, i)) <= 1e-8

    def test_zero_series_resistance_closed_form(self):
        p = PvCellParams(Rs=0.0)
        v = 0.3
        expected = photocurrent(p) - p.Isat * math.expm1(v / p.thermal_voltage)
        assert solve_pv_current(p, v) == expected

    @given(v=st.floats(0.0, 0.69), t=st.floats(0.0, 60.0), lam=st.floats(100.0, 1400.0))
    @settings(max_examples=60, deadline=None)
    def test_residual_contract_random_conditions(self, v, t, lam):
        p = PvCellParams(T=t, lam=lam)
        i = solve_pv_current(p, v)
        assert abs(diode_residual(p, v, i)) <= 1e-8 * max(photocurrent(p), 1.0)


# The accuracy gate's grid: series resistances from none through denormal
# to far past a panel's, cells from near absolute zero to hot, negative to
# large photocurrents and saturation currents over 300 decades.
GATE_RS = [0.0, 1e-320, 1e-12, 0.05, 2.0, 5.0, 50.0]
GATE_CELLS = [
    {"T": t, "KI": ki, "lam": lam, "Isat": isat}
    for t in (-270.0, -100.0, 25.0, 150.0)
    for ki in (0.0024, 0.1, -0.1)
    for lam in (0.0, 200.0, 1000.0, 2600.0)
    for isat in (1e-300, 3.6e-9, 1.0)
]


def gate_voltages(p, n):
    return np.linspace(0.0, 1.2 * max(open_circuit_voltage(p), 0.1), n)


def newton_correction(p, v, i):
    """|f(I)/f'(I)| for the residual f of the single-diode law, in float64.

    Where Isat*expm1(u) would overflow, the diode term is taken in the log
    form exp(u + ln Isat) - Isat. The correction, unlike the bare residual,
    stays at rounding size when f' is large (high Rs on a cold cell).
    """
    vt = p.thermal_voltage
    u = (v + i * p.Rs) / vt
    far = u > 700.0
    diode = np.where(
        far,
        np.exp(np.where(far, u, 0.0) + math.log(p.Isat)) - p.Isat,
        p.Isat * np.expm1(np.minimum(u, 700.0)),
    )
    f = photocurrent(p) - diode - i
    slope = -(p.Rs / vt) * (diode + p.Isat) - 1.0
    return np.abs(f / slope)


class TestLambertSolve:
    @pytest.mark.parametrize("rs", GATE_RS)
    def test_accuracy_gate(self, rs):
        for cell in GATE_CELLS:
            p = PvCellParams(Rs=rs, **cell)
            v = gate_voltages(p, 41)
            i = solve_pv_current(p, v)
            assert np.all(np.isfinite(i)), cell
            bound = 1e-12 * np.maximum(max(1.0, abs(photocurrent(p))), np.abs(i))
            assert np.all(newton_correction(p, v, i) <= bound), cell

    @pytest.mark.parametrize("rs", GATE_RS)
    def test_scalar_matches_array(self, rs):
        for cell in GATE_CELLS:
            p = PvCellParams(Rs=rs, **cell)
            v = gate_voltages(p, 9)
            assert solve_pv_current(p, v).tolist() == [solve_pv_current(p, x) for x in v.tolist()]

    def test_float_in_float_out(self):
        p = PvCellParams()
        assert type(solve_pv_current(p, 0.3)) is float
        assert type(solve_pv_current(PvCellParams(Rs=0.0), 0.3)) is float
        grid = np.linspace(0.0, VOC_DEFAULT, 6).reshape(2, 3)
        assert solve_pv_current(p, grid).shape == (2, 3)
        assert solve_pv_current(p, np.array([])).shape == (0,)

    @pytest.mark.parametrize("rs", [1e6, 1e15, 1e300])
    def test_series_resistance_far_past_a_panel(self, rs):
        # the drop Rs*Iph/Vt reaches 1e302 thermal voltages, and the start
        # must not lose the root to rounding in it; the current is then
        # about (Voc - V)/Rs, within rounding of Iph
        p = PvCellParams(Rs=rs)
        v = gate_voltages(p, 41)
        i = solve_pv_current(p, v)
        near = (open_circuit_voltage(p) - v) / rs
        assert np.all(np.abs(i - near) <= 1e-12 * photocurrent(p))

    def test_unsettled_voltage_is_named(self):
        # nan never settles, so the check after the last step reports it
        with np.errstate(invalid="ignore"), pytest.raises(NoConvergence, match="at vpv = nan"):
            solve_pv_current(PvCellParams(), np.array([0.1, np.nan, 0.3]))


class TestMppt:
    def test_reference_point(self):
        v, i, pw = mppt_operating_point(PvCellParams(), 0.01)
        assert v == pytest.approx(MPP_V, abs=1e-6)
        assert pw == pytest.approx(MPP_P, rel=1e-8)
        assert pw == pytest.approx(v * i, abs=1e-15)

    def test_darkness_short_circuits(self):
        assert mppt_operating_point(PvCellParams(lam=0.0), 0.01) == (0.0, 0.0, 0.0)

    def test_dominates_grid_samples(self):
        p = PvCellParams()
        _, _, pw = mppt_operating_point(p, 0.01)
        voc = open_circuit_voltage(p)
        n = int(math.floor(voc / 0.01))
        for k in range(n + 1):
            v = k * 0.01
            assert pw >= v * solve_pv_current(p, v) - 1e-12

    def test_matches_fine_sweep(self):
        p = PvCellParams(lam=800.0, T=40.0)
        _, _, pw = mppt_operating_point(p, 0.01)
        voc = open_circuit_voltage(p)
        sweep = max(
            (k * 1e-4 for k in range(int(voc / 1e-4) + 1)),
            key=lambda v: v * solve_pv_current(p, v),
        )
        best = sweep * solve_pv_current(p, sweep)
        assert pw == pytest.approx(best, rel=1e-5)

    def test_rejects_bad_step(self):
        with pytest.raises(InvariantViolation):
            mppt_operating_point(PvCellParams(), 0.0)
        # a grid past the cap is refused before its first solve
        with pytest.raises(InvariantViolation, match="exceeds the cap"):
            mppt_operating_point(PvCellParams(), 1e-12)


class TestPvCurve:
    def count_solves(self, monkeypatch, p, v_step):
        """pv_curve's result, every voltage it solved and its golden-section probes.

        A call on an array of voltages records each of them.
        """
        solved, probes = [], []
        solve, golden = solar.solve_pv_current, solar._golden_max

        def counting_solve(cell, v):
            solved.extend(np.ravel(v).tolist())
            return solve(cell, v)

        def counting_golden(fn, lo, hi, tol):
            return golden(lambda v: probes.append(v) or fn(v), lo, hi, tol)

        monkeypatch.setattr(solar, "solve_pv_current", counting_solve)
        monkeypatch.setattr(solar, "_golden_max", counting_golden)
        return pv_curve(p, v_step), solved, probes

    @pytest.mark.parametrize(
        "p", [PvCellParams(), PvCellParams(lam=300.0, T=60.0), PvCellParams(Rs=0.0)]
    )
    def test_each_grid_voltage_solved_once(self, monkeypatch, p):
        (volts, amps, _), solved, probes = self.count_solves(monkeypatch, p, 0.01)
        assert solved[: len(volts)] == volts
        # after the grid: the golden-section probes and the refined point
        assert len(solved) == len(volts) + len(probes) + 1
        assert not set(solved[len(volts) :]) & set(volts)
        assert amps == [solve_pv_current(p, v) for v in volts]

    def test_default_cell_solve_count(self, monkeypatch):
        # 70 grid points, 23 golden-section probes and the refined point;
        # the grid scan used to be solved twice, 166 solves in all
        _, solved, _ = self.count_solves(monkeypatch, PvCellParams(), 0.01)
        assert len(solved) == 94

    def test_darkness_solves_only_the_origin(self, monkeypatch):
        (volts, amps, mpp), solved, _ = self.count_solves(
            monkeypatch, PvCellParams(lam=0.0), 0.01
        )
        assert volts == solved == [0.0]
        assert mpp == (0.0, 0.0, 0.0)


def load_pv_sweep():
    path = Path(__file__).resolve().parents[1] / "scripts" / "pv_sweep.py"
    spec = importlib.util.spec_from_file_location("pv_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPvSweepScript:
    # at 0.005 V, Voc of the 1000 W/m^2 cell lies in the upper half of a
    # step, so the sweep's grid runs one point past Voc; 200 W/m^2 stops
    # below it
    @pytest.mark.parametrize("lam", [1000.0, 200.0, 0.0])
    def test_rows_solve_the_whole_sweep_grid(self, lam):
        cell = PvCellParams(lam=lam)
        rows, mpp = load_pv_sweep().sweep(cell, 0.005)
        voc = open_circuit_voltage(cell)
        grid = np.arange(0.0, voc + 0.5 * 0.005, 0.005)
        expected = []
        for v in grid:
            i = solve_pv_current(cell, float(v))
            expected.append((float(v), i, float(v) * i))
        assert rows == expected
        assert mpp == mppt_operating_point(cell, 0.005)
        if lam == 1000.0:
            assert rows[-1][0] > voc


BOOST = BoostParams(L=1e-3, C=1e-3, R=10.0, Ts=1e-5, duty=0.5)


class TestBoost:
    def test_on_mode_ramps_inductor(self):
        # with the switch closed and vo = 0 the inductor current is a ramp
        il, vo = boost_switched_step(BOOST, (0.0, 0.0), 10.0, 1, 1e-5)
        assert il == pytest.approx(10.0 / 1e-3 * 1e-5, rel=1e-12)
        assert vo == 0.0

    def test_on_mode_capacitor_decay(self):
        rc = BOOST.R * BOOST.C
        _, vo = boost_switched_step(BOOST, (0.0, 5.0), 10.0, 1, 1e-5)
        assert vo == pytest.approx(5.0 * math.exp(-1e-5 / rc), rel=1e-12)

    def test_off_mode_couples_states(self):
        il, vo = boost_switched_step(BOOST, (2.0, 0.0), 0.0, 0, 1e-5)
        assert vo > 0.0  # inductor current charges the capacitor
        assert il < 2.0  # rising vo pushes back on the inductor

    def test_fourth_order_convergence(self):
        # one LC ring-down in the open-switch mode, stepped at dt and dt/2,
        # against a dt/64 reference
        p = BoostParams(L=1e-3, C=1e-3, R=10.0, Ts=1.0, duty=0.5)

        def endpoint(dt, t_end=0.01):
            state = (1.0, 0.0)
            for _ in range(round(t_end / dt)):
                state = boost_switched_step(p, state, 0.0, 0, dt)
            return np.array(state)

        ref = endpoint(2e-4 / 64)
        err_coarse = np.linalg.norm(endpoint(2e-4) - ref)
        err_fine = np.linalg.norm(endpoint(1e-4) - ref)
        assert 16.0 * 0.7 <= err_coarse / err_fine <= 16.0 * 1.3

    def test_duty_cycle_voltage_ratio(self):
        # steady switched operation approaches vo = vpv/(1 - duty)
        vpv = 10.0
        on_dt = BOOST.duty * BOOST.Ts
        off_dt = (1.0 - BOOST.duty) * BOOST.Ts
        state = (0.0, 0.0)
        samples = []
        n_cycles = 30000
        for cycle in range(n_cycles):
            state = boost_switched_step(BOOST, state, vpv, 1, on_dt)
            state = boost_switched_step(BOOST, state, vpv, 0, off_dt)
            if cycle >= int(0.9 * n_cycles):
                samples.append(state[1])
        ratio = float(np.mean(samples)) / vpv
        assert ratio == pytest.approx(1.0 / (1.0 - BOOST.duty), rel=0.02)

    def test_step_size_bounds(self):
        with pytest.raises(InvariantViolation):
            boost_switched_step(BOOST, (0.0, 0.0), 10.0, 1, 2e-5)
        with pytest.raises(InvariantViolation):
            boost_switched_step(BOOST, (0.0, 0.0), 10.0, 1, 0.0)

    def test_validate(self):
        with pytest.raises(InvariantViolation):
            BoostParams(L=0.0, C=1e-3, R=10.0, Ts=1e-5, duty=0.5).validate()
        with pytest.raises(InvariantViolation):
            BoostParams(L=1e-3, C=1e-3, R=10.0, Ts=1e-5, duty=1.0).validate()


class TestChannel:
    def test_converter_poles(self):
        m = build_solar_subsystem(SolarChannelParams())
        lam = sorted(eigenvalues(m.a).real, reverse=True)
        assert lam == pytest.approx(
            [-0.5025253169416715, -99.49747468305833], abs=1e-9
        )

    def test_dc_gain_through_channel(self):
        p = SolarChannelParams()
        m = build_solar_subsystem(p)
        x = steady_state(m, controls={"us": 1.0})
        d = solar_feedthrough(p)
        assert x[1] == pytest.approx(tf_dc_gain(p.gbc), abs=1e-9)
        assert p.Kgs * (x[1] + d) == pytest.approx(3.6, abs=1e-9)

    def test_disturbance_mirrors_control(self):
        m = build_solar_subsystem(SolarChannelParams())
        np.testing.assert_array_equal(m.b, m.g)
        assert m.control_labels == ("us",)
        assert m.disturbance_labels == ("dPis",)

    def test_default_block_strictly_proper(self):
        assert solar_feedthrough(SolarChannelParams()) == 0.0

    def test_feedthrough_block(self):
        # (s + 2)/(s + 1): one state, unit feedthrough, DC gain 2
        p = SolarChannelParams(gbc=TransferFunction([2.0, 1.0], [1.0, 1.0]))
        m = build_solar_subsystem(p)
        d = solar_feedthrough(p)
        assert d == 1.0
        assert m.n_states == 1
        x = steady_state(m, controls={"us": 1.0})
        assert p.Kgs * (x[0] + d) == pytest.approx(p.Kgs * 2.0, abs=1e-12)

    @pytest.mark.parametrize(
        "num, den",
        [
            ([900.0, -18.0], [50.0, 100.0, 1.0]),  # strictly proper, the default
            ([0.3], [0.7, 3.0]),
            ([2.0, 1.0], [1.0, 1.0]),  # biproper
            ([3.0, -1.0, 0.7], [2.0, 5.0, 3.0]),  # biproper, lead coefficient 3
        ],
    )
    def test_feedthrough_bit_equal_to_realization(self, num, den):
        p = SolarChannelParams(gbc=TransferFunction(num, den))
        _, d = tf_to_ss(p.gbc)
        # num = d*den + remainder on the coefficients scaled by den's lead
        n = len(den) - 1
        scaled = [c / den[-1] for c in num] + [0.0] * (n + 1 - len(num))
        assert solar_feedthrough(p) == d == scaled[n]

    def test_validate_rejects_improper_block(self):
        p = SolarChannelParams(gbc=TransferFunction([0.0, 0.0, 1.0], [1.0, 1.0]))
        with pytest.raises(InvariantViolation):
            p.validate()
