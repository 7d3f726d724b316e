import importlib.util
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridlfc import solar
from hybridlfc.assembly import US, SystemParams, assemble_plant, output_map
from hybridlfc.cli import csv_blocks
from hybridlfc.engine import steady_state
from hybridlfc.errors import InvalidArgument, InvariantViolation
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
from reference import build_solar_subsystem, dp_dv, plant_block, tf_dc_gain, tf_to_ss

# Frozen from the default cell constants.
VOC_DEFAULT = 0.694046771680788
MPP_V = 0.4495451220976747
MPP_P = 1.5260847973127722


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


def bisect_current(p, v):
    """I in [0, Iph] where the explicit V(I) = Vt*log1p((Iph - I)/Isat) - Rs*I
    falls to v, bisected in floats until the bracket stops shrinking."""
    iph, vt = photocurrent(p), p.thermal_voltage
    lo, hi = 0.0, iph
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if vt * math.log1p((iph - mid) / p.Isat) - p.Rs * mid > v:
            lo = mid
        else:
            hi = mid


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

    @pytest.mark.parametrize(
        "cell",
        [
            {"lam": 1e20, "Rs": 1.0},
            {"lam": 1e300},
            {"lam": 1e10},
            {"Rs": 1e4},
            {"Isat": 1e5},
            {"Isat": 1e10},
            {"Isat": 1e20},
            {"Isat": 1e300},
            # here ln Isat carries rounding far above the root d = s - ln Isat
            {"Isat": 1e70},
            {"Isat": 1e287, "Rs": 1.0},
            # drop <= 1: Iph + Isat - exp(s) once lost the digits of I here
            {"Isat": 1e10, "Rs": 1e-12},
            {"Isat": 1e5, "Rs": 1e-7},
        ],
        ids=[
            "lam1e20_Rs1", "lam1e300", "lam1e10", "Rs1e4",
            "Isat1e5", "Isat1e10", "Isat1e20", "Isat1e300", "Isat1e70", "Isat1e287_Rs1",
            "Isat1e10_Rs1e-12", "Isat1e5_Rs1e-7",
        ],
    )
    def test_small_current_against_a_large_photocurrent(self, cell):
        # I << Iph + Isat on these cells: Iph + Isat - exp(s) once read
        # 2.3e284 A at V = 0 for 470.76 A at lam = 1e300, and a read-out
        # through Rs*(Iph + Isat) once lost Rs*Iph when Isat >> Iph
        # (-4.7e-15 A at V = 0 for 2.5e-20 A at Isat = 1e20), so the bound
        # is relative to the current itself
        p = PvCellParams(**cell)
        v = np.array([0.0, 0.25, 0.5, 0.75, 0.9]) * open_circuit_voltage(p)
        want = np.array([bisect_current(p, x) for x in v.tolist()])
        assert np.all(np.abs(solve_pv_current(p, v) - want) <= 1e-12 * want)

    def test_non_finite_voltage_is_named(self):
        with pytest.raises(InvalidArgument, match="got nan"):
            solve_pv_current(PvCellParams(), np.array([0.1, np.nan, 0.3]))

    @pytest.mark.parametrize("as_array", [False, True], ids=["float", "array"])
    @pytest.mark.parametrize("rs", [0.0, 0.05])
    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_voltage_rejected(self, v, rs, as_array):
        # rejected before any arithmetic: past the check, Rs = 0 would hand
        # back a non-finite current silently and Rs > 0 would raise numpy
        # RuntimeWarnings, which the pytest settings turn into errors
        vpv = np.array([0.2, v]) if as_array else v
        with pytest.raises(InvalidArgument, match="pv voltage must be finite"):
            solve_pv_current(PvCellParams(Rs=rs), vpv)


def mpp(p, v_step=0.01):
    return pv_curve(p, v_step)[2]


class TestMppt:
    def test_reference_point(self):
        v, i, pw = mpp(PvCellParams())
        assert v == pytest.approx(MPP_V, rel=1e-12)
        assert pw == pytest.approx(MPP_P, rel=1e-12)
        assert pw == v * i

    def test_stationary(self):
        v, i, _ = mpp(PvCellParams())
        assert abs(dp_dv(PvCellParams(), v, i)) <= 1e-13 * i

    def test_darkness_short_circuits(self):
        assert mpp(PvCellParams(lam=0.0)) == (0.0, 0.0, 0.0)

    def test_dominates_grid_samples(self):
        p = PvCellParams()
        _, _, pw = mpp(p)
        voc = open_circuit_voltage(p)
        n = int(math.floor(voc / 0.01))
        for k in range(n + 1):
            v = k * 0.01
            assert pw >= v * solve_pv_current(p, v) - 1e-12

    def test_matches_fine_sweep(self):
        p = PvCellParams(lam=800.0, T=40.0)
        _, _, pw = mpp(p)
        voc = open_circuit_voltage(p)
        sweep = max(
            (k * 1e-4 for k in range(int(voc / 1e-4) + 1)),
            key=lambda v: v * solve_pv_current(p, v),
        )
        best = sweep * solve_pv_current(p, sweep)
        assert pw == pytest.approx(best, rel=1e-5)

    def test_independent_of_the_grid(self):
        p = PvCellParams(lam=800.0, T=40.0)
        assert mpp(p, 0.01) == mpp(p, 0.003) == mpp(p, 1.0)

    @given(
        lam=st.floats(50.0, 1400.0),
        t=st.floats(-40.0, 90.0),
        rs=st.floats(0.0, 5.0),
        log_isat=st.floats(-12.0, -6.0),
        aq=st.floats(1.0, 2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_inside_the_curve_and_above_the_grid(self, lam, t, rs, log_isat, aq):
        p = PvCellParams(lam=lam, T=t, Rs=rs, Isat=10.0**log_isat, Aq=aq)
        volts, amps, (vm, im, pm) = pv_curve(p, 0.001)
        assert 0.0 <= vm <= open_circuit_voltage(p)
        assert pm >= max(v * i for v, i in zip(volts, amps)) * (1.0 - 1e-14)
        assert abs(dp_dv(p, vm, im)) <= 1e-13 * im

    def test_rejects_bad_step(self):
        with pytest.raises(InvariantViolation):
            mpp(PvCellParams(), 0.0)
        # a grid past the cap is refused before its first solve
        with pytest.raises(InvariantViolation, match="exceeds the cap"):
            mpp(PvCellParams(), 1e-12)


class TestPvCurve:
    def count_solves(self, monkeypatch, p, v_step):
        """pv_curve's result and every voltage it solved; a call on an
        array of voltages records each of them."""
        solved = []
        solve = solar.solve_pv_current

        def counting_solve(cell, v):
            solved.extend(np.ravel(v).tolist())
            return solve(cell, v)

        monkeypatch.setattr(solar, "solve_pv_current", counting_solve)
        return pv_curve(p, v_step), solved

    @pytest.mark.parametrize(
        "p", [PvCellParams(), PvCellParams(lam=300.0, T=60.0), PvCellParams(Rs=0.0)]
    )
    def test_each_grid_voltage_solved_once(self, monkeypatch, p):
        (volts, amps, _), solved = self.count_solves(monkeypatch, p, 0.01)
        # the maximum power point needs no solve of its own
        assert solved == volts.tolist()
        assert amps.tolist() == [solve_pv_current(p, v) for v in solved]

    @pytest.mark.parametrize("v_step", [0.01, 0.003, 1e-5, 0.1 + 0.2])
    def test_grid_is_the_products_of_the_step(self, v_step):
        # each grid voltage is the one rounding of i * v_step
        volts, amps, _ = pv_curve(PvCellParams(), v_step)
        assert isinstance(volts, np.ndarray) and isinstance(amps, np.ndarray)
        assert volts.tolist() == [i * v_step for i in range(len(volts))]

    def test_default_cell_solve_count(self, monkeypatch):
        # the 70 grid points and nothing more
        _, solved = self.count_solves(monkeypatch, PvCellParams(), 0.01)
        assert len(solved) == 70

    def test_darkness_solves_only_the_origin(self, monkeypatch):
        (volts, amps, point), solved = self.count_solves(monkeypatch, PvCellParams(lam=0.0), 0.01)
        assert volts.tolist() == solved == [0.0]
        assert point == (0.0, 0.0, 0.0)


def load_pv_sweep():
    path = Path(__file__).resolve().parents[1] / "scripts" / "pv_sweep.py"
    spec = importlib.util.spec_from_file_location("pv_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPvSweepScript:
    # at 0.005 V, Voc of the 1000 W/m^2 cell lies in the upper half of a
    # step, so a grid rounded to the nearest point would pass Voc; at
    # 200 W/m^2 it lies in the lower half
    @pytest.mark.parametrize("lam", [1000.0, 200.0, 0.0])
    def test_rows_solve_the_whole_sweep_grid(self, monkeypatch, tmp_path, capsys, lam):
        # one level's rows are pvcurve's grid, volts and amps with P = V I,
        # written by the CLI's CSV writer
        out = tmp_path / "pv.csv"
        argv = ["pv_sweep.py", "--irradiance", str(lam), "--v-step", "0.005", "--out", str(out)]
        monkeypatch.setattr(sys, "argv", argv)
        load_pv_sweep().main()
        cell = PvCellParams(lam=lam)
        volts, amps, (vm, _, pm) = pv_curve(cell, 0.005)
        assert volts[-1] <= open_circuit_voltage(cell)
        body = csv_blocks(np.full(volts.size, lam), volts, amps, volts * amps)
        assert out.read_text() == "\n".join(["lam,V,I,P", *body]) + "\n"
        assert f"MPP = {pm:.4f} W at {vm:.4f} V" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, code, message",
        [
            (["--irradiance", "-5"], 2, "error: InvariantViolation: pv.lambda must be >= 0"),
            (["--v-step", "0"], 2, "error: InvariantViolation: v_step must be > 0"),
            (["--v-step", "nan"], 2, "error: InvariantViolation: v_step must be finite"),
            (["--v-step", "inf"], 2, "error: InvariantViolation: v_step must be finite"),
            (["--v-step", "1e-9"], 2, "error: InvariantViolation: voltage grid of 6.4e+08 points"),
            (["--irradiance", "abc"], 2, "error: argument --irradiance: invalid irradiance_levels"),
        ],
        ids=[
            "negative_irradiance", "zero_step", "nan_step", "inf_step", "grid_over_the_cap",
            "not_a_number",
        ],
    )
    def test_bad_input_is_one_error_line(self, tmp_path, flags, code, message):
        path = Path(__file__).resolve().parents[1] / "scripts" / "pv_sweep.py"
        result = subprocess.run(
            [sys.executable, str(path), *flags, "--out", str(tmp_path / "pv.csv")],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == code and result.stdout == ""
        assert "Traceback" not in result.stderr
        [line] = [line for line in result.stderr.splitlines() if "error:" in line]
        assert message in line
        assert not (tmp_path / "pv.csv").exists()

    def test_unwritable_out_is_one_error_line(self, tmp_path):
        path = Path(__file__).resolve().parents[1] / "scripts" / "pv_sweep.py"
        out = tmp_path / "missing" / "pv.csv"
        result = subprocess.run(
            [sys.executable, str(path), "--irradiance", "200", "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 3 and "Traceback" not in result.stderr
        [line] = result.stderr.splitlines()
        assert line.startswith("error: FileNotFoundError: ")


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
            BoostParams(L=0.0, C=1e-3, R=10.0, Ts=1e-5, duty=0.5)
        with pytest.raises(InvariantViolation):
            BoostParams(L=1e-3, C=1e-3, R=10.0, Ts=1e-5, duty=1.0)


def channel_block(p):
    """The plant's converter rows [xs1, xs2], driven by the solar control us."""
    return plant_block(assemble_plant(SystemParams(solar=p)), ("xs1", "xs2"), ("us",))


class TestChannel:
    def test_converter_poles(self):
        m = channel_block(SolarChannelParams())
        lam = sorted(eigenvalues(m.a).real, reverse=True)
        assert lam == pytest.approx(
            [-0.5025253169416715, -99.49747468305833], abs=1e-9
        )

    def test_dc_gain_through_channel(self):
        p = SolarChannelParams()
        m = channel_block(p)
        x = steady_state(m, controls={"us": 1.0})
        assert output_map(SystemParams(solar=p)).wu[1, US] == 0.0  # no feedthrough
        assert x[1] == pytest.approx(tf_dc_gain((p.gbc_num, p.gbc_den)), abs=1e-9)
        assert p.Kgs * x[1] == pytest.approx(3.6, abs=1e-9)

    def test_disturbance_mirrors_control(self):
        m = build_solar_subsystem(SolarChannelParams())
        np.testing.assert_array_equal(m.b, m.g)
        assert m.control_labels == ("us",)
        assert m.disturbance_labels == ("dPis",)

    def test_default_block_strictly_proper(self):
        p = SolarChannelParams()
        assert (p.gbc_num, p.gbc_den) == ((900.0, -18.0), (50.0, 100.0, 1.0))
        assert assemble_plant(SystemParams(solar=p)).b[0, US] == 0.0

    def test_feedthrough_block(self):
        # (s^2 + 2s + 2)/(s^2 + s + 1) = 1 + (s + 1)/(s^2 + s + 1): unit
        # feedthrough, DC gain 2
        p = SolarChannelParams(gbc_num=(2.0, 2.0, 1.0), gbc_den=(1.0, 1.0, 1.0))
        m = channel_block(p)
        d = output_map(SystemParams(solar=p)).wu[1, US] / p.Kgs
        assert d == 1.0
        x = steady_state(m, controls={"us": 1.0})
        assert p.Kgs * (x[1] + d) == pytest.approx(p.Kgs * 2.0, abs=1e-12)

    @pytest.mark.parametrize(
        "num, den",
        [
            ([900.0, -18.0], [50.0, 100.0, 1.0]),  # strictly proper, the default
            ([0.3], [0.7, 3.0, 2.0]),
            ([2.0, 1.0, 4.0], [1.0, 1.0, 2.0]),  # biproper
            ([3.0, -1.0, 0.7], [2.0, 5.0, 3.0]),  # biproper, lead coefficient 3
        ],
    )
    def test_feedthrough_bit_equal_to_realization(self, num, den):
        p = SystemParams(solar=SolarChannelParams(gbc_num=num, gbc_den=den))
        # num = d*den + remainder on the coefficients scaled by den's lead
        scaled = [c / den[-1] for c in num] + [0.0] * (3 - len(num))
        kgs, kp_tp = p.solar.Kgs, p.Kp / p.Tp
        assert tf_to_ss((num, den))[1] == scaled[2]
        assert output_map(p).wu[1, US] == kgs * scaled[2]
        assert assemble_plant(p).b[0, US] == kp_tp * kgs * scaled[2]

    def test_validate_rejects_improper_block(self):
        # a biproper block (equal degrees) is allowed, a higher numerator is not
        assert SolarChannelParams(gbc_num=(1.0, 1.0, 1.0)).gbc_num == (1.0, 1.0, 1.0)
        with pytest.raises(InvariantViolation, match="^solar.gbc must be a proper"):
            SolarChannelParams(gbc_num=(0.0, 0.0, 0.0, 1.0))
