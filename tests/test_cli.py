import random
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridlfc.assembly import build_closed_loop, output_map
from hybridlfc.cli import CSV_BLOCK, csv_blocks, main
from hybridlfc.config import DEFAULTS, parse_config
from hybridlfc.engine import integrate
from hybridlfc.solar import (
    open_circuit_voltage,
    pv_curve,
    solve_pv_current,
    voltage_grid_points,
)
from hybridlfc.tuning import tune_gains
from reference import dp_dv, golden_mpp, ise

SHORT_SIM = "scenario.t_end = 1.0\nscenario.dt = 0.01\n"
STABLE_GAINS = (
    "gains.Kdp = 10.0\ngains.Kdi = 5.0\ngains.Kpp = 10.0\n"
    "gains.Kpi = 5.0\ngains.Ksp = 10.0\ngains.Ksi = 5.0\n"
)

EXPECTED_HEADER = (
    "t,dFs,dFt,dPgd,dXED11,dXED21,dPcw,dPC1,dPC2,xs1,xs2,iFs,iFt,dPgw,dPgs,dP1"
)


def run_cli(capsys, tmp_path, command, config_text=None, extra=()):
    argv = ["--command", command]
    if config_text is not None:
        path = tmp_path / "case.conf"
        path.write_text(config_text)
        argv += ["--config", str(path)]
    argv += list(extra)
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def per_value_csv(data):
    return [",".join(f"{x:.8e}" for x in row) for row in data]


class TestCsvRows:
    EDGES = [
        -0.0,
        0.0,
        5e-324,
        -5e-324,
        1e-320,
        2.2250738585072014e-308,
        1.7976931348623157e308,
        -1.7976931348623157e308,
        9.9999999996e-3,  # rounds up into the next decade
        -9.9999999996e-3,
        9.99999999995e2,
        0.1,
        -2.5e-7,
        123456789.0,
        1.0,
        -1e300,
    ]

    def test_edge_values_match_per_value_format(self):
        data = np.array(self.EDGES).reshape(4, 4)
        assert "\n".join(csv_blocks(data)) == "\n".join(per_value_csv(data))
        assert "\n".join(csv_blocks(data.T)) == "\n".join(per_value_csv(data.T))

    def test_random_magnitudes_match_per_value_format(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((50, 16)) * 10.0 ** rng.integers(-310, 308, (50, 16))
        assert "\n".join(csv_blocks(data)) == "\n".join(per_value_csv(data))

    def test_blocks_join_to_every_row(self):
        rng = np.random.default_rng(6)
        rows = 2 * CSV_BLOCK + 1
        data = rng.standard_normal((rows, 2)) * 10.0 ** rng.integers(-30, 30, (rows, 2))
        flags = rng.integers(0, 2, rows)
        blocks = list(csv_blocks(data, flags=flags))
        assert len(blocks) == 3
        lines = [f"{line},{flag}" for line, flag in zip(per_value_csv(data), flags)]
        assert "\n".join(blocks) == "\n".join(lines)

    # any 64-bit pattern (subnormals, nan and inf among them), signed zeros,
    # the powers of ten 1e-320 ... 1e308 and their neighbours, where log10
    # can put the exponent one off, mantissas exactly half-way between two
    # 9-digit ones, and mantissas that round up to 1e9
    DOUBLES = st.one_of(
        st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0]),
        st.sampled_from([0.0, -0.0]),
        st.integers(-320, 308).map(lambda k: float(f"1e{k}")),
        st.builds(
            lambda k, toward: float(np.nextafter(float(f"1e{k}"), toward)),
            st.integers(-320, 308),
            st.sampled_from([0.0, np.inf]),
        ),
        st.builds(
            lambda n, k, sign: sign * (n + 0.5) * 10.0**k,
            st.integers(10**8, 10**9 - 1),
            st.integers(0, 6),
            st.sampled_from([1.0, -1.0]),
        ),
        st.builds(lambda k: 0.5 * 10.0**k, st.integers(0, 22)),
        st.builds(
            lambda tail, k: float(f"9.99999999{tail}e{k}"), st.integers(50, 99), st.integers(-320, 307)
        ),
    )

    @given(st.lists(DOUBLES, min_size=1, max_size=40))
    @settings(max_examples=300)
    def test_matches_percent_format(self, values):
        cells = ["%.8e" % x for x in values]
        assert list(csv_blocks(np.array([values]))) == [",".join(cells)]
        assert list(csv_blocks(np.array(values)[:, None])) == ["\n".join(cells)]

    def test_simulate_output_matches_per_value_format(self, capsys, tmp_path):
        # quiet all-zero rows up to the 0.5 s onset, then a response
        text = SHORT_SIM + STABLE_GAINS + "scenario.dPl = 0.01\nscenario.dPl_onset = 0.5\n"
        code, out, _ = run_cli(capsys, tmp_path, "simulate", text)
        assert code == 0

        cfg = parse_config(text)
        model = build_closed_loop(cfg.system, cfg.gains)
        outs = output_map(cfg.system, cfg.gains)
        trace = integrate(model, cfg.scenario, outputs=outs)
        data = np.column_stack(
            [trace.times, trace.states] + [trace.outputs[lbl] for lbl in outs.labels]
        )
        assert not data[1:40, 1:].any() and data[-1, 1:].any()
        assert out == "\n".join([EXPECTED_HEADER] + per_value_csv(data)) + "\n"


class TestSimulate:
    def test_header_and_grid(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, tmp_path, "simulate", SHORT_SIM)
        assert code == 0 and err == ""
        lines = out.strip().splitlines()
        assert lines[0] == EXPECTED_HEADER
        assert len(lines) == 1 + 101  # header plus t = 0 .. 1.0 by 0.01
        first = [float(x) for x in lines[1].split(",")]
        assert first == [0.0] * 16

    def test_rest_state_stays_at_zero(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, tmp_path, "simulate", SHORT_SIM)
        assert code == 0
        last = [float(x) for x in out.strip().splitlines()[-1].split(",")]
        assert last[0] == pytest.approx(1.0)
        assert all(x == 0.0 for x in last[1:])

    def test_load_step_pulls_frequency_down(self, capsys, tmp_path):
        text = SHORT_SIM + STABLE_GAINS + "scenario.dPl = 0.01\n"
        code, out, _ = run_cli(capsys, tmp_path, "simulate", text)
        assert code == 0
        lines = out.strip().splitlines()
        cols = lines[0].split(",")
        dfs = [float(r.split(",")[cols.index("dFs")]) for r in lines[1:]]
        assert min(dfs) < 0.0
        dp1 = [float(r.split(",")[cols.index("dP1")]) for r in lines[1:]]
        assert dp1[1] < 0.0  # generation lags the step at first

    def test_stdout_and_out_file_get_the_same_bytes(self, capsys, tmp_path):
        # 5 001 rows: two CSV blocks, each written as it is formatted
        text = "scenario.t_end = 50\nscenario.dt = 0.01\n" + STABLE_GAINS + "scenario.dPl = 0.01\n"
        code, out, err = run_cli(capsys, tmp_path, "simulate", text)
        assert code == 0 and err == ""
        assert out.count("\n") == 1 + 5001 > 1 + CSV_BLOCK
        path = tmp_path / "trace.csv"
        code, out_again, _ = run_cli(capsys, tmp_path, "simulate", text, ["--out", str(path)])
        assert code == 0 and out_again == ""
        assert path.read_bytes() == out.encode("ascii")

    def test_traced_peak_of_a_long_run_stays_near_the_states(self, tmp_path):
        # 60 001 rows with the acceptance gains: the text is made and written
        # one CSV block at a time, so beside the trace (states, times and
        # derived outputs) the peak holds one block, not the whole file
        path = tmp_path / "case.conf"
        path.write_text(
            "gains.Kdp = 85.5\ngains.Kdi = 35.0\ngains.Kpp = 100.0\n"
            "gains.Kpi = 43.0\ngains.Ksp = 10.5\ngains.Ksi = 0.5\n"
            "scenario.dPl = 0.01\nscenario.dPl_onset = 1.0\n"
            "scenario.dPiw = 0.005\nscenario.dPiw_onset = 20.0\n"
        )
        argv = ["--command", "simulate", "--config", str(path), "--out", str(tmp_path / "long.csv")]
        main(argv)  # first use builds `csv_blocks`'s tables, which stay
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert code == 0
        states = 60_001 * 12 * 8
        assert (tmp_path / "long.csv").read_text().count("\n") == 1 + 60_001
        assert peak < 3 * states


class TestSteady:
    def test_droop_frequency_line(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, tmp_path, "steady", "scenario.dPl = 0.01\n")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 10
        assert lines[0] == "dFs = -0.017273"

    def test_solar_override_decouples_channel(self, capsys, tmp_path):
        text = "scenario.us = 1.0\n"
        _, out_on, _ = run_cli(capsys, tmp_path, "steady", text)
        code, out_off, _ = run_cli(
            capsys, tmp_path, "steady", text + "system.include_solar = false\n"
        )
        assert code == 0

        def dfs(payload):
            return float(payload.splitlines()[0].split("=")[1])

        def xs2(payload):
            line = next(l for l in payload.splitlines() if l.startswith("xs2"))
            return float(line.split("=")[1])

        assert dfs(out_on) != 0.0
        assert dfs(out_off) == 0.0
        # the channel states still integrate the control either way
        assert xs2(out_on) == pytest.approx(18.0, abs=1e-5)
        assert xs2(out_off) == pytest.approx(18.0, abs=1e-5)


class TestEigen:
    def test_unregulated_loop_flagged_unstable(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, tmp_path, "eigen")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "re,im"
        assert len(lines) == 1 + 12 + 1
        assert lines[-1] == "verdict,UNSTABLE"

    def test_regulated_loop_flagged_stable(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, tmp_path, "eigen", STABLE_GAINS)
        assert code == 0
        assert out.strip().splitlines()[-1] == "verdict,STABLE"


class TestTune:
    def test_fragment_round_trips(self, capsys, tmp_path):
        base = "tune.budget = 40\ntune.t_end = 10.0\ntune.dt = 0.01\n"
        out_path = tmp_path / "gains.conf"
        code, out, _ = run_cli(
            capsys, tmp_path, "tune", base, extra=["--out", str(out_path)]
        )
        assert code == 0 and out == ""
        fragment = out_path.read_text()
        lines = fragment.strip().splitlines()
        assert len(lines) == 7
        assert lines[-1].startswith("# eta = ")
        eta_reported = float(lines[-1].split("=")[1])

        # feeding the emitted gains back through the config reproduces the
        # reported index exactly
        cfg = parse_config(base + fragment)
        model = build_closed_loop(cfg.system, cfg.gains)
        replay = ise(
            integrate(model, cfg.tune.scenario()), include_ft=cfg.tune.eta_include_ft
        )
        assert replay == pytest.approx(eta_reported, rel=1e-12)

    def test_stdout_fragment_holds_plain_numbers(self, capsys, tmp_path):
        base = "tune.budget = 20\ntune.t_end = 5.0\ntune.dt = 0.01\n"
        code, out, err = run_cli(capsys, tmp_path, "tune", base)
        assert code == 0 and err == ""
        *gain_lines, eta_line = out.strip().splitlines()
        cfg = parse_config(base)
        gains, eta = tune_gains(cfg.system, cfg.tune)
        assert type(eta) is float
        # the gain lines parse back to the tuned gains, bit for bit
        assert parse_config("\n".join(gain_lines)).gains == gains
        assert eta_line.startswith("# eta = ")
        assert float(eta_line[len("# eta = "):]) == eta


class TestPvCurve:
    def test_single_marked_maximum(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, tmp_path, "pvcurve")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "V,I,P,mpp"
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        flags = [int(r[3]) for r in rows]
        assert sum(flags) == 1
        marked = rows[flags.index(1)]
        assert marked[2] >= max(r[2] for r in rows) - 1e-12
        volts = [r[0] for r in rows]
        assert volts == sorted(volts)
        # columns are serialized at 8 significant digits
        assert all(abs(r[0] * r[1] - r[2]) < 1e-6 for r in rows)


def two_pass_pvcurve(p, v_step, mpp):
    """pvcurve lines built apart from the CLI: every grid voltage solved on
    its own for the rows, then the maximum power point (vm, im, pm) flagged
    on the grid row at exactly vm or inserted in voltage order."""
    voc = open_circuit_voltage(p)
    grid = [i * v_step for i in range(voltage_grid_points(voc, v_step))]
    rows = [[v, i, v * i, 0] for v, i in ((v, solve_pv_current(p, v)) for v in grid)]

    vm, im, pm = mpp
    at = next((j for j, row in enumerate(rows) if row[0] >= vm), len(rows))
    if at < len(rows) and rows[at][0] == vm:
        rows[at][3] = 1
    else:
        rows.insert(at, [vm, im, pm, 1])
    return ["V,I,P,mpp"] + [f"{v:.8e},{i:.8e},{w:.8e},{flag}" for v, i, w, flag in rows]


class TestPvCurveOutput:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "pv.lambda = 0\n",
            "pv.Rs = 0\n",
            "pv.T = 75\npv.lambda = 640\n",
            "pv.lambda = 150\npv.v_step = 0.003\n",
            "pv.Rs = 2\n",
            "pv.Rs = 5\n",
            "pv.Rs = 50\n",
            "pv.T = -270\n",
            "pv.KI = 0.1\npv.T = -100\n",
            # Voc = 1.3e-21 V and 1.3e-301 V: the maximum power point takes a
            # row of its own between V = 0 and Voc
            "pv.Isat = 1e20\n",
            "pv.Isat = 1e300\n",
        ],
        ids=[
            "nominal", "dark", "Rs0", "hot", "low", "Rs2", "Rs5", "Rs50", "cold", "negative_iph",
            "Isat1e20", "Isat1e300",
        ],
    )
    def test_matches_two_pass_reference(self, capsys, tmp_path, text):
        code, out, err = run_cli(capsys, tmp_path, "pvcurve", text)
        assert code == 0 and err == ""
        cfg = parse_config(text)
        mpp = vm, im, pm = pv_curve(cfg.pv, cfg.pv_v_step)[2]
        assert out == "\n".join(two_pass_pvcurve(cfg.pv, cfg.pv_v_step, mpp)) + "\n"
        # never below the golden-section point, which is 1e-6 V wide
        gv, _, gp = golden_mpp(cfg.pv, cfg.pv_v_step)
        assert pm >= gp * (1.0 - 1e-13)
        assert abs(vm - gv) <= 1e-6
        assert abs(dp_dv(cfg.pv, vm, im)) <= 1e-13 * im

    def test_fine_grid_matches_two_pass_reference(self, capsys, tmp_path):
        text = "pv.v_step = 1e-5\n"
        code, out, err = run_cli(capsys, tmp_path, "pvcurve", text)
        assert code == 0 and err == ""
        cfg = parse_config(text)
        lines = two_pass_pvcurve(cfg.pv, cfg.pv_v_step, pv_curve(cfg.pv, cfg.pv_v_step)[2])
        # the header, 69 405 grid rows and the maximum power point between two
        assert len(lines) == 1 + 69_405 + 1
        assert out == "\n".join(lines) + "\n"


class TestFailureModes:
    def test_unknown_key_is_config_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, tmp_path, "eigen", "bogus.key = 1.0\n")
        assert code == 2
        assert err.startswith("error: UnknownKey: line 1")

    def test_constraint_breach_is_config_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, tmp_path, "eigen", "diesel.Td3 = 2.0\n")
        assert code == 2
        assert err.startswith("error: InvariantViolation:")

    def test_non_finite_value_is_config_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, tmp_path, "steady", "system.Kp = inf\n")
        assert code == 2 and out == ""
        assert err.startswith("error: InvalidValue: line 1:")
        assert len(err.splitlines()) == 1

    def test_undecodable_config_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_bytes(b"system.Kp = 72.0\n\xff\xfe\n")
        code = main(["--command", "eigen", "--config", str(path)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: InvalidValue: config is not valid UTF-8: byte 0xff at offset 17\n"

    def test_line_endings_read_as_in_text_mode(self, capsys, tmp_path):
        # the config is decoded from bytes; \r\n and \r still end lines
        want = run_cli(capsys, tmp_path, "steady", "system.Kp = 50\nscenario.dPl = 0.02\n")
        path = tmp_path / "crlf.conf"
        path.write_bytes(b"system.Kp = 50\r\nscenario.dPl = 0.02\r")
        code = main(["--command", "steady", "--config", str(path)])
        assert (code, *capsys.readouterr()) == want

    @pytest.mark.parametrize("command", ["eigen", "steady", "tune"])
    @pytest.mark.parametrize(
        "line", ["system.Tp = 1e-320", "diesel.Td3 = 1e-310"], ids=["tiny_Tp", "tiny_Td3"]
    )
    def test_overflowing_plant_is_numeric_error(self, capsys, tmp_path, command, line):
        code, out, err = run_cli(capsys, tmp_path, command, line + "\n")
        assert code == 3 and out == ""
        assert err.startswith("error: NonFiniteState:")
        assert len(err.splitlines()) == 1

    # a tiny Kp/Tp keeps the plant finite while Kgs times the converter's
    # feedthrough d, or that times a solar gain, overflows a read-out weight
    OVERFLOWING_WEIGHTS = {
        "feedthrough": "solar.gbc_num = 3.0, -1.0, 1e10\n",
        "folded_feedback": "solar.gbc_num = 3.0, -1.0, 0.7\ngains.Ksp = 1e10\n",
    }

    @pytest.mark.parametrize("case", list(OVERFLOWING_WEIGHTS))
    def test_overflowing_output_weights_are_numeric_error(self, capsys, tmp_path, case):
        text = (
            "system.Kp = 1e-320\nsystem.Tp = 1\nsolar.Kgs = 1e300\n"
            "solar.gbc_den = 2.0, 5.0, 3.0\nscenario.t_end = 1\nscenario.dt = 0.01\n"
            "scenario.dPl = 0.01\n" + self.OVERFLOWING_WEIGHTS[case]
        )
        code, out, err = run_cli(capsys, tmp_path, "simulate", text)
        assert (code, out, err) == (3, "", "error: NonFiniteState: output map weights are not finite\n")

    @pytest.mark.parametrize("tp", ["1e-40", "1e-300"])
    def test_far_too_fast_plant_is_step_error(self, capsys, tmp_path, tp):
        # the fastest mode is so far outside the RK4 stability region that
        # |R(lambda*dt)| overflows; that still reads as an unstable step
        text = f"system.Tp = {tp}\nscenario.t_end = 1.0\n"
        code, out, err = run_cli(capsys, tmp_path, "simulate", text)
        assert code == 4 and out == ""
        assert err.startswith("error: UnstableStepSize:")
        assert len(err.splitlines()) == 1

    def test_overflow_mid_run_writes_nothing(self, capsys, tmp_path):
        # Kdi < 0 makes a growing mode that the step guard, which checks only
        # decaying ones, lets through; it overflows long before t = 600 s
        text = "gains.Kdi = -50\nscenario.t_end = 600\nscenario.dt = 0.01\nscenario.dPl = 0.01\n"
        path = tmp_path / "trace.csv"
        for extra in ([], ["--out", str(path)]):
            code, out, err = run_cli(capsys, tmp_path, "simulate", text, extra)
            assert code == 3 and out == ""
            assert err.startswith("error: NonFiniteState:")
            assert len(err.splitlines()) == 1
        assert not path.exists()

    def test_missing_config_file(self, capsys, tmp_path):
        code = main(["--command", "eigen", "--config", str(tmp_path / "absent.conf")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: FileNotFoundError:")

    def test_oversized_step_rejected(self, capsys, tmp_path):
        text = "scenario.dt = 0.05\nscenario.t_end = 10.0\n"
        code, _, err = run_cli(capsys, tmp_path, "simulate", text)
        assert code == 4
        assert err.startswith("error: UnstableStepSize:")

    def test_step_near_the_edge_runs_silently(self, tmp_path):
        # the fastest default closed-loop mode is -99.5, so |lambda|*dt = 2.59,
        # inside the RK4 stability edge at 2.785; in a child process, so that
        # a printed warning would reach stderr
        path = tmp_path / "case.conf"
        path.write_text("scenario.dt = 0.026\nscenario.t_end = 1.0\n")
        result = subprocess.run(
            [sys.executable, "-m", "hybridlfc", "--command", "simulate", "--config", str(path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0 and result.stderr == ""
        assert len(result.stdout.splitlines()) == 40

    def test_hopeless_tuning_box(self, capsys, tmp_path):
        pinned = "".join(
            f"tune.{n}_min = 0.0\ntune.{n}_max = 0.0\n"
            for n in ("Kdp", "Kdi", "Kpp", "Kpi", "Ksp", "Ksi")
        )
        code, _, err = run_cli(capsys, tmp_path, "tune", pinned + "tune.budget = 5\n")
        assert code == 3
        assert err.startswith("error: NoStableGainsFound:")

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("simulate", "scenario.dt = 1e-300\n", "scenario has 6e+301 rows, above the cap"),
            ("simulate", "scenario.t_end = 1e9\n", "scenario has 1e+12 rows, above the cap"),
            ("simulate", "scenario.t_end = 1e300\nscenario.dt = 1e-10\n", "overflows"),
            ("tune", "tune.t_end = 1e300\ntune.dt = 1e-10\n", "tune.t_end / tune.dt overflows"),
            ("pvcurve", "pv.v_step = 1e-12\n", "voltage grid of 6.94e+11 points"),
        ],
        ids=["tiny_dt", "long_t_end", "overflowing_rows", "overflowing_tune_rows", "tiny_v_step"],
    )
    def test_oversized_work_rejected_before_allocating(self, tmp_path, command, text, message):
        # in a child process, so an unbounded run fails on the timeout
        # instead of holding the suite
        path = tmp_path / "case.conf"
        path.write_text(text)
        result = subprocess.run(
            [sys.executable, "-m", "hybridlfc", "--command", command, "--config", str(path)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.startswith("error: InvariantViolation: ")
        assert message in result.stderr
        assert len(result.stderr.splitlines()) == 1

    def test_temperature_below_absolute_zero(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, tmp_path, "pvcurve", "pv.T = -400\n")
        assert code == 2 and out == ""
        assert err.startswith("error: InvariantViolation: pv.T must be above absolute zero")
        assert len(err.splitlines()) == 1

    def test_thermal_voltage_underflow(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, tmp_path, "pvcurve", "pv.Aq = 5e-324\n")
        assert code == 2 and out == ""
        assert err.startswith("error: InvariantViolation: pv.Aq*(pv.T + 273.15) underflows")
        assert len(err.splitlines()) == 1

    def test_overflowing_series_drop_is_numeric_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, tmp_path, "pvcurve", "pv.Rs = 1e307\n")
        assert code == 3 and out == ""
        assert err.startswith("error: NoConvergence: series-resistance drop")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "command, text, line",
        [
            # the equilibrium overflows although A is well conditioned
            (
                "steady",
                "diesel.Td3 = 1e-10\nscenario.dPiw = 1e300\n",
                "error: NonFiniteState: equilibrium state is not finite\n",
            ),
            # so does G p, one key above the gate's 1e300
            (
                "steady",
                "scenario.dPl = 1.7e308\n",
                "error: NonFiniteState: equilibrium state is not finite\n",
            ),
            # Ahat = Abar + Bbar H overflows in the matmul
            (
                "eigen",
                "gains.Kdi = -1e300\ndiesel.Td2 = 1e-10\n",
                "error: NonFiniteState: closed-loop state matrix is not finite\n",
            ),
            # the tuner costs each overflowing candidate as unstable and
            # finishes its search, whose steps shrink away after 95 candidates
            (
                "tune",
                "diesel.Td3 = 1e-300\nwind.Kp2 = 1e10\ntune.Kpp_min = -1e300\n",
                "error: NoStableGainsFound: no stable gain set found within 95 evaluations\n",
            ),
            # every gain pinned at an unstable set, whose index overflows
            # over 600 s before the screen refuses it: the one candidate
            # the box holds is the only one costed
            (
                "tune",
                "".join(
                    f"tune.{n}_min = {v}\ntune.{n}_max = {v}\n"
                    for n, v in zip(
                        ("Kdp", "Kdi", "Kpp", "Kpi", "Ksp", "Ksi"), (0.5, -50, 0.5, 0.5, 0.5, 0.5)
                    )
                )
                + "tune.t_end = 600\n",
                "error: NoStableGainsFound: no stable gain set found within 1 evaluation\n",
            ),
        ],
        ids=[
            "steady_overflow",
            "steady_input_overflow",
            "closed_loop_overflow",
            "tune_candidate_overflow",
            "tune_index_overflow",
        ],
    )
    def test_overflow_gives_one_error_line(self, capsys, tmp_path, command, text, line):
        code, out, err = run_cli(capsys, tmp_path, command, text)
        assert code == 3 and out == ""
        assert err == line

    def test_unknown_command_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["--command", "explode"])

    @pytest.mark.parametrize("command", ["eigen", "steady", "simulate", "tune"])
    @pytest.mark.parametrize(
        "den, degree", [("2.0, 1.0", 1), ("1.0, 2.0, 3.0, 1.0", 3)], ids=["first", "third"]
    )
    def test_converter_block_must_be_second_order(self, capsys, tmp_path, command, den, degree):
        # the plant has exactly the two channel states xs1 and xs2
        text = SHORT_SIM + f"solar.gbc_den = {den}\n"
        code, out, err = run_cli(capsys, tmp_path, command, text)
        assert code == 2 and out == ""
        assert err == (
            f"error: InvariantViolation: solar.gbc_den must be second order, got degree {degree}\n"
        )


class TestParserReuse:
    """`main` builds its parser once per process; a later call must not
    see anything of an earlier one."""

    TEXT = "scenario.dPl = 0.01\nscenario.dPis = 0.01\n"

    def fresh_process(self, path):
        result = subprocess.run(
            [sys.executable, "-m", "hybridlfc", "--command", "steady", "--config", str(path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0 and result.stderr == ""
        return result.stdout

    def test_later_call_matches_fresh_process(self, capsys, tmp_path):
        path = tmp_path / "case.conf"
        path.write_text(self.TEXT)
        fresh = self.fresh_process(path)
        steady = ["--command", "steady", "--config", str(path)]

        out = tmp_path / "steady.txt"
        assert main([*steady, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(steady) == 0
        assert capsys.readouterr().out == fresh
        assert out.read_text() == fresh

    def test_include_solar_is_a_config_key_only(self, capsys):
        # system.include_solar has one spelling; the old flag is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["--command", "steady", "--include-solar", "false"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --include-solar false" in capsys.readouterr().err

    def test_unknown_command_exits_2_on_every_call(self, capsys, tmp_path):
        for _ in range(3):
            with pytest.raises(SystemExit) as exc:
                main(["--command", "explode"])
            assert exc.value.code == 2
            assert "invalid choice: 'explode'" in capsys.readouterr().err
            assert main(["--command", "eigen"]) == 0
            assert capsys.readouterr().out.endswith("verdict,UNSTABLE\n")


class TestContractGate:
    """Every real and coefficient-list key, set to each edge value, under
    every command ends in one of two ways: exit 0 with only finite numbers
    on stdout, or exit 2, 3 or 4 with one `error: <Class>: <msg>` line on
    stderr and nothing on stdout. An exit-0 `pvcurve` also flags one
    maximum power point inside [0, Voc] that no grid row beats. Runs
    in-process, so an escaping exception (a numpy RuntimeWarning made an
    error, say) is a violation."""

    BASE = "scenario.t_end = 2\ntune.budget = 20\n"
    VALUES = ("0", "-1", "1e300", "-1e300", "1e-300", "nan", "inf", "-inf")
    KEYS = [key for key, default in DEFAULTS.items() if isinstance(default, (float, tuple))]
    ERROR_LINE = re.compile(r"error: [A-Za-z]+: [^\n]*\n")
    NON_FINITE = re.compile(r"nan|inf", re.IGNORECASE)

    def violation(self, capsys, path, command):
        try:
            code = main(["--command", command, "--config", str(path)])
        except Exception as exc:
            return f"raised {type(exc).__name__}: {exc}"
        out, err = capsys.readouterr()
        if code == 0:
            if not out or err or self.NON_FINITE.search(out):
                return f"exit 0 with stdout {out[:80]!r}, stderr {err!r}"
            if command == "pvcurve":
                return self.mpp_violation(parse_config(path.read_text()).pv, out)
        elif code not in (2, 3, 4) or out or not self.ERROR_LINE.fullmatch(err):
            return f"exit {code} with stdout {out[:80]!r}, stderr {err!r}"
        return None

    @staticmethod
    def mpp_violation(p, out):
        """One flagged row, with 0 <= V <= Voc, P >= 0 and P at least the
        best grid power, each as printed to 8 significant digits."""
        rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[1:]]
        flagged = [row for row in rows if row[3] == 1]
        if len(flagged) != 1:
            return f"{len(flagged)} rows flagged as the maximum power point"
        v, _, w, _ = flagged[0]
        best = max(row[2] for row in rows)
        if not 0.0 <= v <= float(f"{open_circuit_voltage(p):.8e}") or not w >= 0.0:
            return f"maximum power point V = {v}, P = {w} outside [0, Voc] x [0, inf)"
        if w < best - 1e-8 * abs(best):
            return f"maximum power point P = {w} below the grid's {best}"
        return None

    @pytest.mark.parametrize("command", ["simulate", "steady", "eigen", "tune", "pvcurve"])
    def test_every_key_at_every_edge(self, capsys, tmp_path, command):
        path = tmp_path / "case.conf"
        found = []
        for key in self.KEYS:
            width = len(DEFAULTS[key]) if isinstance(DEFAULTS[key], tuple) else 1
            for value in self.VALUES:
                path.write_text(f"{self.BASE}{key} = {', '.join([value] * width)}\n")
                problem = self.violation(capsys, path, command)
                if problem:
                    found.append(f"{key} = {value}: {problem}")
        assert not found, "\n".join(found)

    # a breach that needs two extreme keys at once passes the one-key
    # sweep, and most field faults involve one or two interacting
    # parameters (Kuhn, Wallace & Gallo, IEEE TSE 30, 2004). Each config
    # sets 2-3 keys: with many set, nearly every config would stop at an
    # exit-2 check first. Every other one sets a scenario or control key,
    # since each stretch's forcing scales with those inputs
    PAIR_VALUES = VALUES + ("1e10", "1e-10", "1e20")
    INPUT_KEYS = [key for key in KEYS if key.startswith("scenario.")]

    def test_two_or_three_keys_at_the_edges(self, capsys, tmp_path):
        rng = random.Random(1104)
        path = tmp_path / "case.conf"
        found = []
        for i in range(520):
            keys = rng.sample(self.KEYS, rng.randint(2, 3))
            if i % 2 and not set(keys) & set(self.INPUT_KEYS):
                keys[0] = rng.choice(self.INPUT_KEYS)
            text = ""
            for key in keys:
                width = len(DEFAULTS[key]) if isinstance(DEFAULTS[key], tuple) else 1
                text += f"{key} = {', '.join([rng.choice(self.PAIR_VALUES)] * width)}\n"
            path.write_text(self.BASE + text)
            for command in ("simulate", "steady", "eigen", "tune", "pvcurve"):
                problem = self.violation(capsys, path, command)
                if problem:
                    found.append(f"{text!r} under {command}: {problem}")
        assert not found, "\n".join(found)


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "hybridlfc", "--command", "eigen"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert result.stdout.strip().endswith("verdict,UNSTABLE")


@pytest.mark.parametrize(
    "script, flags, command, config_text, out, code, error",
    [
        ("pv_sweep.py", ["--irradiance", "-5"], "pvcurve", "pv.lambda = -5\n", "x.csv", 2,
         "InvariantViolation"),
        ("pv_sweep.py", ["--irradiance", "200,-5"], "pvcurve", "pv.lambda = -5\n", "x.csv", 2,
         "InvariantViolation"),
        ("step_response.py", ["--config", "{config}"], "simulate",
         "scenario.t_end = 2\nscenario.dt = 0.05\ntune.t_end = 2\ntune.dt = 0.05\n", "x.csv", 4,
         "UnstableStepSize"),
        ("pv_sweep.py", ["--irradiance", "200"], "pvcurve", None, "missing/x.csv", 3,
         "FileNotFoundError"),
        ("step_response.py", ["--config", "{config}"], "simulate", SHORT_SIM + "tune.t_end = 2\n",
         "missing/x.csv", 3, "FileNotFoundError"),
        ("step_response.py", ["--config", "{config}"], "simulate", "tune.dt = 0\n", "x.csv", 2,
         "InvariantViolation: tune.dt must be > 0"),
    ],
    ids=["config", "second_level", "step_size", "pv_sweep_out", "step_response_out", "tune_dt_0"],
)
def test_scripts_exit_with_the_cli_codes(
    capsys, tmp_path, script, flags, command, config_text, out, code, error
):
    # one rule, errors.report: a script exits with the code that the CLI
    # returns for the same error class, after the same one error line and
    # with nothing on stdout, also when the error comes after a level or a
    # trace that succeeded; step_response.py reads the config that the CLI
    # reads
    out = str(tmp_path / out)
    config = tmp_path / "study.conf"
    config.write_text(config_text or "")
    path = Path(__file__).resolve().parents[1] / "scripts" / script
    result = subprocess.run(
        [sys.executable, str(path), *(f.format(config=config) for f in flags), "--out", out],
        capture_output=True,
        text=True,
        timeout=120,
    )
    cli_code, cli_out, cli_err = run_cli(capsys, tmp_path, command, config_text, ["--out", out])
    assert result.returncode == cli_code == code
    assert result.stdout == cli_out == ""
    [line] = result.stderr.splitlines()
    assert line.startswith(f"error: {error}") and result.stderr == cli_err
