import re
import subprocess
import sys

import numpy as np
import pytest

from hybridlfc.assembly import build_closed_loop, output_map
from hybridlfc.cli import _csv_rows, main
from hybridlfc.config import DEFAULTS, parse_config
from hybridlfc.engine import integrate, ise
from hybridlfc.solar import (
    _golden_max,
    open_circuit_voltage,
    solve_pv_current,
    voltage_grid_points,
)
from hybridlfc.tuning import tune_gains

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
        assert _csv_rows(data) == per_value_csv(data)
        assert _csv_rows(data.T) == per_value_csv(data.T)

    def test_random_magnitudes_match_per_value_format(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((50, 16)) * 10.0 ** rng.integers(-310, 308, (50, 16))
        assert _csv_rows(data) == per_value_csv(data)

    def test_simulate_output_matches_per_value_format(self, capsys, tmp_path):
        # quiet all-zero rows up to the 0.5 s onset, then a response
        text = SHORT_SIM + STABLE_GAINS + "scenario.dPl = 0.01\nscenario.dPl_onset = 0.5\n"
        code, out, _ = run_cli(capsys, tmp_path, "simulate", text)
        assert code == 0

        cfg = parse_config(text)
        model = build_closed_loop(cfg.system, cfg.gains)
        outs = output_map(cfg.system)
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
            capsys, tmp_path, "steady", text, extra=["--include-solar", "false"]
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


def two_pass_pvcurve(p, v_step):
    """pvcurve lines computed the former way: solve every grid voltage for
    the rows, then scan and solve the grid again for the maximum power
    point and refine it by golden-section search."""
    voc = open_circuit_voltage(p)
    grid = [i * v_step for i in range(voltage_grid_points(voc, v_step))]
    rows = [[v, solve_pv_current(p, v), v * solve_pv_current(p, v), 0] for v in grid]

    vm, im, pm = 0.0, 0.0, 0.0
    if voc > 0.0:
        power = lambda v: v * solve_pv_current(p, v)
        best = max(grid, key=power)
        v = _golden_max(power, max(best - v_step, 0.0), min(best + v_step, voc), 1e-6)
        if power(v) < power(best):
            v = best
        vm, im, pm = v, solve_pv_current(p, v), v * solve_pv_current(p, v)

    for row in rows:
        if abs(row[0] - vm) < 1e-12:
            row[3] = 1
            break
    else:
        at = next((j for j, row in enumerate(rows) if row[0] > vm), len(rows))
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
        ],
        ids=["nominal", "dark", "Rs0", "hot", "low", "Rs2", "Rs5", "Rs50", "cold", "negative_iph"],
    )
    def test_matches_two_pass_reference(self, capsys, tmp_path, text):
        code, out, err = run_cli(capsys, tmp_path, "pvcurve", text)
        assert code == 0 and err == ""
        cfg = parse_config(text)
        assert out == "\n".join(two_pass_pvcurve(cfg.pv, cfg.pv_v_step)) + "\n"


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

    @pytest.mark.parametrize("command", ["eigen", "steady", "tune"])
    @pytest.mark.parametrize(
        "line", ["system.Tp = 1e-320", "diesel.Td3 = 1e-310"], ids=["tiny_Tp", "tiny_Td3"]
    )
    def test_overflowing_plant_is_numeric_error(self, capsys, tmp_path, command, line):
        code, out, err = run_cli(capsys, tmp_path, command, line + "\n")
        assert code == 3 and out == ""
        assert err.startswith("error: NonFiniteState:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("tp", ["1e-40", "1e-300"])
    def test_far_too_fast_plant_is_step_error(self, capsys, tmp_path, tp):
        # the fastest mode is so far outside the RK4 stability region that
        # |R(lambda*dt)| overflows; that still reads as an unstable step
        text = f"system.Tp = {tp}\nscenario.t_end = 1.0\n"
        code, out, err = run_cli(capsys, tmp_path, "simulate", text)
        assert code == 4 and out == ""
        assert err.startswith("error: UnstableStepSize:")
        assert len(err.splitlines()) == 1

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

        assert main([*steady, "--include-solar", "false"]) == 0
        assert capsys.readouterr().out != fresh
        assert main(steady) == 0
        assert capsys.readouterr().out == fresh

        out = tmp_path / "steady.txt"
        assert main([*steady, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(steady) == 0
        assert capsys.readouterr().out == fresh
        assert out.read_text() == fresh

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
    stderr and nothing on stdout. Runs in-process, so an escaping
    exception (a numpy RuntimeWarning made an error, say) is a violation."""

    BASE = "scenario.t_end = 2\ntune.budget = 20\n"
    VALUES = ("0", "-1", "1e300", "1e-300", "nan", "inf", "-inf")
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
        elif code not in (2, 3, 4) or out or not self.ERROR_LINE.fullmatch(err):
            return f"exit {code} with stdout {out[:80]!r}, stderr {err!r}"
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


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "hybridlfc", "--command", "eigen"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert result.stdout.strip().endswith("verdict,UNSTABLE")
