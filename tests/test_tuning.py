import importlib.util
import math
import subprocess
import sys
from dataclasses import astuple, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import hybridlfc.engine
import hybridlfc.tuning
from hybridlfc.assembly import ControllerGains, SystemParams, build_closed_loop
from hybridlfc.cli import csv_blocks
from hybridlfc.engine import integrate, ise_evaluator, rk4_growth
from hybridlfc.errors import InvariantViolation, NonFiniteState, NoStableGainsFound
from hybridlfc.lti import eigenvalues
from hybridlfc.tuning import (
    GAIN_ORDER,
    RK4_DISK_RADIUS,
    STABILITY_MARGIN,
    STEP_HEADROOM,
    TuneSpec,
    _admissible,
    tune_gains,
)
from reference import eager_tune_gains, ise

# short horizon keeps each cost evaluation cheap for the search tests
QUICK = TuneSpec(budget=60, t_end=10.0, dt=0.01)


def closed_loop_max_real(params, gains):
    model = build_closed_loop(params, gains)
    return float(np.max(eigenvalues(model.a).real))


class TestSpec:
    def test_default_scenario_steps_load_only(self):
        sc = TuneSpec().scenario()
        assert set(sc.disturbances) == {"dPl"}
        assert sc.disturbances["dPl"].magnitude == 0.01
        assert sc.disturbances["dPl"].onset == 1.0

    def test_extra_excitation_channels(self):
        sc = TuneSpec(dpiw=0.02, dpis=0.03).scenario()
        assert set(sc.disturbances) == {"dPl", "dPiw", "dPis"}
        assert sc.disturbances["dPis"].magnitude == 0.03

    def test_validate_rejects_bad_specs(self):
        with pytest.raises(InvariantViolation):
            TuneSpec(budget=0)
        with pytest.raises(InvariantViolation):
            TuneSpec(bounds={"Kdp": (0.0, 100.0)})
        bad = dict(TuneSpec().bounds)
        bad["Kpi"] = (5.0, 1.0)
        with pytest.raises(InvariantViolation):
            TuneSpec(bounds=bad)
        with pytest.raises(InvariantViolation):
            TuneSpec(onset=50.0, t_end=30.0)
        with pytest.raises(InvariantViolation):
            TuneSpec(t_end=1e300, dt=1e-10)


def _polymul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _polyadd(p, q):
    n = max(len(p), len(q))
    return [sum(c[i] if i < len(c) else 0 for c in (p, q)) for i in range(n)]


def rk4_factor(z):
    return 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0


class TestStepHeadroomDisk:
    """The screen's shortcut: RK4 damps every mode in the open left
    half-disk |z| < RK4_DISK_RADIUS, so no `rk4_growth` is needed there."""

    def test_rk4_damps_the_open_left_half_disk(self):
        # R(z) is a polynomial, so by the maximum-modulus principle |R| takes
        # its maximum over the closed half-disk {|z| <= r, Re z <= 0} on the
        # boundary and stays strictly below it inside: |R| <= 1 on the
        # boundary gives |R| < 1 on the open half-disk
        r = RK4_DISK_RADIUS
        assert r == 2.5

        # the imaginary-axis segment, in exact arithmetic: R(iy) has real
        # part 1 - y^2/2 + y^4/24 and imaginary part y - y^3/6, and
        # |R(iy)|^2 = 1 - y^6/72 + y^8/576 = 1 - y^6 (8 - y^2)/576 <= 1
        # for y^2 <= 8, which covers |y| <= r
        re = [Fraction(1), Fraction(0), Fraction(-1, 2), Fraction(0), Fraction(1, 24)]
        im = [Fraction(0), Fraction(1), Fraction(0), Fraction(-1, 6)]
        squared = _polyadd(_polymul(re, re), _polymul(im, im))
        assert squared == [1, 0, 0, 0, 0, 0, Fraction(-1, 72), 0, Fraction(1, 576)]
        assert r * r <= 8

        # the arc |z| = r, Re z <= 0, sampled densely: between samples |R|
        # moves by at most max|R'| times half the spacing along the arc,
        # and |R'(z)| = |1 + z + z^2/2 + z^3/6| <= 1 + r + r^2/2 + r^3/6
        samples = 200_001
        theta = np.linspace(math.pi / 2, 3 * math.pi / 2, samples)
        peak = float(np.max(np.abs(rk4_factor(r * np.exp(1j * theta)))))
        lipschitz = 1 + r + r**2 / 2 + r**3 / 6
        spacing = math.pi * r / (samples - 1)
        assert peak + lipschitz * spacing / 2 < 1.0
        assert peak == pytest.approx(0.8727, abs=1e-4)  # near 122 and 238 degrees
        # (test_engine pins the boundary itself: radius 2.616 at 122.7 degrees)

    @pytest.mark.parametrize("seed", range(4))
    def test_shortcut_implies_damping(self, seed):
        # whenever the shortcut passes a spectrum, rk4_growth agrees; draws
        # crowd the arc and the imaginary axis, where R comes nearest to 1,
        # and some fall outside the disk so the full check runs too
        rng = np.random.default_rng(5300 + seed)
        passed = refused = 0
        for _ in range(2000):
            dt = 10.0 ** rng.uniform(-4.0, -1.0)
            step = dt * STEP_HEADROOM
            k = int(rng.integers(1, 7))
            rad = RK4_DISK_RADIUS * (1.0 - rng.uniform(0.0, 1.0, k) ** 3) * rng.uniform(0.9, 1.1)
            ang = math.pi / 2 + rng.uniform(0.0, 1.0, k) ** 4 * math.pi / 2
            z = rad * np.exp(1j * ang)
            lam = np.concatenate([z, z.conj()]) / step
            lam = lam.real + STABILITY_MARGIN * rng.uniform(1.0, 2.0, lam.size) + 1j * lam.imag
            lam = lam[np.lexsort((-lam.imag, -lam.real))]  # as `eigenvalues` orders
            growth = rk4_growth(lam, step)
            shortcut = float(np.max(np.abs(lam))) * step < RK4_DISK_RADIUS
            if shortcut:
                passed += 1
                assert growth < 0.0
            refused += growth >= 0.0
            assert _admissible(lam, dt) == (growth < 0.0)
        assert 500 < passed < 2000 and refused > 0

    def test_unstable_spectrum_refused_inside_the_disk(self):
        lam = np.array([1e-7 + 0.0j, -1.0 + 0.0j])
        assert not _admissible(lam, 0.005)


class TestSearch:
    def test_deterministic(self, default_params):
        first = tune_gains(default_params, QUICK)
        second = tune_gains(default_params, QUICK)
        assert astuple(first[0]) == astuple(second[0])
        assert first[1] == second[1]

    def test_result_is_stable(self, default_params):
        gains, _ = tune_gains(default_params, QUICK)
        assert closed_loop_max_real(default_params, gains) < STABILITY_MARGIN

    def test_reported_index_matches_replay(self, default_params):
        gains, eta = tune_gains(default_params, QUICK)
        model = build_closed_loop(default_params, gains)
        replay = ise(integrate(model, QUICK.scenario()), include_ft=QUICK.eta_include_ft)
        assert eta == pytest.approx(replay, rel=1e-12)

    def test_improves_on_start_point(self, default_params):
        gains, eta = tune_gains(default_params, QUICK)
        start = ControllerGains(*(0.5 for _ in GAIN_ORDER))
        start_cost = ise(
            integrate(build_closed_loop(default_params, start), QUICK.scenario())
        )
        assert eta <= start_cost

    def test_budget_prefix_property(self, default_params):
        # the search is deterministic, so a longer budget can only match
        # or beat the shorter run
        _, eta_short = tune_gains(default_params, replace(QUICK, budget=15))
        _, eta_long = tune_gains(default_params, replace(QUICK, budget=60))
        assert eta_long <= eta_short

    def test_unit_budget_returns_start_cost(self, default_params):
        gains, eta = tune_gains(default_params, replace(QUICK, budget=1))
        assert astuple(gains) == tuple(0.5 for _ in GAIN_ORDER)
        start_cost = ise(
            integrate(build_closed_loop(default_params, gains), QUICK.scenario())
        )
        assert eta == pytest.approx(start_cost, rel=1e-12)

    def test_no_stable_gains_in_degenerate_box(self, default_params):
        pinned = {name: (0.0, 0.0) for name in GAIN_ORDER}
        with pytest.raises(NoStableGainsFound):
            tune_gains(default_params, replace(QUICK, bounds=pinned, budget=5))

    @pytest.mark.parametrize("tune", [tune_gains, eager_tune_gains], ids=["shipped", "eager"])
    def test_no_stable_gains_names_the_candidates_costed(self, default_params, tune):
        # a box with every gain pinned holds one candidate, so one is costed
        # whatever the budget; the zero gains leave the free integrators
        pinned = {name: (0.0, 0.0) for name in GAIN_ORDER}
        message = "^no stable gain set found within 1 evaluation$"
        with pytest.raises(NoStableGainsFound, match=message):
            tune(default_params, replace(QUICK, bounds=pinned))

    @pytest.mark.parametrize("dt, refused", [(0.02, False), (0.026, True)], ids=["0.02", "0.026"])
    def test_step_headroom_screens_the_start(self, default_params, dt, refused):
        # a budget of one costs only the start point; its closed loop takes a
        # step of dt, but not one STEP_HEADROOM times longer, at dt = 0.026
        model = build_closed_loop(default_params, ControllerGains(*[0.5] * 6))
        lam = eigenvalues(model.a)
        assert rk4_growth(lam, dt) < 0.0
        growth = rk4_growth(lam, dt * STEP_HEADROOM)
        assert (growth >= 0.0) == refused
        spec = replace(QUICK, dt=dt, budget=1)
        if refused:
            assert growth == pytest.approx(0.163, abs=5e-4)
            with pytest.raises(NoStableGainsFound):
                tune_gains(default_params, spec)
        else:
            assert np.isfinite(tune_gains(default_params, spec)[1])

    @pytest.mark.parametrize(
        "per_loop, expected, eta, closed, screened",
        [
            (
                False,
                (19.5625, 25.15625, 100.0, 0.03125, 10.1875, 0.0),
                4.953010115689521e-06,
                300,
                81,
            ),
            # the last pair converges before the budget runs out
            (
                True,
                (100.0, 5.72265625, 65.71484375, 16.017578125, 7.8046875, 0.578125),
                5.068231155795195e-06,
                162,
                46,
            ),
        ],
        ids=["joint", "per_loop"],
    )
    def test_default_search_path(
        self, default_params, monkeypatch, per_loop, expected, eta, closed, screened
    ):
        # the default spec at its budget of 300, pinned like the acceptance
        # spec; each candidate fills its Ahat exactly once, and only one
        # whose index beats the best so far solves for its eigenvalues
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
        gains, got = tune_gains(default_params, TuneSpec(per_loop=per_loop))
        assert astuple(gains) == expected
        assert got == pytest.approx(eta, rel=1e-9)
        assert len(built) == closed
        assert len(solved) == screened

    def test_overflowing_index_is_no_stable_gains(self, default_params):
        # a box pinned at gains whose closed loop is unstable: over 600 s the
        # index overflows, so evaluate raises before the screen runs, and the
        # search reports no stable gains, without a RuntimeWarning
        pinned = {name: (0.5, 0.5) for name in GAIN_ORDER} | {"Kdi": (-50.0, -50.0)}
        spec = TuneSpec(bounds=pinned, t_end=600.0)
        model = build_closed_loop(default_params, ControllerGains(0.5, -50.0, 0.5, 0.5, 0.5, 0.5))
        assert not _admissible(eigenvalues(model.a), spec.dt)
        with pytest.raises(NonFiniteState):
            ise_evaluator(model, spec.scenario(), spec.eta_include_ft)(model.a)
        with pytest.raises(NoStableGainsFound):
            tune_gains(default_params, spec)

    @pytest.mark.parametrize("per_loop", [False, True], ids=["joint", "per_loop"])
    def test_scenario_set_up_once_per_run(self, default_params, monkeypatch, per_loop):
        # the plant and the input bookkeeping belong to the run, not to each
        # candidate: one zero-gain closed loop and one `_inputs` call serve
        # every search group
        calls, built = [], []
        real_inputs = hybridlfc.engine._inputs
        real_build = hybridlfc.tuning.build_closed_loop

        def counting_inputs(model, scenario):
            calls.append(scenario)
            return real_inputs(model, scenario)

        def counting_build(params, gains):
            built.append(gains)
            return real_build(params, gains)

        monkeypatch.setattr(hybridlfc.engine, "_inputs", counting_inputs)
        monkeypatch.setattr(hybridlfc.tuning, "build_closed_loop", counting_build)
        tune_gains(default_params, replace(QUICK, per_loop=per_loop))
        assert len(calls) == 1
        assert built == [ControllerGains()]

    def test_candidates_build_no_controller_gains(self, default_params, monkeypatch):
        # the tuner fills each candidate from its key tuple: an acceptance
        # tune at the budget of 300 builds only the zero-gain base and the
        # result
        built = []
        real_check = ControllerGains.__post_init__

        def counting_check(gains):
            built.append(tuple(gains))
            real_check(gains)

        monkeypatch.setattr(ControllerGains, "__post_init__", counting_check)
        spec = TuneSpec(dpiw=0.01, dpis=0.01, eta_include_ft=True)
        gains, _ = tune_gains(default_params, spec)
        assert built == [(0.0,) * len(GAIN_ORDER), tuple(gains)]

    def test_per_loop_mode(self, default_params):
        spec = replace(QUICK, per_loop=True, budget=90)
        gains, eta = tune_gains(default_params, spec)
        assert np.isfinite(eta)
        assert closed_loop_max_real(default_params, gains) < STABILITY_MARGIN

    def test_solar_gains_pinned_without_solar(self, default_params):
        params = replace(default_params, include_solar=False)
        gains, eta = tune_gains(params, QUICK)
        assert gains.Ksp == 0.0 and gains.Ksi == 0.0
        assert np.isfinite(eta)

    def test_turbine_term_changes_the_index(self, default_params):
        _, eta_fs = tune_gains(default_params, replace(QUICK, budget=10))
        _, eta_both = tune_gains(
            default_params, replace(QUICK, budget=10, eta_include_ft=True)
        )
        assert eta_both > eta_fs  # the added dFt^2 term can only grow it

    @pytest.mark.parametrize("include_solar", [True, False])
    def test_costs_match_a_fresh_build(self, default_params, include_solar, monkeypatch):
        # the plant and the index's set-up are made once per run; every cost
        # must equal one computed from a closed loop built from scratch for
        # its gains
        params = replace(default_params, include_solar=include_solar)
        spec = replace(QUICK, budget=40)
        gains_seen, costed = [], []
        real_fill = hybridlfc.tuning.closed_loop_matrix
        real_setup = hybridlfc.tuning.ise_evaluator

        def recording_fill(abar, bbar, gains, kig):
            gains_seen.append(gains)
            return real_fill(abar, bbar, gains, kig)

        def recording_setup(model, scenario, include_ft=False):
            evaluate = real_setup(model, scenario, include_ft=include_ft)

            def recording_cost(a):
                cost = evaluate(a)
                costed.append((gains_seen[-1], cost))
                return cost

            return recording_cost

        monkeypatch.setattr(hybridlfc.tuning, "closed_loop_matrix", recording_fill)
        monkeypatch.setattr(hybridlfc.tuning, "ise_evaluator", recording_setup)
        tune_gains(params, spec)
        assert len(gains_seen) == 40 and len(costed) > 20
        for gains, cost in costed:
            model = build_closed_loop(params, gains)
            fresh = ise_evaluator(model, spec.scenario(), spec.eta_include_ft)(model.a)
            assert cost == fresh


def record_search(monkeypatch, tune, params, spec):
    """The gain tuples `tune(params, spec)` fills an Ahat for, in order; each
    cost call as (gains, best, cost); and the result, or None when it raises
    NoStableGainsFound."""
    filled, costed = [], []
    real_fill = hybridlfc.tuning.closed_loop_matrix
    real_descend = hybridlfc.tuning._descend

    def recording_fill(abar, bbar, gains, kig):
        filled.append(tuple(gains))
        return real_fill(abar, bbar, gains, kig)

    def recording_descend(cost, x, names, bounds):
        def recording_cost(key, best):
            c = cost(key, best)
            costed.append((key, best, c))
            return c

        return real_descend(recording_cost, x, names, bounds)

    with monkeypatch.context() as patch:
        patch.setattr(hybridlfc.tuning, "closed_loop_matrix", recording_fill)
        patch.setattr(hybridlfc.tuning, "_descend", recording_descend)
        try:
            result = tune(params, spec)
        except NoStableGainsFound:
            result = None
    return filled, costed, result


def seeded_box(seed):
    # every lower bound negative, so the search probes unstable gains
    rng = np.random.default_rng(seed)
    return {name: (-rng.uniform(0.0, 50.0), rng.uniform(1.0, 100.0)) for name in GAIN_ORDER}


class TestLazyScreen:
    """The shipped tuner screens a candidate only when its index beats the
    best so far; `reference.eager_tune_gains` screens every candidate first.
    Both make the same accept and reject decisions, so they fill the same
    candidates and return the same gains and eta, bit for bit."""

    def assert_same_search(self, monkeypatch, params, spec):
        """Returns how many candidates the eager screen refuses and the shipped
        tuner costs at an index that does not beat the best."""
        lazy_fills, lazy_costs, lazy = record_search(monkeypatch, tune_gains, params, spec)
        eager_fills, eager_costs, eager = record_search(
            monkeypatch, eager_tune_gains, params, spec
        )
        assert lazy_fills == eager_fills
        assert len(lazy_costs) == len(eager_costs)
        unscreened = 0
        for (key, best, got), (eager_key, eager_best, want) in zip(lazy_costs, eager_costs):
            assert key == eager_key and best.hex() == eager_best.hex()
            if want == math.inf and got != math.inf:
                assert not got < best
                unscreened += 1
            else:
                assert got.hex() == want.hex()
        assert lazy is not None and eager is not None
        assert lazy[0] == eager[0] and lazy[1].hex() == eager[1].hex()
        return unscreened

    @pytest.mark.parametrize(
        "spec",
        [TuneSpec(), TuneSpec(dpiw=0.01, dpis=0.01, eta_include_ft=True), TuneSpec(per_loop=True)],
        ids=["default", "acceptance", "per_loop"],
    )
    def test_matches_the_eager_tuner_on_the_pinned_specs(self, default_params, monkeypatch, spec):
        self.assert_same_search(monkeypatch, default_params, spec)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_eager_tuner_in_unstable_boxes(self, default_params, monkeypatch, seed):
        # over 10 s an unstable candidate's index can beat the best, and over
        # 600 s some unstable candidates' indexes overflow
        t_end = 10.0 if seed % 2 else 600.0
        spec = TuneSpec(bounds=seeded_box(seed), budget=60, t_end=t_end, dt=0.01)
        assert self.assert_same_search(monkeypatch, default_params, spec) > 0


STEP_RESPONSE = Path(__file__).resolve().parents[1] / "scripts" / "step_response.py"


def load_step_response():
    spec = importlib.util.spec_from_file_location("step_response", STEP_RESPONSE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestStepResponseScript:
    def test_tunes_for_the_simulated_steps(self, monkeypatch, tmp_path, capsys):
        # --tune must cost the same load, wind and solar steps that the
        # script then simulates
        script = load_step_response()
        specs = []

        def recording_tune(params, spec):
            specs.append(spec)
            return tune_gains(params, replace(spec, budget=10))

        monkeypatch.setattr(script, "tune_gains", recording_tune)
        argv = ["step_response.py", "--tune", "--dpl", "0.02", "--dpiw", "0.01", "--dpis", "0.005"]
        argv += ["--t-end", "2", "--out", str(tmp_path / "step.csv")]
        monkeypatch.setattr(sys, "argv", argv)
        script.main()
        capsys.readouterr()
        assert [(s.dpl, s.dpiw, s.dpis) for s in specs] == [(0.02, 0.01, 0.005)]

    def test_tunes_the_simulated_onset_and_horizon(self, monkeypatch, tmp_path, capsys):
        # one spec: --tune costs the onset, horizon and step size that the
        # script then simulates, and the simulated scenario is that spec's
        script = load_step_response()
        specs, scenarios = [], []

        def recording_tune(params, spec):
            specs.append(spec)
            return tune_gains(params, replace(spec, budget=10))

        def recording_integrate(model, scenario, outputs=None):
            scenarios.append(scenario)
            return integrate(model, scenario, outputs)

        monkeypatch.setattr(script, "tune_gains", recording_tune)
        monkeypatch.setattr(script, "integrate", recording_integrate)
        argv = ["step_response.py", "--tune", "--onset", "5", "--t-end", "8", "--dt", "0.01"]
        monkeypatch.setattr(sys, "argv", argv + ["--out", str(tmp_path / "step.csv")])
        script.main()
        capsys.readouterr()
        assert [(s.onset, s.t_end, s.dt) for s in specs] == [(5.0, 8.0, 0.01)]
        assert scenarios == [specs[0].scenario()]

    def test_tunes_within_the_configured_box_and_budget(self, monkeypatch, tmp_path, capsys):
        # the config's tune.* keys reach the spec; the flags set only the steps
        script = load_step_response()
        specs = []

        def recording_tune(params, spec):
            specs.append(spec)
            return tune_gains(params, spec)

        config = tmp_path / "tune.conf"
        config.write_text("tune.budget = 5\ntune.Kdp_max = 1.0\ntune.per_loop = true\n")
        monkeypatch.setattr(script, "tune_gains", recording_tune)
        argv = ["step_response.py", "--config", str(config), "--tune", "--t-end", "2"]
        monkeypatch.setattr(sys, "argv", argv + ["--out", str(tmp_path / "step.csv")])
        script.main()
        out = capsys.readouterr().out
        [spec] = specs
        assert (spec.budget, spec.bounds["Kdp"], spec.per_loop) == (5, (0.0, 1.0), True)
        assert (spec.t_end, spec.eta_include_ft) == (2.0, True)
        kdp = float(out.split("Kdp = ")[1].split()[0])
        assert 0.0 <= kdp <= 1.0

    def test_csv_is_the_cli_writers(self, monkeypatch, tmp_path, capsys):
        # the trace's columns through the CLI's CSV writer, and the printed
        # index is the trapezoid sum over that trace
        script = load_step_response()
        traces = []

        def recording_integrate(model, scenario, outputs=None):
            traces.append(integrate(model, scenario, outputs))
            return traces[-1]

        monkeypatch.setattr(script, "integrate", recording_integrate)
        out = tmp_path / "step.csv"
        monkeypatch.setattr(sys, "argv", ["step_response.py", "--t-end", "2", "--out", str(out)])
        script.main()
        [trace] = traces
        body = csv_blocks(trace.times, *(trace.column(c) for c in script.COLUMNS))
        assert out.read_text() == "\n".join(["t,dFs,dFt,dPgd,dPgw,dPgs,dP1", *body]) + "\n"
        assert f"ise(dFs)   = {ise(trace):.6e}\n" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--dt", "0"], "--dt must be > 0"),
            (["--t-end", "nan"], "--t-end must be finite"),
            (["--dpl", "nan"], "--dpl must be finite"),
            (["--onset", "99", "--t-end", "5"], "--onset must lie within [0, --t-end]"),
        ],
        ids=["dt_0", "t_end_nan", "dpl_nan", "onset_past_t_end"],
    )
    def test_bad_flag_is_named_by_its_flag(self, monkeypatch, tmp_path, capsys, flags, message):
        # the script's own flags, not the tune.* config keys it fills from
        # them; one error line, exit 2, nothing on stdout and no CSV
        script = load_step_response()
        out = tmp_path / "step.csv"
        monkeypatch.setattr(sys, "argv", ["step_response.py", *flags, "--out", str(out)])
        with pytest.raises(SystemExit) as exit_:
            script.main()
        assert exit_.value.code == 2
        assert capsys.readouterr() == ("", f"error: InvariantViolation: {message}\n")
        assert not out.exists()

    def test_undecodable_config_is_one_error_line(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_bytes(b"\xff\xfe")
        argv = [sys.executable, str(STEP_RESPONSE), "--config", str(path)]
        result = subprocess.run(
            argv + ["--out", str(tmp_path / "step.csv")],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 2 and result.stdout == ""
        want = "error: InvalidValue: config is not valid UTF-8: byte 0xff at offset 0\n"
        assert result.stderr == want

    def test_unwritable_out_is_one_error_line(self, tmp_path):
        out = tmp_path / "missing" / "step.csv"
        result = subprocess.run(
            [sys.executable, str(STEP_RESPONSE), "--t-end", "2", "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 3 and "Traceback" not in result.stderr
        [line] = result.stderr.splitlines()
        assert line.startswith("error: FileNotFoundError: ")
