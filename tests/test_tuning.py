from dataclasses import replace

import numpy as np
import pytest

import hybridlfc.tuning
from hybridlfc.assembly import ControllerGains, SystemParams, build_closed_loop
from hybridlfc.engine import integrate, ise, rk4_growth, step_ise
from hybridlfc.errors import InvariantViolation, NoStableGainsFound
from hybridlfc.lti import eigenvalues
from hybridlfc.tuning import (
    GAIN_ORDER,
    STABILITY_MARGIN,
    STEP_HEADROOM,
    TuneSpec,
    tune_gains,
)

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


class TestSearch:
    def test_deterministic(self, default_params):
        first = tune_gains(default_params, QUICK)
        second = tune_gains(default_params, QUICK)
        assert first[0].as_tuple() == second[0].as_tuple()
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
        assert gains.as_tuple() == tuple(0.5 for _ in GAIN_ORDER)
        start_cost = ise(
            integrate(build_closed_loop(default_params, gains), QUICK.scenario())
        )
        assert eta == pytest.approx(start_cost, rel=1e-12)

    def test_no_stable_gains_in_degenerate_box(self, default_params):
        pinned = {name: (0.0, 0.0) for name in GAIN_ORDER}
        with pytest.raises(NoStableGainsFound):
            tune_gains(default_params, replace(QUICK, bounds=pinned, budget=5))

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
        "per_loop, expected, eta, closed",
        [
            (False, (19.5625, 25.15625, 100.0, 0.03125, 10.1875, 0.0), 4.953010115689521e-06, 300),
            # the last pair converges before the budget runs out
            (
                True,
                (100.0, 5.72265625, 65.71484375, 16.017578125, 7.8046875, 0.578125),
                5.068231155795195e-06,
                162,
            ),
        ],
        ids=["joint", "per_loop"],
    )
    def test_default_search_path(
        self, default_params, monkeypatch, per_loop, expected, eta, closed
    ):
        # the default spec at its budget of 300, pinned like the acceptance spec
        built = []
        real_close = hybridlfc.tuning.close_loop

        def counting_close(plant, gains, kig):
            built.append(gains)
            return real_close(plant, gains, kig)

        monkeypatch.setattr(hybridlfc.tuning, "close_loop", counting_close)
        gains, got = tune_gains(default_params, TuneSpec(per_loop=per_loop))
        assert gains.as_tuple() == expected
        assert got == pytest.approx(eta, rel=1e-9)
        assert len(built) == closed

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
        # the plant is assembled once per run; every cost must equal one
        # computed from a closed loop built from scratch for its gains
        params = replace(default_params, include_solar=include_solar)
        spec = replace(QUICK, budget=40)
        gains_seen, costed = [], []
        real_close = hybridlfc.tuning.close_loop
        real_cost = hybridlfc.tuning.step_ise

        def recording_close(plant, gains, kig):
            gains_seen.append(gains)
            return real_close(plant, gains, kig)

        def recording_cost(model, scenario, include_ft=False):
            cost = real_cost(model, scenario, include_ft=include_ft)
            costed.append((gains_seen[-1], cost))
            return cost

        monkeypatch.setattr(hybridlfc.tuning, "close_loop", recording_close)
        monkeypatch.setattr(hybridlfc.tuning, "step_ise", recording_cost)
        tune_gains(params, spec)
        assert len(gains_seen) == 40 and len(costed) > 20
        for gains, cost in costed:
            fresh = step_ise(
                build_closed_loop(params, gains),
                spec.scenario(),
                include_ft=spec.eta_include_ft,
            )
            assert cost == fresh
