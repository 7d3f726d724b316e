from dataclasses import astuple

import pytest

from hybridlfc.config import DEFAULTS, parse_config
from hybridlfc.errors import InvalidValue, InvariantViolation, UnknownKey

# the key namespace per section, as the README's configuration table lists it
NAMESPACE = {
    "diesel": "Kd Td1 Td2 Td3 Td4 Rd",
    "wind": "Tw Kig Ktp Kpc Kp1 Kp2 Kp3 Tp1 Tp2 Tp3",
    "solar": "Kgs gbc_num gbc_den",
    "system": "Kp Tp F include_solar",
    "gains": "Kdp Kdi Kpp Kpi Ksp Ksi",
    "scenario": "t_end dt dPl dPl_onset dPiw dPiw_onset dPis dPis_onset dPcd dPcu us",
    "pv": "Isc KI Isat Rs Aq T lambda v_step",
    "tune": (
        "Kdp_min Kdp_max Kdi_min Kdi_max Kpp_min Kpp_max Kpi_min Kpi_max Ksp_min Ksp_max"
        " Ksi_min Ksi_max budget seed per_loop eta_include_ft t_end dt dPl dPiw dPis onset"
    ),
}


class TestParsing:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.system.Kp == 72.0
        assert cfg.system.diesel.Td3 == 0.025
        assert cfg.system.wind.Kig == 0.9969
        assert cfg.system.solar.Kgs == 0.20
        assert cfg.system.include_solar is True
        assert astuple(cfg.gains) == (0.0,) * 6
        assert cfg.scenario.t_end == 60.0
        assert cfg.pv.lam == 1000.0
        assert cfg.pv_v_step == 0.01
        assert cfg.tune.budget == 300

    def test_single_override(self):
        cfg = parse_config("diesel.Rd = 4.0\n")
        assert cfg.system.diesel.Rd == 4.0
        assert cfg.system.diesel.Kd == 0.3333  # untouched sibling

    def test_comments_and_blank_lines(self):
        text = """
        # full-line comment
        system.Kp = 80.0   # trailing comment

        wind.Tw = 5.0
        """
        cfg = parse_config(text)
        assert cfg.system.Kp == 80.0
        assert cfg.system.wind.Tw == 5.0

    def test_duplicate_key_last_wins(self):
        cfg = parse_config("system.Kp = 10.0\nsystem.Kp = 20.0\n")
        assert cfg.system.Kp == 20.0

    def test_bool_and_int_typing(self):
        cfg = parse_config("system.include_solar = false\ntune.budget = 17\n")
        assert cfg.system.include_solar is False
        assert cfg.tune.budget == 17
        assert isinstance(cfg.tune.budget, int)

    def test_coefficient_list_typing(self):
        cfg = parse_config("solar.gbc_num = 1.0, 2.0\nsolar.gbc_den = 1.0, 3.0, 1.0\n")
        solar = cfg.system.solar
        assert solar.gbc_num == (1.0, 2.0)
        assert solar.gbc_den == (1.0, 3.0, 1.0)

    def test_unknown_key_reports_line(self):
        with pytest.raises(UnknownKey, match="line 2"):
            parse_config("system.Kp = 72.0\nsystem.Kq = 1.0\n")

    def test_unparseable_value_reports_line(self):
        with pytest.raises(InvalidValue, match="line 1"):
            parse_config("system.Kp = fast\n")
        with pytest.raises(InvalidValue, match="line 3"):
            parse_config("\n\ntune.budget = 2.5\n")
        with pytest.raises(InvalidValue, match="true or false"):
            parse_config("tune.per_loop = yes\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(InvalidValue, match="key = value"):
            parse_config("system.Kp 72.0\n")

    def test_defaults_cover_every_key(self):
        # every key must parse its own default round-tripped through text
        default = parse_config("")
        for key, val in DEFAULTS.items():
            if isinstance(val, bool):
                rhs = "true" if val else "false"
            elif isinstance(val, tuple):
                rhs = ", ".join(repr(x) for x in val)
            else:
                rhs = repr(val)
            assert parse_config(f"{key} = {rhs}\n") == default, key

    def test_namespace_is_pinned(self):
        # a new dataclass field must not become a config key unnoticed
        pinned = {f"{sec}.{name}" for sec, names in NAMESPACE.items() for name in names.split()}
        assert set(DEFAULTS) == pinned

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_values_rejected(self, bad):
        real_keys = [k for k, v in DEFAULTS.items() if type(v) in (float, tuple)]
        assert len(real_keys) == 65
        for key in real_keys:
            with pytest.raises(InvalidValue, match=f"line 1: .*{key}: value must be finite"):
                parse_config(f"{key} = {bad}\n")
        with pytest.raises(InvalidValue, match="finite"):
            parse_config(f"solar.gbc_den = 50.0, {bad}, 1.0\n")


class TestConstraints:
    def test_degenerate_governor_lags(self):
        with pytest.raises(InvariantViolation):
            parse_config("diesel.Td3 = 2.0\n")  # collides with Td2

    def test_onset_beyond_horizon(self):
        with pytest.raises(InvariantViolation):
            parse_config("scenario.dPl_onset = 90.0\n")  # t_end stays 60

    def test_bad_mppt_step(self):
        with pytest.raises(InvariantViolation):
            parse_config("pv.v_step = 0.0\n")

    def test_tuner_box_inverted(self):
        with pytest.raises(InvariantViolation):
            parse_config("tune.Kpp_min = 10.0\ntune.Kpp_max = 1.0\n")

    def test_improper_converter_block(self):
        # a biproper block (equal degrees) is allowed
        cfg = parse_config("solar.gbc_num = 1.0, 1.0, 1.0\n")
        assert cfg.system.solar.gbc_num == (1.0, 1.0, 1.0)
        # a cubic numerator over the quadratic default denominator is not
        with pytest.raises(InvariantViolation):
            parse_config("solar.gbc_num = 1.0, 1.0, 1.0, 1.0\n")

    def test_zero_denominator_block(self):
        # the zero polynomial has degree -1, so the order check names it
        with pytest.raises(InvariantViolation, match="second order, got degree -1"):
            parse_config("solar.gbc_num = 0.0\nsolar.gbc_den = 0.0, -0.0\n")
        # over a nonzero numerator the block is improper first
        with pytest.raises(InvariantViolation, match="proper transfer function"):
            parse_config("solar.gbc_den = 0.0\n")

    def test_negative_irradiance(self):
        with pytest.raises(InvariantViolation):
            parse_config("pv.lambda = -10.0\n")


class TestWiring:
    def test_scenario_steps_carry_onsets(self):
        cfg = parse_config(
            "scenario.dPl = 0.01\nscenario.dPl_onset = 2.0\nscenario.dPiw = 0.02\n"
        )
        assert cfg.scenario.disturbances["dPl"].magnitude == 0.01
        assert cfg.scenario.disturbances["dPl"].onset == 2.0
        assert cfg.scenario.disturbances["dPiw"].magnitude == 0.02
        assert cfg.scenario.disturbances["dPiw"].onset == 0.0

    def test_constant_controls(self):
        cfg = parse_config("scenario.us = 0.5\n")
        assert cfg.scenario.controls["us"] == 0.5

    def test_tune_bounds_assembled_from_min_max(self):
        cfg = parse_config("tune.Ksi_min = 1.0\ntune.Ksi_max = 2.0\n")
        assert cfg.tune.bounds["Ksi"] == (1.0, 2.0)
        assert cfg.tune.bounds["Kdp"] == (0.0, 100.0)

    def test_tune_scenario_channels(self):
        cfg = parse_config("tune.dPiw = 0.01\ntune.eta_include_ft = true\n")
        assert cfg.tune.dpiw == 0.01
        assert cfg.tune.eta_include_ft is True

    def test_gains_propagate(self):
        cfg = parse_config("gains.Kdp = 10.0\ngains.Ksi = 5.0\n")
        assert cfg.gains.Kdp == 10.0
        assert cfg.gains.Ksi == 5.0
