import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hybridlfc.assembly import SystemParams, assemble_plant
from hybridlfc.diesel import DieselParams, governor_residues
from hybridlfc.engine import Scenario, integrate, steady_state
from hybridlfc.errors import InvariantViolation
from hybridlfc.lti import eigenvalues
from reference import build_diesel_subsystem, plant_block

# Frozen from the closed-form residue expressions at the default constants.
K1_DEFAULT = 0.16875949367088605
K2_DEFAULT = 0.1645405063291139


def diesel_block(p):
    """The plant's diesel rows [dXED11, dXED21, dPgd], driven by dPcd and by
    the dFs droop coupling."""
    plant = assemble_plant(SystemParams(diesel=p))
    return plant_block(plant, ("dXED11", "dXED21", "dPgd"), ("dPcd",), ("dFs",))


class TestResidues:
    def test_default_values(self):
        k1, k2 = governor_residues(DieselParams())
        assert k1 == pytest.approx(K1_DEFAULT, abs=1e-15)
        assert k2 == pytest.approx(K2_DEFAULT, abs=1e-15)

    def test_sum_is_dc_gain(self):
        p = DieselParams()
        k1, k2 = governor_residues(p)
        assert abs(k1 + k2 - p.Kd) < 1e-12

    def test_lead_matching_first_lag_kills_first_branch(self):
        k1, k2 = governor_residues(DieselParams(Td1=2.0))
        assert k1 == 0.0
        assert k2 == pytest.approx(0.3333, abs=1e-15)

    def test_near_degenerate_lags_rejected(self):
        with pytest.raises(InvariantViolation):
            DieselParams(Td2=1.0, Td3=1.0 + 1e-12)

    @given(
        kd=st.floats(0.05, 5.0),
        td1=st.floats(0.01, 5.0),
        td2=st.floats(0.01, 5.0),
        td3=st.floats(0.01, 5.0),
        s_im=st.floats(-10.0, 10.0),
    )
    @settings(max_examples=80)
    def test_split_reconstructs_lead_lag(self, kd, td1, td2, td3, s_im):
        # residues are ill-conditioned when the lags collide
        assume(abs(td2 - td3) > 0.05)
        p = DieselParams(Kd=kd, Td1=td1, Td2=td2, Td3=td3)
        k1, k2 = governor_residues(p)
        s = 0.3 + 1j * s_im  # stay away from the poles on the negative axis
        split = k1 / (1.0 + s * td2) + k2 / (1.0 + s * td3)
        direct = kd * (1.0 + s * td1) / ((1.0 + s * td2) * (1.0 + s * td3))
        assert abs(split - direct) <= 1e-10 * max(abs(direct), 1e-12)


class TestSubsystem:
    def test_matrix_entries(self):
        p = DieselParams()
        m = build_diesel_subsystem(p)
        k1, k2 = governor_residues(p)
        assert m.state_labels == ("dXED11", "dXED21", "dPgd")
        assert m.control_labels == ("dPcd",)
        assert m.disturbance_labels == ("dFs",)
        expected_a = np.array(
            [
                [-0.5, 0.0, 0.0],
                [0.0, -40.0, 0.0],
                [1.0 / 3.0, 1.0 / 3.0, -1.0 / 3.0],
            ]
        )
        np.testing.assert_allclose(m.a, expected_a, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(
            m.b[:, 0], [k1 / 2.0, k2 / 0.025, 0.0], rtol=0.0, atol=1e-15
        )
        np.testing.assert_allclose(
            m.g[:, 0], [-k1 / 10.0, -k2 / 0.125, 0.0], rtol=0.0, atol=1e-15
        )

    def test_poles_are_lag_reciprocals(self):
        m = diesel_block(DieselParams())
        lam = eigenvalues(m.a)
        assert np.max(np.abs(lam.imag)) == 0.0
        assert sorted(lam.real) == pytest.approx(
            sorted([-0.5, -40.0, -1.0 / 3.0]), abs=1e-12
        )

    def test_setpoint_dc_gain_is_kd(self):
        # at steady state the lead-lag contributes its full DC gain
        p = DieselParams()
        m = diesel_block(p)
        x = steady_state(m, controls={"dPcd": 1.0})
        assert x[2] == pytest.approx(p.Kd, abs=1e-12)

    def test_droop_dc_gain(self):
        p = DieselParams()
        m = diesel_block(p)
        x = steady_state(m, disturbances={"dFs": 1.0})
        assert x[2] == pytest.approx(-p.Kd / p.Rd, abs=1e-12)

    def test_zero_input_stays_at_rest(self):
        m = build_diesel_subsystem(DieselParams())
        trace = integrate(m, Scenario(t_end=5.0, dt=0.01))
        assert np.all(trace.states == 0.0)

    def test_validate_rejects_bad_constants(self):
        with pytest.raises(InvariantViolation):
            DieselParams(Td4=0.0)
        with pytest.raises(InvariantViolation):
            DieselParams(Rd=-1.0)
        with pytest.raises(InvariantViolation):
            DieselParams(Td2=0.025)
