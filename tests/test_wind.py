import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridlfc.assembly import SystemParams, assemble_plant
from hybridlfc.engine import steady_state
from hybridlfc.errors import InvariantViolation
from hybridlfc.lti import eigenvalues
from hybridlfc.wind import WindParams
from reference import (
    build_pitch_subsystem,
    build_turbine_subsystem,
    pitch_chain_tf,
    plant_block,
    tf_eval,
    wind_generation,
)

# Kig / (1 + Kig - Ktp) at the default constants: the steady turbine
# frequency deviation that follows a unit system frequency deviation.
FT_PER_FS = 0.5000584379657167


class TestGeneration:
    def test_slip_coupling(self):
        assert wind_generation(0.9969, 0.02, 0.01) == pytest.approx(0.9969 * 0.01)

    def test_zero_when_frequencies_track(self):
        assert wind_generation(0.9969, 0.5, 0.5) == 0.0

    @given(
        kig=st.floats(0.1, 2.0),
        ft=st.floats(-1.0, 1.0),
        fs=st.floats(-1.0, 1.0),
        scale=st.floats(-3.0, 3.0),
    )
    @settings(max_examples=40)
    def test_linear_in_both_frequencies(self, kig, ft, fs, scale):
        base = wind_generation(kig, ft, fs)
        assert wind_generation(kig, scale * ft, scale * fs) == pytest.approx(
            scale * base, rel=1e-12, abs=1e-12
        )


class TestTurbine:
    def test_self_coefficient(self):
        m = build_turbine_subsystem(WindParams())
        assert m.a[0, 0] == pytest.approx(-0.49839175, abs=1e-15)

    def test_coupling_columns(self):
        p = WindParams()
        m = build_turbine_subsystem(p)
        assert m.disturbance_labels == ("dFs", "dPiw", "dPcw")
        np.testing.assert_allclose(
            m.g[0], [p.Kig / p.Tw, 0.25, 0.25], rtol=0.0, atol=1e-15
        )
        assert m.b.shape == (1, 0)

    def test_equilibrium_frequency_ratio(self):
        m = build_turbine_subsystem(WindParams())
        x = steady_state(m, disturbances={"dFs": 1.0})
        assert x[0] == pytest.approx(FT_PER_FS, abs=1e-12)

    @given(
        tw=st.floats(0.5, 20.0),
        kig=st.floats(0.1, 2.0),
        ktp=st.floats(0.0, 0.5),
    )
    @settings(max_examples=40)
    def test_pole_stays_stable(self, tw, kig, ktp):
        m = build_turbine_subsystem(WindParams(Tw=tw, Kig=kig, Ktp=ktp))
        assert m.a[0, 0] < 0.0


class TestPitchChain:
    def test_servo_coefficient(self):
        m = build_pitch_subsystem(WindParams())
        assert m.b[2, 0] == pytest.approx(24.390243902439025, abs=1e-12)

    def test_poles_are_block_lags(self):
        m = build_pitch_subsystem(WindParams())
        lam = sorted(eigenvalues(m.a).real)
        # upper triangular A: poles read straight off the diagonal
        assert lam == pytest.approx([-1.0 / 0.041, -1.0, -1.0], abs=1e-12)

    def test_dc_gain(self):
        p = WindParams()
        m = build_pitch_subsystem(p)
        x = steady_state(m, controls={"dPcu": 1.0})
        assert x[0] == pytest.approx(0.14, abs=1e-12)
        assert x[0] == pytest.approx(p.Kpc * p.Kp3 * p.Kp1 * p.Kp2, abs=1e-15)

    def test_realization_matches_reference_tf(self):
        # compare e0^T (sI - A)^-1 B on the plant's pitch rows against the
        # cascaded-block product on a sweep of imaginary-axis points
        p = WindParams()
        plant = assemble_plant(SystemParams(wind=p))
        m = plant_block(plant, ("dPcw", "dPC1", "dPC2"), ("dPcu",))
        tf = pitch_chain_tf(p)
        eye = np.eye(3)
        for w in np.linspace(0.05, 50.0, 20):
            s = 1j * w
            resolvent = np.linalg.solve(s * eye - m.a, m.b[:, 0])
            assert resolvent[0] == pytest.approx(tf_eval(tf, s), rel=1e-9)

    def test_reference_tf_dc(self):
        tf = pitch_chain_tf(WindParams())
        assert tf_eval(tf, 0.0) == pytest.approx(0.14, abs=1e-15)


class TestValidation:
    def test_rejects_nonpositive_time_constants(self):
        with pytest.raises(InvariantViolation):
            WindParams(Tw=0.0)
        with pytest.raises(InvariantViolation):
            WindParams(Tp2=-0.1)

    def test_rejects_unstable_turbine(self):
        with pytest.raises(InvariantViolation):
            WindParams(Ktp=2.5)
