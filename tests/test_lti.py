import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hybridlfc.errors import (
    DimensionMismatch,
    ImproperTransferFunction,
    InvalidArgument,
    NonSquareMatrix,
    ZeroDcDenominator,
)
from hybridlfc.lti import (
    Polynomial,
    StateSpaceModel,
    TransferFunction,
    eigenvalues,
    tf_dc_gain,
    tf_to_ss,
)

# converter block used as a second-order workhorse throughout
GBC_NUM = [900.0, -18.0]
GBC_DEN = [50.0, 100.0, 1.0]
# roots of s^2 + 100s + 50 by the quadratic formula, frozen
GBC_POLES = (-0.5025253169416715, -99.49747468305833)


class TestPolynomial:
    def test_trims_trailing_zeros(self):
        p = Polynomial([1.0, 2.0, 0.0, 0.0])
        assert p.coeffs == (1.0, 2.0)
        assert p.degree == 1

    def test_zero_polynomial_degree(self):
        assert Polynomial([0.0, 0.0]).degree == -1
        assert Polynomial([]).degree == -1

    def test_evaluation(self):
        p = Polynomial([1.0, 2.0, 3.0])
        assert p(2.0) == 1.0 + 4.0 + 12.0

    def test_complex_evaluation(self):
        p = Polynomial([1.0, 0.0, 1.0])
        assert p(1j) == pytest.approx(0.0)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=6), st.floats(-3, 3))
    def test_matches_numpy_polyval(self, coeffs, x):
        p = Polynomial(coeffs)
        expected = np.polyval(list(reversed(p.coeffs)), x)
        assert p(x) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_product_degree_adds(self):
        a = Polynomial([1.0, 2.0])
        b = Polynomial([3.0, 0.0, 1.0])
        assert (a * b).coeffs == (3.0, 6.0, 1.0, 2.0)


class TestTransferFunction:
    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            TransferFunction([1.0], [0.0])

    def test_properness(self):
        assert TransferFunction([1.0], [1.0, 2.0]).is_proper
        assert TransferFunction([1.0, 1.0], [1.0, 2.0]).is_proper
        assert not TransferFunction([1.0, 0.0, 0.0, 2.0], [1.0, 1.0, 1.0]).is_proper


class TestDcGain:
    def test_unit_lag(self):
        assert tf_dc_gain(TransferFunction([1.0], [1.0, 4.0])) == 1.0

    def test_converter_block(self):
        assert tf_dc_gain(TransferFunction(GBC_NUM, GBC_DEN)) == pytest.approx(18.0)

    def test_integrator_pole_rejected(self):
        # PI block (Kp*s + Ki)/s has a pole at the origin
        with pytest.raises(ZeroDcDenominator):
            tf_dc_gain(TransferFunction([2.0, 1.0], [0.0, 1.0]))


class TestRealization:
    def test_first_order_lag(self):
        model, d = tf_to_ss(TransferFunction([1.0], [1.0, 2.0]))
        assert model.a.shape == (1, 1)
        assert model.a[0, 0] == pytest.approx(-0.5)
        assert model.b[0, 0] == pytest.approx(0.5)
        assert d == 0.0

    def test_converter_block_poles(self):
        model, d = tf_to_ss(TransferFunction(GBC_NUM, GBC_DEN))
        assert model.n_states == 2
        assert d == 0.0
        lam = eigenvalues(model.a)
        assert lam[0].real == pytest.approx(GBC_POLES[0], abs=1e-9)
        assert lam[1].real == pytest.approx(GBC_POLES[1], abs=1e-9)

    def test_improper_rejected(self):
        with pytest.raises(ImproperTransferFunction):
            tf_to_ss(TransferFunction([1.0, 0.0, 0.0, 2.0], [1.0, 1.0, 1.0]))

    def test_constant_ratio_rejected(self):
        with pytest.raises(ImproperTransferFunction):
            tf_to_ss(TransferFunction([2.0], [4.0]))

    def test_feedthrough_split(self):
        # (s + 2)/(s + 1) = 1 + 1/(s + 1)
        model, d = tf_to_ss(TransferFunction([2.0, 1.0], [1.0, 1.0]))
        assert d == pytest.approx(1.0)
        assert model.a[0, 0] == pytest.approx(-1.0)
        assert model.b[0, 0] == pytest.approx(1.0)

    def test_labels(self):
        model, _ = tf_to_ss(
            TransferFunction(GBC_NUM, GBC_DEN), state_prefix="xs", input_label="us"
        )
        assert model.state_labels == ("xs1", "xs2")
        assert model.control_labels == ("us",)

    @given(
        poles=st.lists(st.floats(0.3, 3.0), min_size=1, max_size=4),
        num_coeffs=st.lists(st.floats(-5, 5), min_size=1, max_size=4),
    )
    @settings(max_examples=60)
    def test_dc_gain_preserved(self, poles, num_coeffs):
        # build the denominator from nonzero real roots so den(0) != 0
        # and the realization's A is invertible
        den = Polynomial([1.0])
        for r in poles:
            den = den * Polynomial([r, 1.0])
        num = Polynomial(num_coeffs[: len(poles)])
        tf = TransferFunction(num, den)

        model, d = tf_to_ss(tf)
        x_ss = np.linalg.solve(model.a, -model.b[:, 0])
        y_ss = x_ss[-1] + d
        dc = tf_dc_gain(tf)
        assert abs(y_ss - dc) <= 1e-9 * max(1.0, abs(dc))

    @given(poles=st.lists(st.floats(0.3, 3.0), min_size=1, max_size=4, unique=True))
    @settings(max_examples=60)
    def test_eigenvalues_are_denominator_roots(self, poles):
        # clustered roots are ill-conditioned for any eigensolver, so keep
        # the samples separated
        assume(min((abs(a - b) for a in poles for b in poles if a != b), default=1.0) > 0.05)
        den = Polynomial([1.0])
        for r in poles:
            den = den * Polynomial([r, 1.0])
        model, _ = tf_to_ss(TransferFunction([1.0], den))
        vals = eigenvalues(model.a)
        assert np.max(np.abs(vals.imag)) < 1e-6
        lam = sorted(vals.real, reverse=True)
        # each factor (r + s) contributes a root at -r
        expected = sorted((-r for r in poles), reverse=True)
        assert lam == pytest.approx(expected, rel=1e-6, abs=1e-9)


class TestStateSpaceModel:
    def test_label_count_enforced(self):
        with pytest.raises(ValueError):
            StateSpaceModel(
                a=np.eye(2), b=np.zeros((2, 0)), g=np.zeros((2, 0)), state_labels=("x",)
            )

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            StateSpaceModel(
                a=np.eye(2),
                b=np.zeros((2, 0)),
                g=np.zeros((2, 0)),
                state_labels=("x", "x"),
            )

    @pytest.mark.parametrize(
        "change, error",
        [
            ({"state_labels": ("x",)}, DimensionMismatch),
            ({"state_labels": ("x", "x")}, InvalidArgument),
            ({"control_labels": ()}, DimensionMismatch),
            ({"disturbance_labels": ("w", "v")}, DimensionMismatch),
            ({"b": np.zeros((1, 2))}, DimensionMismatch),
            ({"g": np.zeros(3)}, DimensionMismatch),
            ({"h": np.zeros((1, 3))}, DimensionMismatch),
            ({"h": np.zeros((2, 2))}, DimensionMismatch),
        ],
        ids=[
            "label_count",
            "duplicate",
            "control_count",
            "disturbance_count",
            "b_rows",
            "g_size",
            "h_columns",
            "h_rows",
        ],
    )
    def test_checks_raise_toolkit_errors(self, change, error):
        # toolkit errors that stay ValueErrors
        fields = dict(
            a=np.eye(2),
            b=np.zeros((2, 1)),
            g=np.zeros((2, 1)),
            state_labels=("x", "y"),
            control_labels=("u",),
            disturbance_labels=("w",),
        )
        with pytest.raises(error) as raised:
            StateSpaceModel(**{**fields, **change})
        assert isinstance(raised.value, ValueError)

    def test_flat_input_vector_is_a_column(self):
        m = StateSpaceModel(
            a=np.eye(2), b=np.ones(2), g=(), state_labels=("x", "y"), control_labels=("u",)
        )
        assert m.b.shape == (2, 1) and m.g.shape == (2, 0)

    def test_nonsquare_rejected(self):
        with pytest.raises(NonSquareMatrix):
            StateSpaceModel(
                a=np.zeros((2, 3)),
                b=np.zeros((2, 0)),
                g=np.zeros((2, 0)),
                state_labels=("x", "y"),
            )

    def test_matrices_read_only(self):
        model, _ = tf_to_ss(TransferFunction([1.0], [1.0, 2.0]))
        with pytest.raises(ValueError):
            model.a[0, 0] = 1.0

    def test_feedback_optional_and_stored_read_only(self):
        model, _ = tf_to_ss(TransferFunction([1.0], [1.0, 2.0]))
        assert model.h is None
        m = StateSpaceModel(
            a=np.eye(2),
            b=np.ones(2),
            g=(),
            state_labels=("x", "y"),
            control_labels=("u",),
            h=[[1, 2]],
        )
        assert m.h.dtype == float and m.h.tolist() == [[1.0, 2.0]]
        with pytest.raises(ValueError):
            m.h[0, 0] = 3.0


class TestEigenvalues:
    def test_diagonal(self):
        lam = eigenvalues(np.diag([-1.0, -2.0]))
        assert lam.tolist() == [-1.0, -2.0]

    def test_companion(self):
        lam = eigenvalues(np.array([[0.0, 1.0], [-50.0, -100.0]]))
        assert lam[0].real == pytest.approx(GBC_POLES[0], abs=1e-9)
        assert lam[1].real == pytest.approx(GBC_POLES[1], abs=1e-9)

    def test_nonsquare(self):
        with pytest.raises(NonSquareMatrix):
            eigenvalues(np.zeros((2, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(InvalidArgument, match="finite"):
            eigenvalues(np.array([[1.0, np.inf], [0.0, 1.0]]))

    def test_sorted_by_real_part_descending(self):
        lam = eigenvalues(np.diag([-5.0, 1.0, -2.0]))
        assert list(lam.real) == [1.0, -2.0, -5.0]

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=25).filter(
            lambda v: int(np.sqrt(len(v))) ** 2 == len(v)
        )
    )
    @settings(max_examples=60)
    def test_residual_contract(self, flat):
        n = int(np.sqrt(len(flat)))
        m = np.array(flat).reshape(n, n)
        norm = np.linalg.norm(m, 2)
        for lam in eigenvalues(m):
            sigma_min = np.linalg.svd(m - lam * np.eye(n), compute_uv=False)[-1]
            assert sigma_min <= 1e-6 * max(norm, 1e-12)
