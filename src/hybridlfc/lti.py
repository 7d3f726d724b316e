"""Linear time-invariant primitives: polynomials, transfer functions,
state-space containers, companion-form realization and eigenvalue analysis.

Everything here is a pure function of immutable value objects, so instances
can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    ImproperTransferFunction,
    InvalidArgument,
    NonSquareMatrix,
    ZeroDcDenominator,
)

__all__ = [
    "Polynomial",
    "TransferFunction",
    "StateSpaceModel",
    "tf_dc_gain",
    "tf_feedthrough",
    "companion_coefficients",
    "tf_to_ss",
    "eigenvalues",
]


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial in s, coefficients ascending in power.

    Trailing zero coefficients are trimmed on construction so the leading
    (highest-order) coefficient of a nonzero polynomial is always nonzero.
    The zero polynomial is stored as a single zero coefficient.
    """

    coeffs: tuple[float, ...]

    def __init__(self, coeffs):
        c = [float(x) for x in coeffs]
        while len(c) > 1 and c[-1] == 0.0:
            c.pop()
        if not c:
            c = [0.0]
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        if self.coeffs == (0.0,):
            return -1
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.degree == -1

    def __call__(self, s: complex) -> complex:
        # Horner evaluation from the highest power down.
        acc = 0.0 + 0.0j if isinstance(s, complex) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * s + c
        return acc

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(np.convolve(self.coeffs, other.coeffs))


@dataclass(frozen=True)
class TransferFunction:
    """Rational function num(s)/den(s), both in ascending coefficients."""

    num: Polynomial
    den: Polynomial

    def __init__(self, num, den):
        num = num if isinstance(num, Polynomial) else Polynomial(num)
        den = den if isinstance(den, Polynomial) else Polynomial(den)
        if den.is_zero:
            raise ZeroDivisionError("zero polynomial is not a valid denominator")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def is_proper(self) -> bool:
        return self.num.degree <= self.den.degree

    def __call__(self, s: complex) -> complex:
        return self.num(s) / self.den(s)


def _input_matrix(m, n: int, name: str) -> np.ndarray:
    """B or G as a matrix of n rows; a flat array fills the rows in order."""
    m = np.asarray(m, dtype=float)
    if not m.size:
        return np.zeros((n, 0))
    if (m.ndim == 2 and m.shape[0] != n) or not n or m.size % n:
        raise DimensionMismatch(f"{name} has shape {m.shape}, want {n} rows")
    return m.reshape(n, -1)


@dataclass(frozen=True)
class StateSpaceModel:
    """Linear model dx/dt = A x + B u + G p with named states and inputs.

    A is n x n, B is n x m (control inputs), G is n x k (disturbance
    inputs). A closed loop also carries its m x n state feedback H: A
    already holds Abar + Bbar H, and H reads the controller outputs back
    out as u = H x (plus any constant control offset). Plants and
    subsystem blocks have no H. Matrices are stored read-only; models are
    safe to share.
    """

    a: np.ndarray
    b: np.ndarray
    g: np.ndarray
    state_labels: tuple[str, ...]
    control_labels: tuple[str, ...] = ()
    disturbance_labels: tuple[str, ...] = ()
    h: np.ndarray | None = None

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        n = a.shape[0]
        if a.shape != (n, n):
            raise NonSquareMatrix(f"state matrix has shape {a.shape}")
        b = _input_matrix(self.b, n, "control matrix")
        g = _input_matrix(self.g, n, "disturbance matrix")
        labels = tuple(self.state_labels)
        if len(labels) != n:
            raise DimensionMismatch(f"{len(labels)} state labels for {n} states")
        if len(set(labels)) != n:
            raise InvalidArgument("state labels must be unique")
        if b.shape[1] != len(self.control_labels):
            raise DimensionMismatch("control label count does not match B columns")
        if g.shape[1] != len(self.disturbance_labels):
            raise DimensionMismatch("disturbance label count does not match G columns")
        h = self.h
        if h is not None:
            h = np.asarray(h, dtype=float)
            if h.shape != (b.shape[1], n):
                raise DimensionMismatch(
                    f"feedback matrix has shape {h.shape}, want {(b.shape[1], n)}"
                )
            h.flags.writeable = False
        for m in (a, b, g):
            m.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "state_labels", labels)
        object.__setattr__(self, "control_labels", tuple(self.control_labels))
        object.__setattr__(self, "disturbance_labels", tuple(self.disturbance_labels))

    @property
    def n_states(self) -> int:
        return self.a.shape[0]

    def state_index(self, label: str) -> int:
        return self.state_labels.index(label)


def tf_dc_gain(tf: TransferFunction) -> float:
    """Gain of tf at s = 0, i.e. num(0)/den(0).

    Raises ZeroDcDenominator when den(0) = 0 (a free integrator); the
    caller must fall back to steady-state machinery in that case.
    """
    d0 = tf.den.coeffs[0]
    if d0 == 0.0:
        raise ZeroDcDenominator("denominator vanishes at s = 0")
    return tf.num.coeffs[0] / d0


def tf_feedthrough(tf: TransferFunction) -> float:
    """Direct term d of a proper transfer function, num = d*den + remainder
    (0 when the block is strictly proper). Equal to the feedthrough that
    `tf_to_ss` returns, without building the realization."""
    if not tf.is_proper:
        raise ImproperTransferFunction(
            f"numerator degree {tf.num.degree} exceeds denominator degree {tf.den.degree}"
        )
    n = tf.den.degree
    if n < 1:
        raise ImproperTransferFunction("denominator must have degree >= 1")
    return tf.num.coeffs[n] / tf.den.coeffs[n] if tf.num.degree == n else 0.0


def companion_coefficients(tf: TransferFunction) -> tuple[list[float], list[float], float]:
    """Companion-form coefficients of a proper transfer function, scaled by
    the denominator's leading coefficient: ``(den, col, d)``, the n =
    deg(den) lower denominator coefficients (ascending), the input column
    (the strictly-proper remainder num - d*den) and the feedthrough d."""
    d = tf_feedthrough(tf)
    n = tf.den.degree
    lead = tf.den.coeffs[-1]
    den = [c / lead for c in tf.den.coeffs[:n]]
    num = [c / lead for c in tf.num.coeffs]
    num += [0.0] * (n - len(num))
    return den, [num[i] - d * den[i] for i in range(n)], d


def tf_to_ss(
    tf: TransferFunction,
    state_prefix: str = "x",
    input_label: str = "u",
) -> tuple[StateSpaceModel, float]:
    """Realize a proper transfer function as a companion-form state model.

    Returns ``(model, feedthrough)``. The model has n = deg(den) states; the
    block output is the LAST state plus ``feedthrough * input``, so no
    separate output matrix is needed. The numerator coefficients of the
    strictly-proper part appear in the input column, which reproduces the
    familiar first-order pattern K/(1+sT) -> dx/dt = -x/T + (K/T) u, y = x.

    The denominator is normalized to unit leading coefficient before the
    companion matrix is formed (`companion_coefficients`), so the
    eigenvalues of A are exactly the denominator roots.
    """
    den, col, d = companion_coefficients(tf)
    n = len(den)
    a = np.eye(n, k=-1)
    a[:, n - 1] = [-c for c in den]

    labels = tuple(f"{state_prefix}{i + 1}" for i in range(n))
    model = StateSpaceModel(
        a=a,
        b=np.array(col).reshape(n, 1),
        g=np.zeros((n, 0)),
        state_labels=labels,
        control_labels=(input_label,),
    )
    return model, d


def eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a square real matrix, sorted by real part descending.

    Backed by the LAPACK Hessenberg-QR solver; ties in the real part are
    broken by descending imaginary part so the ordering is deterministic.
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSquareMatrix(f"matrix has shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidArgument("matrix entries must be finite")
    try:
        vals = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    order = np.lexsort((-vals.imag, -vals.real))
    return vals[order]
