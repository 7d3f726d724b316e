"""Linear time-invariant primitives: the state-space container and
eigenvalue analysis.

Everything here is a pure function of immutable value objects, so instances
can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, InvalidArgument, NonSquareMatrix

__all__ = ["StateSpaceModel", "eigenvalues"]


def _input_matrix(m, n: int, name: str) -> np.ndarray:
    """A copy of B or G as a matrix of n rows; a flat array fills the rows
    in order."""
    m = np.array(m, dtype=float)
    if not m.size:
        return np.zeros((n, 0))
    if (m.ndim == 2 and m.shape[0] != n) or not n or m.size % n:
        raise DimensionMismatch(f"{name} has shape {m.shape}, want {n} rows")
    return m.reshape(n, -1)


@dataclass(frozen=True)
class StateSpaceModel:
    """Linear model dx/dt = A x + B u + G p with named states and inputs.

    A is n x n, B is n x m (control inputs), G is n x k (disturbance
    inputs). Plants and closed loops alike are this one type: a closed
    loop's A already holds its state feedback. Matrices are stored as
    read-only copies; models are safe to share.
    """

    a: np.ndarray
    b: np.ndarray
    g: np.ndarray
    state_labels: tuple[str, ...]
    control_labels: tuple[str, ...] = ()
    disturbance_labels: tuple[str, ...] = ()

    def __post_init__(self):
        # copies, so that freezing them leaves the caller's arrays writable
        a = np.atleast_2d(np.array(self.a, dtype=float))
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
        for m in (a, b, g):
            m.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "state_labels", labels)
        object.__setattr__(self, "control_labels", tuple(self.control_labels))
        object.__setattr__(self, "disturbance_labels", tuple(self.disturbance_labels))

    @property
    def n_states(self) -> int:
        return self.a.shape[0]


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
