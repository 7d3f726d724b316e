"""Output checks for the hybridlfc benchmark.

Every check reads the file a command wrote and compares it with a result
the benchmark computes itself, with its own numpy code: RK4 stepping,
steady-state solves, eigenvalues and PV solves. Two model pieces are
written out here from the paper's equations, the frequency-balance row
(which carries system.Kp and system.Tp) and the PI feedback law; the
subsystem blocks come from `assemble_plant` at the pinned paper
constants, once per distinct plant, and the derived outputs from
`output_map`.

Printed numbers carry 9 significant digits (`%.8e`), so a value may sit
up to 5e-9 of its magnitude from the exact one; every tolerance below
adds that rounding to the numerical tolerance it names.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from hybridlfc.assembly import assemble_plant, output_map
from hybridlfc.config import parse_config

import workloads

ROUND = 5e-9 * (1.0 + 1e-6)  # half a unit in the 9th significant digit
REL = 1e-12  # numerical tolerance, relative to a column's largest value
STABILITY_MARGIN = -1e-6  # the tuner's and the eigen verdict's threshold
PV_TOL = 1e-10  # diode residual bound, relative to the photocurrent
PV_TOL_FLOOR = 1e-16  # the solver's absolute floor (dark cells)
EXP_CLAMP = 700.0  # the cell model's clamp on the diode exponent
BALANCE_KEYS = ("system.Kp", "system.Tp")
PLANT_PREFIXES = ("diesel.", "wind.", "solar.", "system.")


def read_values(text: str) -> dict[str, str]:
    """The `key = value` pairs of a generated config (no comments)."""
    pairs = (line.split("=", 1) for line in text.splitlines() if "=" in line)
    return {key.strip(): val.strip() for key, val in pairs}


def _parse_csv(text: str, columns: int) -> np.ndarray:
    cells = text.replace("\n", ",").split(",")
    if cells and cells[-1] == "":
        cells.pop()
    if len(cells) % columns:
        raise ValueError(f"{len(cells)} cells do not fill rows of {columns}")
    return np.array(cells, dtype=float).reshape(-1, columns)


def _close(got: np.ndarray, want: np.ndarray, rel: float = REL) -> bool:
    """Printed values match the exact ones up to print rounding plus
    `rel` of each column's largest magnitude."""
    scale = np.max(np.abs(want), axis=0) if want.size else 0.0
    return bool(np.all(np.abs(got - want) <= ROUND * np.abs(want) + rel * scale))


# -- model -----------------------------------------------------------------


@dataclass(frozen=True)
class Model:
    """x' = a x + b u + g p over `labels`; closed loops carry u = h x."""

    a: np.ndarray
    b: np.ndarray
    g: np.ndarray
    labels: tuple[str, ...]
    h: np.ndarray | None = None


@functools.lru_cache(maxsize=8)
def _blocks(subsystem_text: str):
    """The assembled plant and output map for the subsystem constants;
    plant() rewrites the frequency-balance row."""
    system = parse_config(subsystem_text).system
    return assemble_plant(system), output_map(system)


def plant(v: dict[str, str]) -> tuple[Model, object]:
    """The open-loop plant of a config, with its output map.

    Row dFs is the frequency balance
        d/dt dFs = [-dFs + Kp*(dPgd + Kig*(dFt - dFs) + Kgs*xs2 - dPl)] / Tp
    (the Kgs term only with system.include_solar), written out here so
    the blocks need assembling only once per set of subsystem constants.
    """
    base, outs = _blocks("".join(
        f"{key} = {val}\n"
        for key, val in v.items()
        if key.startswith(PLANT_PREFIXES) and key not in BALANCE_KEYS
    ))
    kp, tp, kig = float(v["system.Kp"]), float(v["system.Tp"]), float(v["wind.Kig"])
    s = base.state_labels.index
    a, g = np.array(base.a), np.array(base.g)
    kp_tp = kp / tp
    a[0] = 0.0
    a[0, s("dFs")] = -(1.0 + kig * kp) / tp
    a[0, s("dFt")] = kig * kp_tp
    a[0, s("dPgd")] = kp_tp
    if v["system.include_solar"] == "true":
        a[0, s("xs2")] = kp_tp * float(v["solar.Kgs"])
    g[0] = 0.0
    g[0, base.disturbance_labels.index("dPl")] = -kp_tp
    return Model(a, np.array(base.b), g, base.state_labels), outs


def closed_loop(open_loop: Model, gains: dict[str, float], kig: float) -> Model:
    """The PI loops as state feedback u = H x over [plant, iFs, iFt],
    where iFs and iFt integrate dFs and dFt:
        diesel  dPcd = -Kdp*dFs - Kdi*iFs
        pitch   dPcu = Kig*(Kpp*(dFs - dFt) + Kpi*(iFs - iFt))
        solar   us   = -Ksp*dFs - Ksi*iFs
    """
    n = len(open_loop.labels)
    fs, ft, i_fs, i_ft = open_loop.labels.index("dFs"), open_loop.labels.index("dFt"), n, n + 1
    a = np.zeros((n + 2, n + 2))
    a[:n, :n] = open_loop.a
    a[i_fs, fs] = a[i_ft, ft] = 1.0
    b = np.vstack([open_loop.b, np.zeros((2, open_loop.b.shape[1]))])
    g = np.vstack([open_loop.g, np.zeros((2, open_loop.g.shape[1]))])
    h = np.zeros((3, n + 2))
    h[0, fs], h[0, i_fs] = -gains["Kdp"], -gains["Kdi"]
    h[1, fs], h[1, ft] = kig * gains["Kpp"], -kig * gains["Kpp"]
    h[1, i_fs], h[1, i_ft] = kig * gains["Kpi"], -kig * gains["Kpi"]
    h[2, fs], h[2, i_fs] = -gains["Ksp"], -gains["Ksi"]
    return Model(a + b @ h, b, g, open_loop.labels + ("iFs", "iFt"), h)


def model(v: dict[str, str], gains: dict[str, float] | None = None) -> tuple[Model, object]:
    """The closed loop a config describes, with its output map; gains
    default to the config's own."""
    if gains is None:
        gains = {name: float(v[f"gains.{name}"]) for name in workloads.GAIN_NAMES}
    open_loop, outs = plant(v)
    return closed_loop(open_loop, gains, float(v["wind.Kig"])), outs


# -- simulate --------------------------------------------------------------


def _rk4_propagators(a: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    # Classical RK4 with the input held over the step, applied to the
    # linear model x' = A x + c, is x+ = P x + Q c with
    #   P = I + M + M^2/2 + M^3/6 + M^4/24,  Q = dt (I + M/2 + M^2/6 + M^3/24),
    # M = dt A. The sums run in the order the engine documents: another
    # order (or stage-by-stage RK4) drifts up to 1.5e-12 of the
    # integrator columns' scale over 60 000 steps, which would use up
    # the whole 1e-12 tolerance.
    eye = np.eye(a.shape[0])
    m1 = dt * a
    m2 = m1 @ m1
    m3 = m2 @ m1
    m4 = m3 @ m1
    return eye + m1 + m2 / 2.0 + m3 / 6.0 + m4 / 24.0, dt * (eye + m1 / 2.0 + m2 / 6.0 + m3 / 24.0)


def simulate_oracle(v: dict[str, str]) -> tuple[str, np.ndarray]:
    """Header and rows `simulate` must print for this config."""
    loop, outs = model(v)
    dt, t_end = float(v["scenario.dt"]), float(v["scenario.t_end"])
    rows = int(math.floor(t_end / dt + 1e-9)) + 1
    u = np.array([float(v[f"scenario.{c}"]) for c in ("dPcd", "dPcu", "us")])
    # each step switches on at the sample on (or just before) its onset
    p_rows = np.zeros((rows, 3))
    for j, label in enumerate(("dPl", "dPiw", "dPis")):
        onset = int(math.floor(float(v[f"scenario.{label}_onset"]) / dt + 1e-9))
        p_rows[onset:, j] = float(v[f"scenario.{label}"])

    p, q = _rk4_propagators(loop.a, dt)
    forcing = (p_rows @ loop.g.T + loop.b @ u) @ q.T
    states = np.zeros((rows, len(loop.labels)))
    x = states[0]
    for k in range(rows - 1):
        x = p @ x + forcing[k]
        states[k + 1] = x

    n_open = outs.wx.shape[1]
    u_rows = states @ loop.h.T + u
    y = states[:, :n_open] @ outs.wx.T + u_rows @ outs.wu.T + p_rows @ outs.wp.T
    header = ",".join(("t",) + loop.labels + tuple(outs.labels))
    return header, np.column_stack([np.arange(rows) * dt, states, y])


def check_simulate(v: dict[str, str], output: str) -> str | None:
    header, want = simulate_oracle(v)
    head, _, body = output.partition("\n")
    if head != header:
        return f"header {head!r}, want {header!r}"
    got = _parse_csv(body, want.shape[1])
    if got.shape != want.shape:
        return f"{got.shape[0]} rows, want {want.shape[0]}"
    if not _close(got, want):
        scale = np.max(np.abs(want), axis=0)
        worst = np.max(np.abs(got - want) / np.where(scale > 0, scale, 1.0))
        return f"trace differs from the RK4 oracle (worst {worst:.3e} of column scale)"
    return None


# -- steady / eigen --------------------------------------------------------


def check_steady(v: dict[str, str], output: str) -> str | None:
    open_loop, _ = plant(v)
    u = np.array([float(v[f"scenario.{c}"]) for c in ("dPcd", "dPcu", "us")])
    p = np.array([float(v[f"scenario.{d}"]) for d in ("dPl", "dPiw", "dPis")])
    want = np.linalg.solve(open_loop.a, -(open_loop.b @ u + open_loop.g @ p))
    lines = output.splitlines()
    labels = [line.split("=")[0].strip() for line in lines]
    if labels != list(open_loop.labels):
        return f"labels {labels}, want {list(open_loop.labels)}"
    got = np.array([float(line.split("=")[1]) for line in lines])
    # printed with 6 decimals
    if np.any(np.abs(got - want) > 5e-7 * (1.0 + 1e-6) + REL * np.max(np.abs(want))):
        return "equilibrium differs from the direct solve"
    return None


def check_eigen(v: dict[str, str], output: str) -> str | None:
    want = np.linalg.eigvals(model(v)[0].a)
    lines = output.splitlines()
    if lines[0] != "re,im" or not lines[-1].startswith("verdict,"):
        return "malformed eigen report"
    got = _parse_csv("\n".join(lines[1:-1]), 2)
    got = got[:, 0] + 1j * got[:, 1]
    if got.size != want.size:
        return f"{got.size} eigenvalues, want {want.size}"
    if np.any(np.diff(got.real) > 2 * ROUND * np.max(np.abs(got))):
        return "eigenvalues not sorted by real part descending"
    # each printed eigenvalue matches a distinct computed one (greedily;
    # repeated eigenvalues, such as the free integrators, occur)
    dist = np.abs(got[:, None] - want[None, :])
    tol = 4 * ROUND * np.abs(want) + 1e-9 * np.max(np.abs(want))
    for i in range(got.size):
        j = int(np.argmin(dist[i]))
        if dist[i, j] > tol[j]:
            return f"eigenvalue {got[i]:.8e} differs from numpy's {want[j]:.8e}"
        dist[:, j] = np.inf
    abscissa = float(np.max(want.real))
    if abs(abscissa - STABILITY_MARGIN) > 1e-9:
        verdict = "STABLE" if abscissa < STABILITY_MARGIN else "UNSTABLE"
        if lines[-1] != f"verdict,{verdict}":
            return f"{lines[-1]!r}, want verdict,{verdict}"
    return None


# -- pvcurve ---------------------------------------------------------------


def _on_grid(volts: np.ndarray, v_step: float) -> bool:
    grid = np.arange(len(volts)) * v_step
    return bool(np.all(np.abs(volts - grid) <= ROUND * grid))


class _Cell:
    """The single-diode cell law and its own solver."""

    def __init__(self, v: dict[str, str]):
        f = {key[3:]: float(val) for key, val in v.items() if key.startswith("pv.")}
        self.rs, self.isat, self.v_step = f["Rs"], f["Isat"], f["v_step"]
        self.vt = f["Aq"] * workloads.BOLTZMANN * (f["T"] + 273.15) / workloads.ELECTRON_CHARGE
        self.iph = f["lambda"] / 1000.0 * (f["Isc"] + f["KI"] * (f["T"] - 25.0))
        self.voc = self.vt * math.log1p(self.iph / self.isat) if self.iph > 0 else 0.0

    def current(self, volts: np.ndarray) -> np.ndarray:
        # Newton from I = Iph: the residual is concave and falls with the
        # current, so the iterates fall monotonically onto the root.
        x = np.full(volts.shape, self.iph)
        for _ in range(200):
            arg = np.minimum((volts + x * self.rs) / self.vt, EXP_CLAMP)
            step = (self.iph - self.isat * np.expm1(arg) - x) / (
                self.isat * np.exp(arg) * self.rs / self.vt + 1.0
            )
            x = x + step
            if np.all(np.abs(step) <= 1e-14 * self.iph + 1e-20):
                return x
        raise ValueError("the reference diode solve did not converge")


def check_pvcurve(v: dict[str, str], output: str) -> str | None:
    cell = _Cell(v)
    head, _, body = output.partition("\n")
    if head != "V,I,P,mpp":
        return f"header {head!r}"
    rows = _parse_csv(body, 4)
    flags = rows[:, 3]
    if np.count_nonzero(flags == 1) != 1 or np.any((flags != 0) & (flags != 1)):
        return f"{np.count_nonzero(flags == 1)} rows flagged as the MPP, want 1"
    mpp = rows[flags == 1][0]
    # the flagged row is either a grid point or inserted between two
    grid = rows
    if not _on_grid(grid[:, 0], cell.v_step):
        grid = rows[flags == 0]
        if not _on_grid(grid[:, 0], cell.v_step):
            return "voltages are not the grid 0, v_step, 2 v_step, ..."
    volts = np.arange(len(grid)) * cell.v_step
    if volts[-1] > cell.voc * (1 + 1e-9) or len(grid) * cell.v_step <= cell.voc * (1 - 1e-9):
        return f"grid ends at {volts[-1]:.9g} V, open-circuit voltage is {cell.voc:.9g} V"

    vm, im, pm = mpp[:3]
    # the printed MPP voltage is rounded; its current may be that of any
    # voltage within the rounding
    want = cell.current(np.concatenate([volts, [vm * (1 + ROUND), vm * (1 - ROUND)]]))
    want, (i_lo, i_hi) = want[:-2], want[-2:]
    bound = max(PV_TOL * cell.iph, PV_TOL_FLOOR)
    if np.any(np.abs(grid[:, 1] - want) > bound + ROUND * np.abs(want)):
        return "a current misses the diode residual bound"
    if np.any(np.abs(grid[:, 2] - volts * want) > 3 * ROUND * np.abs(volts * want) + volts * bound):
        return "power column is not V*I"

    if not 0.0 <= vm <= cell.voc * (1 + 1e-9):
        return f"MPP voltage {vm} outside [0, Voc]"
    if not i_lo - bound - ROUND * abs(i_lo) <= im <= i_hi + bound + ROUND * abs(i_hi):
        return "MPP current misses the diode residual bound"
    if abs(pm - vm * im) > 3 * ROUND * abs(pm) + bound * vm:
        return "MPP power is not V*I"
    if pm < np.max(grid[:, 2]) * (1 - 2 * ROUND):
        return "MPP is worse than a grid point"
    return None


# -- tune ------------------------------------------------------------------


def tune_eta(output: str) -> float:
    return float(output.splitlines()[-1].split("=")[1])


def check_tune(v: dict[str, str], output: str) -> str | None:
    lines = output.splitlines()
    if len(lines) != 7 or not lines[-1].startswith("# eta = "):
        return "malformed gain fragment"
    got = {line.split("=")[0].strip()[6:]: float(line.split("=")[1]) for line in lines[:6]}
    got["eta"] = tune_eta(output)
    ref = workloads.TUNE_REFERENCE
    if int(v["tune.budget"]) == workloads.TUNE_BUDGET:
        for name, value in ref.items():
            if not math.isclose(got.get(name, math.nan), value, rel_tol=1e-9):
                return f"{name} = {got.get(name)}, reference {value}"
    lam = np.linalg.eigvals(model(v, gains=got)[0].a)
    if not float(np.max(lam.real)) < STABILITY_MARGIN:
        return "tuned closed loop is not stable"
    return None


CHECKS = {
    "simulate": check_simulate,
    "steady": check_steady,
    "eigen": check_eigen,
    "pvcurve": check_pvcurve,
    "tune": check_tune,
}


def check(command: str, config: str, output: str) -> str | None:
    """None when the output is right, else why it is wrong."""
    try:
        return CHECKS[command](read_values(config), output)
    except (ValueError, IndexError, KeyError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
