"""Command-line front end: configuration loading, the five study
commands and CSV/report serialization.

Exit codes, from `errors.report` here and in the experiment scripts: 0
success, 2 configuration errors (a config file that is not valid UTF-8
among them), 4 step-size rejection, 3 any other failure. Errors print one
machine-parsable line to stderr, `error: <Class>: <message>`.
"""

from __future__ import annotations

import argparse
import functools
import sys
from contextlib import nullcontext
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .assembly import assemble_plant, build_closed_loop, output_map
from .config import Config, parse_config, read_config
from .engine import integrate, steady_state
from .errors import ToolkitError, report
from .lti import eigenvalues
from .solar import pv_curve
from .tuning import GAIN_ORDER, STABILITY_MARGIN, tune_gains

__all__ = ["csv_blocks", "write_lines", "main"]


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """`csv_blocks`'s tables, built on first use: exact powers of ten to multiply
    and to divide by, at index e + 16 for the decimal exponents e in
    [-16, 32], and pieces of text four bytes long, each read as one uint32."""
    exps = range(-16, 33)
    # 10**k is exact in a double up to k = 22; a factor of 1.0 leaves an
    # exponent outside [-14, 30] off the mantissa range, so it falls back
    mul = np.array([float(10 ** (8 - e)) if 8 - e in range(23) else 1.0 for e in exps])
    div = np.array([float(10 ** (e - 8)) if e - 8 in range(23) else 1.0 for e in exps])

    def words(texts):
        return np.frombuffer(b"".join(texts), np.uint32)

    def digits(width):
        # the strings "0...0" ... "9...9" written digit by digit in place,
        # many times faster than formatting each and with no temporary
        grid = np.empty((10,) * width + (width,), np.uint8)
        for k in range(width):
            column = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
            grid[..., k] = column.reshape((10,) + (1,) * (width - 1 - k))
        return grid.reshape(-1, width)

    head = words(b"%s%d.%d" % (sign, n // 10, n % 10) for sign in (b"\0", b"-") for n in range(100))
    four = digits(4)
    three = np.column_stack([digits(3), np.full(1000, ord("e"), np.uint8)])
    expo = words(b"%+03d," % e for e in exps)
    return mul, div, head, four.view(np.uint32).ravel(), three.view(np.uint32).ravel(), expo


def _mantissas(data: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each value of a float array: its 9-digit decimal mantissa,
    rounded, plus 1e9 when its sign bit is set; the index e + 16 of its
    decimal exponent e; and whether the two give its `"%.8e"` text. Zero
    reads as mantissa 0 at e = 0.

    For |x| in [1e-14, 1e31) the exponent has |8 - e| <= 22, so the
    mantissa m = |x|*10**(8-e) comes from one correctly rounded multiply or
    divide by an exact power of ten. It lies within ulp(m)/2 <= 2**-24 of
    the true one and rounds to the same integer unless it is within 2e-7
    of a half. (A computed m of 1e8 whose true value lies just below prints
    1.00000000e(e) either way.) Those values, the ones whose m rounds up to
    1e9, and every other nonzero value are left to Python.
    """
    mul, div = _tables()[:2]
    a = np.abs(data)
    exact = (a >= 1e-14) & (a < 1e31)
    a[~exact] = 1.0  # keeps log10 and the scaling finite and quiet
    j = np.log10(a)
    j += 16.0
    j = j.astype(np.intp)  # e + 16, e = floor(log10|x|)
    m = mul[j]
    m *= a
    m /= div[j]
    # log10 can put e one off near a power of ten, and m within 0.5 of 1e9
    # would round into the next decade
    off = np.nonzero((m < 1e8) | (m >= 1e9 - 0.5))
    if off[0].size:
        mo = m[off]
        jo = j[off] + (mo >= 1e9 - 0.5) - (mo < 1e8)
        mo = a[off] * mul[jo] / div[jo]
        j[off], m[off] = jo, mo
        exact[off] &= (mo >= 1e8) & (mo < 1e9 - 0.5)
    r = np.rint(m, out=a)  # |x| is spent; its array takes the rounded m
    m -= r
    exact &= np.abs(m, out=m) < 0.5 - 2e-7
    r *= exact
    r[np.signbit(data)] += 1e9
    return r.astype(np.int32), j, exact | (data == 0.0)


def _slots(data: np.ndarray, flags: np.ndarray | None) -> np.ndarray:
    """The CSV text of the rows of a 2-D float array, each value the text of
    `"%.8e" % x` and each row ended by `,<flag>` when `flags` (one digit a
    row) is given, in 20-byte slots padded with zero bytes.

    A value's slot holds four table words, "-d.d", "dddd", "ddde" and
    "+XX,", from its `_mantissas`, and a spare; Python's text replaces the
    rest. The zero bytes are the sign of a value without one and the spare.
    """
    _, _, head, four, three, expo = _tables()
    rows, cols = data.shape
    n, j, exact = _mantissas(data)
    n, low = np.divmod(n, 1000)
    n, mid = np.divmod(n, 10_000)  # n < 200 picks the sign and two digits

    words = np.zeros((rows, cols + (flags is not None), 5), np.uint32)
    words[:, :cols, 0] = head[n]
    words[:, :cols, 1] = four[mid]
    words[:, :cols, 2] = three[low]
    words[:, :cols, 3] = expo[j]
    slots = words.view(np.uint8).reshape(rows, -1, 20)
    if flags is not None:
        slots[:, -1, 0] = flags + ord("0")
    # each row's last slot ends in a newline, the last row's in nothing
    slots[:, -1, 15] = ord("\n")
    slots[-1, -1, 15] = 0
    fall = np.nonzero(~exact)
    if fall[0].size:
        # Python's text, up to 16 bytes, with the separator moved past it
        texts = b"".join([(b"%.8e" % x).ljust(16, b"\0") for x in data[fall].tolist()])
        cells = slots[fall]
        cells[:, 16] = cells[:, 15]
        cells[:, :16] = np.frombuffer(texts, np.uint8).reshape(-1, 16)
        slots[fall] = cells
    return slots


# rows `csv_blocks` formats at once: its temporaries, about 100 bytes a value,
# stay a few MB whatever the length of the trace
CSV_BLOCK = 4096


def csv_blocks(*columns: np.ndarray, flags: np.ndarray | None = None) -> Iterator[str]:
    """The `"%.8e"` CSV lines of the rows of the columns side by side (a
    1-D array is one column, a 2-D array its own columns; see `_slots`),
    yielded as the lines of each CSV_BLOCK rows joined by newlines."""
    for i in range(0, len(columns[0]), CSV_BLOCK):
        block = np.column_stack([c[i : i + CSV_BLOCK] for c in columns])
        slots = _slots(block, None if flags is None else flags[i : i + CSV_BLOCK])
        yield slots.tobytes().translate(None, b"\0").decode("ascii")


def write_lines(texts: Iterable[str], path) -> None:
    """Write each text, then a newline, to the file at `path` (UTF-8),
    or to stdout when `path` is None."""
    sink = nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8")
    with sink as out:
        for text in texts:
            out.write(text)
            out.write("\n")


def _cmd_simulate(cfg: Config) -> Iterable[str]:
    model = build_closed_loop(cfg.system, cfg.gains)
    outs = output_map(cfg.system, cfg.gains)
    trace = integrate(model, cfg.scenario, outputs=outs)
    header = "t," + ",".join(model.state_labels) + "," + ",".join(outs.labels)
    outputs = [trace.outputs[lbl] for lbl in outs.labels]
    return chain([header], csv_blocks(trace.times, trace.states, *outputs))


def _cmd_steady(cfg: Config) -> list[str]:
    plant = assemble_plant(cfg.system)
    dist = {lbl: s.magnitude for lbl, s in cfg.scenario.disturbances.items()}
    x = steady_state(plant, dist, dict(cfg.scenario.controls))
    return [f"{lbl} = {val:.6f}" for lbl, val in zip(plant.state_labels, x.tolist())]


def _cmd_eigen(cfg: Config) -> list[str]:
    model = build_closed_loop(cfg.system, cfg.gains)
    lam = eigenvalues(model.a)
    lines = ["re,im"]
    lines.extend(f"{z.real:.8e},{z.imag:.8e}" for z in lam.tolist())
    verdict = "STABLE" if float(np.max(lam.real)) < STABILITY_MARGIN else "UNSTABLE"
    lines.append(f"verdict,{verdict}")
    return lines


def _cmd_tune(cfg: Config) -> list[str]:
    gains, eta = tune_gains(cfg.system, cfg.tune)
    # full-precision reprs so the fragment parses back to identical gains
    lines = [f"gains.{name} = {getattr(gains, name)!r}" for name in GAIN_ORDER]
    lines.append(f"# eta = {eta!r}")
    return lines


def _cmd_pvcurve(cfg: Config) -> Iterable[str]:
    volts, amps, (vm, im, _) = pv_curve(cfg.pv, cfg.pv_v_step)
    # flag the grid row at exactly vm (the dark cell's V = 0), else insert
    # one; its power vm*im is the point's own pm
    at = int(np.searchsorted(volts, vm))
    if at == len(volts) or volts[at] != vm:
        volts = np.concatenate((volts[:at], [vm], volts[at:]))
        amps = np.concatenate((amps[:at], [im], amps[at:]))
    flags = np.zeros(len(volts), np.uint8)
    flags[at] = 1
    return chain(["V,I,P,mpp"], csv_blocks(volts, amps, volts * amps, flags=flags))


_COMMANDS = {
    "simulate": _cmd_simulate,
    "steady": _cmd_steady,
    "eigen": _cmd_eigen,
    "tune": _cmd_tune,
    "pvcurve": _cmd_pvcurve,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on first use, not at import; parse_args leaves it unchanged
    parser = argparse.ArgumentParser(
        prog="hybridlfc",
        description=(
            "Frequency-deviation studies of an isolated wind-diesel-solar "
            "hybrid power system"
        ),
    )
    parser.add_argument(
        "--command",
        required=True,
        choices=sorted(_COMMANDS),
        help="study to run",
    )
    parser.add_argument("--config", metavar="PATH", help="key = value configuration file")
    parser.add_argument("--out", metavar="PATH", help="output file (stdout when omitted)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = parse_config("" if args.config is None else read_config(args.config))

        # every check has run by the time a command returns, so a failure
        # leaves stdout empty and writes no file; simulate and pvcurve return
        # their CSV lazily, which is formatted one block at a time as written
        write_lines(_COMMANDS[args.command](cfg), args.out)
        return 0
    except (ToolkitError, OSError) as exc:
        return report(exc)


if __name__ == "__main__":
    sys.exit(main())
