"""Command-line front end: configuration loading, the five study
commands and CSV/report serialization.

Exit codes: 0 success, 2 configuration errors, 4 step-size rejection,
3 any other numeric failure. Errors print one machine-parsable line to
stderr, `error: <Class>: <message>`.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import sys
from dataclasses import replace

import numpy as np

from .assembly import assemble_plant, build_closed_loop, output_map
from .config import Config, parse_config
from .engine import integrate, steady_state
from .errors import ConfigError, ToolkitError, UnstableStepSize
from .lti import eigenvalues
from .solar import pv_curve
from .tuning import GAIN_ORDER, STABILITY_MARGIN, tune_gains

__all__ = ["main"]


def _csv_rows(data: np.ndarray) -> list[str]:
    """Each row of a 2-D array as one line of %.8e values, the same bytes
    as joining f"{x:.8e}" per value but with one format call per row."""
    row = ",".join(["%.8e"] * data.shape[1])
    # row by row: data.tolist() would hold every value of a long trace
    # as a Python float at once
    return [row % tuple(r.tolist()) for r in data]


def _cmd_simulate(cfg: Config) -> list[str]:
    model = build_closed_loop(cfg.system, cfg.gains)
    outs = output_map(cfg.system)
    trace = integrate(model, cfg.scenario, outputs=outs)
    header = "t," + ",".join(model.state_labels) + "," + ",".join(outs.labels)
    data = np.column_stack(
        [trace.times, trace.states] + [trace.outputs[lbl] for lbl in outs.labels]
    )
    return [header, *_csv_rows(data)]


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


def _cmd_pvcurve(cfg: Config) -> list[str]:
    volts, amps, (vm, im, pm) = pv_curve(cfg.pv, cfg.pv_v_step)
    rows = [[v, i, v * i, 0] for v, i in zip(volts, amps)]
    # flag the grid row at exactly vm (the dark cell's V = 0), else insert one
    at = bisect.bisect_left(volts, vm)
    if at < len(volts) and volts[at] == vm:
        rows[at][3] = 1
    else:
        rows.insert(at, [vm, im, pm, 1])

    lines = ["V,I,P,mpp"]
    lines.extend("%.8e,%.8e,%.8e,%d" % tuple(row) for row in rows)
    return lines


_COMMANDS = {
    "simulate": _cmd_simulate,
    "steady": _cmd_steady,
    "eigen": _cmd_eigen,
    "tune": _cmd_tune,
    "pvcurve": _cmd_pvcurve,
}


def _report(exc: BaseException) -> None:
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)


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
    parser.add_argument(
        "--include-solar",
        choices=("true", "false"),
        help="override system.include_solar",
    )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        text = ""
        if args.config is not None:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        cfg = parse_config(text)
        if args.include_solar is not None:
            cfg = replace(
                cfg, system=replace(cfg.system, include_solar=args.include_solar == "true")
            )

        lines = _COMMANDS[args.command](cfg)
        payload = "\n".join(lines) + "\n"
        if args.out is None:
            sys.stdout.write(payload)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        return 0
    except ConfigError as exc:
        _report(exc)
        return 2
    except UnstableStepSize as exc:
        _report(exc)
        return 4
    except ToolkitError as exc:
        _report(exc)
        return 3
    except OSError as exc:
        _report(exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
