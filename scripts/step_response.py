"""Closed-loop frequency response study.

Takes the whole study from --config, parsed as the CLI parses it: the
gains are `gains.*`, or with --tune the tuner's over `tune.*`, and the
simulated scenario is `tune.*`'s, the one --tune costs. Writes the
frequency deviations and power shares to CSV; with --plot the traces are
also rendered to a PNG next to the CSV.

    python3 scripts/step_response.py --config study.conf --out step.csv
    python3 scripts/step_response.py --config study.conf --tune --plot
"""

import argparse
import os
import sys
from itertools import chain

import numpy as np

from hybridlfc.assembly import build_closed_loop, output_map
from hybridlfc.cli import csv_blocks, write_lines
from hybridlfc.config import parse_config, read_config
from hybridlfc.engine import integrate, ise_evaluator
from hybridlfc.errors import ToolkitError, report
from hybridlfc.tuning import GAIN_ORDER, tune_gains

COLUMNS = ("dFs", "dFt", "dPgd", "dPgw", "dPgs", "dP1")


def run(args):
    cfg = parse_config(read_config(args.config) if args.config else "")
    system, gains, spec = cfg.system, cfg.gains, cfg.tune

    lines = []
    if args.tune:
        gains, eta = tune_gains(system, spec)
        lines.append(f"tuned gains (eta = {eta:.6e}):")
        lines.extend(f"  {name} = {getattr(gains, name)}" for name in GAIN_ORDER)

    model = build_closed_loop(system, gains)
    scenario = spec.scenario()
    trace = integrate(model, scenario, outputs=output_map(system, gains))

    dfs = trace.column("dFs")
    lines.append(f"peak |dFs| = {np.max(np.abs(dfs)):.6e} Hz (pu system)")
    lines.append(f"final dFs  = {dfs[-1]:.6e}, final dFt = {trace.column('dFt')[-1]:.6e}")
    lines.append(f"ise(dFs)   = {ise_evaluator(model, scenario)(model.a):.6e}")

    header = "t," + ",".join(COLUMNS)
    write_lines(chain([header], csv_blocks(trace.times, *map(trace.column, COLUMNS))), args.out)
    # printed once the CSV is written, so a failure leaves stdout empty
    lines.append(f"wrote {trace.times.size} rows to {args.out}")
    print("\n".join(lines))

    if args.plot:
        plot(trace, os.path.splitext(args.out)[0] + ".png")


def plot(trace, path):
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; skipping the plot", file=sys.stderr)
        return
    fig, (top, bottom) = plt.subplots(2, 1, sharex=True, figsize=(8, 6))
    top.plot(trace.times, trace.column("dFs"), label="dFs")
    top.plot(trace.times, trace.column("dFt"), label="dFt")
    top.set_ylabel("frequency deviation (Hz)")
    top.legend()
    top.grid(alpha=0.3)
    for lbl in ("dPgd", "dPgw", "dPgs", "dP1"):
        bottom.plot(trace.times, trace.column(lbl), label=lbl)
    bottom.set_xlabel("time (s)")
    bottom.set_ylabel("power deviation (pu kW)")
    bottom.legend()
    bottom.grid(alpha=0.3)
    fig.tight_layout()
    fig.savefig(path, dpi=120)
    print(f"wrote {path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", help="key = value configuration file")
    ap.add_argument("--tune", action="store_true", help="run the gain search first")
    ap.add_argument("--out", default="step_response.csv")
    ap.add_argument("--plot", action="store_true")
    try:
        run(ap.parse_args())
    except (ToolkitError, OSError) as exc:
        sys.exit(report(exc))


if __name__ == "__main__":
    main()
