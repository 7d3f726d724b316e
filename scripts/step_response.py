"""Closed-loop frequency response study.

Builds the hybrid system with a chosen gain set (from a config file, the
built-in demo set, or a fresh tuner run), applies step disturbances and
writes the frequency deviations and power shares to CSV. With --plot the
traces are also rendered to a PNG next to the CSV.

    python3 scripts/step_response.py --dpl 0.01 --out step.csv
    python3 scripts/step_response.py --tune --dpl 0.01 --dpiw 0.01 --plot
"""

import argparse
import dataclasses
import re
import sys
from itertools import chain

import numpy as np

from hybridlfc.assembly import ControllerGains, build_closed_loop, output_map
from hybridlfc.cli import csv_blocks, write_lines
from hybridlfc.config import parse_config, read_config
from hybridlfc.engine import integrate, ise_evaluator
from hybridlfc.errors import InvariantViolation, ToolkitError, report
from hybridlfc.tuning import GAIN_ORDER, tune_gains

# demo gains: stable everywhere, nothing optimized about them
DEMO_GAINS = ControllerGains(Kdp=10.0, Kdi=5.0, Kpp=10.0, Kpi=5.0, Ksp=10.0, Ksi=5.0)

COLUMNS = ("dFs", "dFt", "dPgd", "dPgw", "dPgs", "dP1")


def run(args):
    cfg = parse_config(read_config(args.config) if args.config else "")
    system, gains = cfg.system, (cfg.gains if args.config else DEMO_GAINS)
    # one spec: --tune costs the very steps, horizon and step size simulated,
    # over the config's box, budget and per_loop
    try:
        spec = dataclasses.replace(
            cfg.tune, dpl=args.dpl, dpiw=args.dpiw, dpis=args.dpis, onset=args.onset,
            t_end=args.t_end, dt=args.dt, eta_include_ft=True,
        )
    except InvariantViolation as exc:
        # cfg.tune was valid, so the refused value came from a flag: name it
        # (tune.dPl -> --dpl, tune.t_end -> --t-end), not its config key
        flag = re.sub(r"tune\.(\w+)", lambda m: "--" + m[1].lower().replace("_", "-"), str(exc))
        raise InvariantViolation(flag) from None

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
        plot(trace, args.out.rsplit(".", 1)[0] + ".png")


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
    ap.add_argument("--dpl", type=float, default=0.01, help="load step (pu kW)")
    ap.add_argument("--dpiw", type=float, default=0.0, help="wind input step (pu kW)")
    ap.add_argument("--dpis", type=float, default=0.0, help="solar input step (pu kW)")
    ap.add_argument("--onset", type=float, default=1.0, help="step onset (s)")
    ap.add_argument("--t-end", type=float, default=60.0)
    ap.add_argument("--dt", type=float, default=0.005)
    ap.add_argument("--out", default="step_response.csv")
    ap.add_argument("--plot", action="store_true")
    try:
        run(ap.parse_args())
    except (ToolkitError, OSError) as exc:
        sys.exit(report(exc))


if __name__ == "__main__":
    main()
