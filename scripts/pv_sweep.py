"""PV cell curve sweep across irradiance levels.

Traces the I-V and P-V characteristics at each requested irradiance on
`pv_curve`'s voltage grid, which stops at Voc, marks the maximum power
point that `pv_curve` solves for by Newton's method, and writes
everything to one CSV. With --plot the P-V family is rendered to a PNG
next to the CSV.

    python3 scripts/pv_sweep.py --irradiance 200,400,600,800,1000 --plot
"""

import argparse
import sys
from itertools import chain

import numpy as np

from hybridlfc.cli import csv_blocks, write_lines
from hybridlfc.errors import ToolkitError, report
from hybridlfc.solar import PvCellParams, open_circuit_voltage, pv_curve


def irradiance_levels(text: str) -> list[float]:
    """The levels of a comma-separated --irradiance (W/m^2)."""
    return [float(x) for x in text.split(",")]


def run(args):
    levels = args.irradiance
    curves = []
    mpps = []
    lines = []
    for lam in levels:
        cell = PvCellParams(lam=lam, T=args.temperature)
        volts, amps, (vm, im, pm) = pv_curve(cell, args.v_step)
        curves.append(np.column_stack((np.full(volts.size, lam), volts, amps, volts * amps)))
        mpps.append((lam, vm, im, pm))
        lines.append(
            f"lam = {lam:7.1f} W/m^2: Voc = {open_circuit_voltage(cell):.4f} V, "
            f"MPP = {pm:.4f} W at {vm:.4f} V"
        )

    data = np.concatenate(curves)
    write_lines(chain(["lam,V,I,P"], csv_blocks(data)), args.out)
    # printed once the CSV is written, so a failure leaves stdout empty
    lines.append(f"wrote {data.shape[0]} rows to {args.out}")
    print("\n".join(lines))

    if args.plot:
        plot(levels, data, mpps, args.out.rsplit(".", 1)[0] + ".png")


def plot(levels, data, mpps, path):
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; skipping the plot", file=sys.stderr)
        return
    fig, ax = plt.subplots(figsize=(7, 5))
    for lam in levels:
        sel = data[data[:, 0] == lam]
        ax.plot(sel[:, 1], sel[:, 3], label=f"{lam:.0f} W/m$^2$")
    mp = np.array(mpps)
    ax.plot(mp[:, 1], mp[:, 3], "k*", markersize=10, label="MPP")
    ax.set_xlabel("terminal voltage (V)")
    ax.set_ylabel("power (W)")
    ax.grid(alpha=0.3)
    ax.legend()
    fig.tight_layout()
    fig.savefig(path, dpi=120)
    print(f"wrote {path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--irradiance",
        type=irradiance_levels,
        default="200,400,600,800,1000",
        help="comma-separated irradiance levels (W/m^2)",
    )
    ap.add_argument("--temperature", type=float, default=25.0, help="cell temp (degC)")
    ap.add_argument("--v-step", type=float, default=0.005, help="voltage grid (V)")
    ap.add_argument("--out", default="pv_sweep.csv")
    ap.add_argument("--plot", action="store_true")
    try:
        run(ap.parse_args())
    except (ToolkitError, OSError) as exc:
        sys.exit(report(exc))


if __name__ == "__main__":
    main()
