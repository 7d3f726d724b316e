"""PV cell curve sweep across irradiance levels.

Traces the I-V and P-V characteristics at each requested irradiance,
marks the maximum power point found by the grid-plus-golden-section
search, and writes everything to one CSV. With --plot the P-V family is
rendered to a PNG next to the CSV.

    python3 scripts/pv_sweep.py --irradiance 200,400,600,800,1000 --plot
"""

import argparse
import sys

import numpy as np

from hybridlfc.solar import PvCellParams, open_circuit_voltage, pv_curve, solve_pv_current


def sweep(cell: PvCellParams, v_step: float):
    """Rows of (V, I, P) plus the refined maximum power point."""
    _, amps, mpp = pv_curve(cell, v_step)
    # the sweep's grid runs on to the point past Voc when Voc lies in the
    # upper half of a step; pv_curve stops at Voc
    grid = np.arange(0.0, open_circuit_voltage(cell) + 0.5 * v_step, v_step)
    amps += solve_pv_current(cell, grid[len(amps) :]).tolist()
    return [(v, i, v * i) for v, i in zip(grid.tolist(), amps)], mpp


def run(args):
    levels = [float(x) for x in args.irradiance.split(",")]
    all_rows = []
    mpps = []
    for lam in levels:
        cell = PvCellParams(lam=lam, T=args.temperature)
        rows, (vm, im, pm) = sweep(cell, args.v_step)
        all_rows.extend((lam, v, i, p) for v, i, p in rows)
        mpps.append((lam, vm, im, pm))
        print(
            f"lam = {lam:7.1f} W/m^2: Voc = {open_circuit_voltage(cell):.4f} V, "
            f"MPP = {pm:.4f} W at {vm:.4f} V"
        )

    data = np.array(all_rows)
    np.savetxt(args.out, data, delimiter=",", header="lam,V,I,P", comments="")
    print(f"wrote {data.shape[0]} rows to {args.out}")

    if args.plot:
        plot(levels, all_rows, mpps, args.out.rsplit(".", 1)[0] + ".png")


def plot(levels, rows, mpps, path):
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; skipping the plot", file=sys.stderr)
        return
    fig, ax = plt.subplots(figsize=(7, 5))
    arr = np.array(rows)
    for lam in levels:
        sel = arr[arr[:, 0] == lam]
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
        default="200,400,600,800,1000",
        help="comma-separated irradiance levels (W/m^2)",
    )
    ap.add_argument("--temperature", type=float, default=25.0, help="cell temp (degC)")
    ap.add_argument("--v-step", type=float, default=0.005, help="voltage grid (V)")
    ap.add_argument("--out", default="pv_sweep.csv")
    ap.add_argument("--plot", action="store_true")
    run(ap.parse_args())


if __name__ == "__main__":
    main()
