#!/usr/bin/env python3
"""Benchmark of the hybridlfc command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Times fresh interpreters for set-up, then starts one measuring process
(measure.py) that runs the workload's seeded commands through
`hybridlfc.cli.main` for S seconds of command time, and checks every
output after that process has ended. Prints one line per metric and, as
the last line of stdout, one JSON object: end-to-end metrics with
--trace 0, per-layer metrics from a traced run with --trace 1. The
package is imported from src/ beside this directory; without it the
benchmark exits with code 2.
"""

import measure  # first: pins the BLAS thread count before numpy loads
import workloads

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_RUNS = 7  # fresh interpreters timed for setup_s, after one warm-up
CHILD_TIMEOUT = 150.0

# Units and names as BENCHMARK.json declares them; a run must report
# exactly its end-to-end (--trace 0) or per-layer (--trace 1) list.
with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    _DECLARED = json.load(_fh)
METRICS = {
    key: {m["name"]: m["unit"] for m in _DECLARED[key]} for key in ("end_to_end", "per_layer")
}


def spawn(argv: list[str]) -> tuple[float, int]:
    """Run a fresh interpreter to its end: (peak RSS MB, exit code).

    Its stdout goes to our stderr, so that our last stdout line stays the
    result."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=sys.stderr)
    pidfd = os.pidfd_open(proc.pid)
    try:
        if not select.select([pidfd], [], [], CHILD_TIMEOUT)[0]:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted or terminated: take the child along
        proc.kill()
        proc.wait()
        raise
    finally:
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0, proc.returncode


def setup_time(work: Path) -> tuple[float, list[str | None]]:
    """Median time of a fresh interpreter that imports hybridlfc and runs
    a trivial command (`eigen` of the paper's plant) to stdout, and each
    command's error or None."""
    import checks

    job = workloads.setup_job()
    config = work / "setup.conf"
    config.write_text(job.config, encoding="utf-8")
    argv = [sys.executable, "-m", "hybridlfc", *job.argv, "--config", str(config)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, errors = [], []
    for _ in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            raise RuntimeError("set-up command timed out") from None
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or not proc.stdout:
            errors.append(f"exit {proc.returncode}")
        else:
            errors.append(checks.check(job.command, job.config, proc.stdout.decode("utf-8")))
    return statistics.median(times[1:]), errors


def read_lines(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def read_kept(work: Path, record: list) -> tuple[str, str, str]:
    """A kept command, its config and its output."""
    command, config_at, config_len, out_at, out_len = record
    with open(work / measure.CONFIGS, "rb") as fh:
        fh.seek(config_at)
        config = fh.read(config_len).decode("utf-8")
    with open(work / measure.OUTPUTS, "rb") as fh:
        fh.seek(out_at)
        output = fh.read(out_len).decode("utf-8")
    return command, config, output


def check_outputs(work: Path, outcomes: list[list], kept: list[list]) -> list[str | None]:
    """Each command's error: its own, or why its output is wrong."""
    import checks

    verdicts = [checks.check(*read_kept(work, record)) for record in kept]
    return [error if error is not None or index < 0 else verdicts[index] for _, _, error, index, _ in outcomes]


def tail(times: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten samples beyond it
    (nearest rank), and that percentile; the median when that
    percentile would not lie above it."""
    n = len(times)
    pct = math.floor(100 - 1000 / n)  # so that n - ceil(pct n / 100) >= 10
    if pct <= 50:
        return statistics.median(times), 50
    return sorted(times)[math.ceil(pct * n / 100) - 1], pct


def work_done(workload: str, timed: list[tuple], errors: list) -> tuple[float, str]:
    ok = [lines for (_, _, _, _, lines), error in zip(timed, errors) if error is None]
    if workload == "simulate_long":
        return sum(lines - 1 for lines in ok), "trace rows"
    if workload == "tune_acceptance":
        return workloads.TUNE_BUDGET * len(ok), "cost evaluations"
    if workload == "pv_sweep":
        return sum(lines - 1 for lines in ok), "I-V points"
    return len(ok), "commands"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run(args, work: Path) -> tuple[dict, int, int, list[str], dict]:
    notes, metrics, errors = [], {}, []
    if not args.trace:
        metrics["setup_s"], errors = setup_time(work)
        notes.append(f"setup_s: median of {SETUP_RUNS} fresh interpreters running one `eigen`")

    argv = [sys.executable, str(HERE / "measure.py"), str(work), args.workload, str(args.seed), str(args.seconds), str(args.trace)]
    rss_mb, code = spawn(argv)
    if code != 0:
        raise RuntimeError(f"measuring process exited with {code}")
    result = json.loads((work / "measure.json").read_text(encoding="utf-8"))
    result["outcomes"] = read_lines(work / measure.OUTCOMES)
    result["kept"] = read_lines(work / measure.KEPT)
    notes += result["notes"]
    measured = check_outputs(work, result["outcomes"], result["kept"])
    errors += measured
    failed = [e for e in errors if e is not None]
    for error in failed[:5]:
        print(f"perfbench: failed command: {error}", file=sys.stderr)
    if args.trace:
        return result["layers"], len(errors), len(failed), notes, result["env"]

    import checks

    first = result["first_timed"]
    timed, timed_errors = result["outcomes"][first:], measured[first:]
    times = [seconds for _, seconds, _, _, _ in timed]
    metrics["peak_rss_mb"] = rss_mb
    metrics["cmd_s_p50"] = statistics.median(times)
    metrics["cmd_s_tail"], pct = tail(times)
    done, what = work_done(args.workload, timed, timed_errors)
    metrics["work_per_s"] = done / sum(times)
    metrics["ok_ratio"] = 1.0 - len(failed) / len(errors)
    metrics["eta"] = 1.0
    if args.workload == "tune_acceptance":
        # the achieved index over the reference; 1e6 when no tune succeeded
        ref = workloads.TUNE_REFERENCE["eta"]
        etas = [
            checks.tune_eta(read_kept(work, result["kept"][index])[2])
            for (_, _, _, index, _), error in zip(timed, timed_errors)
            if error is None
        ]
        eta = statistics.median(etas) if etas else 1e6 * ref
        metrics["eta"] = eta / ref
        notes.append(f"eta = {eta!r} (reference {ref!r})")
    notes.append(f"peak_rss_mb: the measuring process, which ran {len(result['outcomes'])} commands")
    notes.append(f"cmd_s_p50 over n={len(times)} commands; cmd_s_tail is p{pct} of n={len(times)}")
    notes.append(f"work_per_s counts {what}; fail_ratio = {len(failed)}/{len(errors)}")
    return metrics, len(errors), len(failed), notes, result["env"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.STREAMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # a terminated run still stops its child and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "hybridlfc" / "cli.py").is_file():
        print(f"perfbench: no hybridlfc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        metrics, attempted, failed, notes, env = run(args, work)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = METRICS["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != set(declared):
        print(f"perfbench: reported {sorted(metrics)}, declared {sorted(declared)}", file=sys.stderr)
        return 3
    env["commit"] = git_commit()
    print("perfbench env " + json.dumps(env, sort_keys=True))
    for note in notes:
        print(f"perfbench {args.workload}: {note}")
    for name, value in metrics.items():
        print(f"perfbench {args.workload}: {name} = {value:.6g} {declared[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": declared[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
