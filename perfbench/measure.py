"""Measuring process of the hybridlfc benchmark.

    python3 perfbench/measure.py WORKDIR WORKLOAD SEED SECONDS TRACE

run.py starts this process and reads its peak memory when it ends. It
runs the warm-up jobs, then the workload's jobs through
`hybridlfc.cli.main` until SECONDS of command time have passed; with
TRACE 1 it runs each job untraced and then traced. Every distinct output
and its config stay in WORKDIR for run.py to check, and
WORKDIR/outcomes.jsonl lists each command's outcome.
"""

import os

# Pinned before numpy loads: on a 2-core machine the BLAS thread count
# moves small-matrix timings by more than 10x.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

TRACE_DIR = Path(__file__).resolve().parent.parent / ".perfbench-out"
# Files in WORKDIR: distinct outputs and their configs, one after
# another, and one JSON line per kept output and per command.
OUTPUTS, CONFIGS, KEPT, OUTCOMES = "outputs.txt", "configs.txt", "kept.jsonl", "outcomes.jsonl"
RECENT = 64  # distinct outputs remembered for spotting repeats


class Runner:
    """Runs jobs through the CLI entry point and keeps each distinct
    (config, output) pair on disk for checking after the run.

    The CLI writes to stdout, which points at an already open file
    during the command, so a command's write is one append to the page
    cache. Creating or truncating an output file per command cost
    0.3-0.8 ms on a shared ext4 disk, with swings of several times
    between processes, and that cost belonged to the file system rather
    than to the program. An output that repeats one of the last RECENT
    distinct outputs is cut off again. What the runner learns about each
    command goes to disk at once, so the process's memory and
    garbage-collection work do not grow with the number of commands."""

    def __init__(self, work: Path, main):
        self.main = main
        self.config = work / "job.conf"
        self.outputs = os.open(work / OUTPUTS, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        self.configs = open(work / CONFIGS, "ab")
        self.kept_log = open(work / KEPT, "w", encoding="utf-8")
        self.outcome_log = open(work / OUTCOMES, "w", encoding="utf-8")
        self.recent: dict[bytes, int] = {}  # digest: kept index, oldest first
        self.kept = 0
        self.count = 0

    def close(self) -> None:
        os.close(self.outputs)
        for fh in (self.configs, self.kept_log, self.outcome_log):
            fh.close()

    def run(self, job, tracer=None) -> float:
        """Runs one job; returns its wall time."""
        self.config.write_text(job.config, encoding="utf-8")
        argv = [*job.argv, "--config", str(self.config)]
        offset = os.lseek(self.outputs, 0, os.SEEK_END)
        sink = open(self.outputs, "w", encoding="utf-8", closefd=False)
        stdout, sys.stdout = sys.stdout, sink
        span = None
        start = time.perf_counter()
        try:
            if tracer is None:
                code = self.main(argv)
            else:
                span, code = tracer.call(0, self.main, (argv,), {})
            sink.flush()
        except Exception:  # a crash is a failed command; keep measuring
            traceback.print_exc()
            code = "uncaught exception"
        finally:
            seconds = time.perf_counter() - start
            sys.stdout = stdout
            sink.close()

        error, kept, lines, new = None, -1, 0, False
        size = os.lseek(self.outputs, 0, os.SEEK_END) - offset
        if code != 0:
            error = f"exit {code}"
        elif size == 0:
            error = "no output"
        else:
            config = job.config.encode()
            digest = hashlib.sha256(len(config).to_bytes(8, "little") + config)
            for at in range(offset, offset + size, 1 << 20):
                chunk = os.pread(self.outputs, min(1 << 20, offset + size - at), at)
                digest.update(chunk)
                lines += chunk.count(b"\n")
            if span is not None:
                tracer.count[span] = size
            key = digest.digest()
            kept = self.recent.get(key, -1)
            if kept < 0:
                new = True
                kept, self.kept = self.kept, self.kept + 1
                self.recent[key] = kept
                if len(self.recent) > RECENT:
                    del self.recent[next(iter(self.recent))]
                record = [job.command, self.configs.tell(), len(config), offset, size]
                self.kept_log.write(json.dumps(record) + "\n")
                self.configs.write(config)
        if size and not new:
            os.ftruncate(self.outputs, offset)  # failed or a repeat
        self.outcome_log.write(json.dumps([job.command, seconds, error, kept, lines]) + "\n")
        self.count += 1
        return seconds


def _more(busy: float, count: int, cycle: int, seconds: float) -> bool:
    # Runs whole cycles of the job stream, and stops when one more cycle
    # of average length would end more than half a cycle past the
    # deadline.
    if count % cycle:
        return True
    return count == 0 or busy + 0.5 * cycle * busy / count < seconds


def measure(runner: Runner, stream, cycle: int, seconds: float) -> None:
    busy, count = 0.0, 0
    while _more(busy, count, cycle, seconds):
        busy += runner.run(next(stream))
        count += 1


def measure_traced(runner: Runner, stream, cycle: int, seconds: float, tracer) -> list[float]:
    """Runs each job untraced, then traced; returns the wall-time ratios."""
    ratios, busy = [], 0.0
    while _more(busy / 2, len(ratios), cycle, seconds / 2):
        job = next(stream)
        plain = runner.run(job)
        tracer.install()
        try:
            traced = runner.run(job, tracer)
        finally:
            tracer.uninstall()
        ratios.append(traced / plain)
        busy += plain + traced
    return ratios


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/self/status", encoding="ascii") as fh:
        threads = next((line.split()[1] for line in fh if line.startswith("Threads:")), "?")
    return {
        "threads_env": {var: os.environ[var] for var in THREAD_VARS},
        "process_threads": threads,
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv: list[str]) -> int:
    work, workload, seed, seconds, trace = Path(argv[0]), argv[1], int(argv[2]), float(argv[3]), argv[4] == "1"
    import spans
    import workloads
    from hybridlfc.cli import main as cli_main

    runner = Runner(work, cli_main)
    for job in workloads.warmup_jobs(workload, seed):
        runner.run(job)
    # Move what imports and warm-up left behind out of reach of later
    # collections: a fresh CLI process ends long before a full collection
    # would scan it.
    gc.collect()
    gc.freeze()
    first_timed = runner.count
    stream, cycle = workloads.jobs(workload, seed), workloads.CYCLE.get(workload, 1)
    result = {"first_timed": first_timed, "notes": [], "layers": None}
    if trace:
        tracer = spans.Tracer()
        ratios = measure_traced(runner, stream, cycle, seconds, tracer)
        result["layers"] = spans.layer_metrics(tracer, statistics.median(ratios) - 1.0)
        if tracer.missing:
            result["notes"].append(f"not traced (missing): {', '.join(tracer.missing)}")
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"spans-{workload}.npz")
        result["notes"].append(
            f"{tracer.commands} traced commands; spans in {TRACE_DIR.name}/spans-{workload}.npz"
        )
    else:
        measure(runner, stream, cycle, seconds)
    runner.close()
    result["env"] = environment()
    (work / "measure.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
