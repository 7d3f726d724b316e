"""Outside-in layer spans for the hybridlfc benchmark.

The tracer replaces each layer function with a wrapper under the name by
which its caller looks it up (`hybridlfc.cli.integrate`,
`hybridlfc.tuning.integrate`, ...), so the program itself is unchanged.
Each span records its name, start, end, parent span and command id, plus
one count taken at the same boundary. Spans stay in memory, in flat
arrays, until the run ends.
"""

from __future__ import annotations

import importlib
import math
import time
from array import array

import numpy as np


def _steps(args, kwargs) -> float:
    scenario = args[1] if len(args) > 1 else kwargs["scenario"]
    return float(math.floor(scenario.t_end / scenario.dt + 1e-9))


# (calling module, attribute, span name, count taken from the arguments).
# output_map and open_circuit_voltage have no metric of their own; their
# spans keep them out of cli.self_s.
TARGETS = (
    ("hybridlfc.cli", "parse_config", "config.parse_config", None),
    ("hybridlfc.cli", "assemble_plant", "assembly.assemble_plant", None),
    ("hybridlfc.cli", "build_closed_loop", "assembly.build_closed_loop", None),
    ("hybridlfc.cli", "output_map", "assembly.output_map", None),
    ("hybridlfc.cli", "integrate", "engine.integrate", _steps),
    ("hybridlfc.cli", "steady_state", "engine.steady_state", None),
    ("hybridlfc.cli", "eigenvalues", "lti.eigenvalues", None),
    ("hybridlfc.cli", "tune_gains", "tuning.tune_gains", None),
    ("hybridlfc.cli", "open_circuit_voltage", "solar.open_circuit_voltage", None),
    ("hybridlfc.cli", "solve_pv_current", "solar.solve_pv_current", None),
    ("hybridlfc.cli", "mppt_operating_point", "solar.mppt_operating_point", None),
    ("hybridlfc.tuning", "build_closed_loop", "assembly.build_closed_loop", None),
    ("hybridlfc.tuning", "eigenvalues", "lti.eigenvalues", None),
    ("hybridlfc.tuning", "integrate", "engine.integrate", _steps),
    ("hybridlfc.tuning", "ise", "engine.ise", None),
    # the MPPT scan's own solves
    ("hybridlfc.solar", "solve_pv_current", "solar.solve_pv_current", None),
    # inside build_closed_loop, and integrate's step-size guard
    ("hybridlfc.assembly", "assemble_plant", "assembly.assemble_plant", None),
    ("hybridlfc.engine", "eigenvalues", "lti.eigenvalues", None),
)

COMMAND = "cli.main"


class Tracer:
    """Span recorder. Name id 0 is the command span, `cli.main`, which
    the runner opens itself; every other span comes from a wrapper."""

    def __init__(self):
        self.names: list[str] = [COMMAND]
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.command = array("l")
        self.count = array("d")
        self.commands = 0
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def call(self, name_id: int, fn, args, kwargs, counter=None):
        """Run fn inside a span; returns the span's index and fn's result."""
        index = len(self.start)
        parent = self._open[-1] if self._open else -1
        if name_id == 0:
            cmd, self.commands = self.commands, self.commands + 1
        else:
            cmd = self.command[parent] if parent >= 0 else -1
        self.name_id.append(name_id)
        self.parent.append(parent)
        self.command.append(cmd)
        self.count.append(counter(args, kwargs) if counter else 0.0)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(time.perf_counter())
        try:
            return index, fn(*args, **kwargs)
        finally:
            self.end[index] = time.perf_counter()
            self._open.pop()

    def _wrap(self, name: str, fn, counter):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)

        def wrapper(*args, **kwargs):
            return self.call(name_id, fn, args, kwargs, counter)[1]

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, counter in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, counter))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def write(self, path) -> None:
        """All spans as numpy arrays: names[name_id], start and end
        (perf_counter seconds), parent span index (-1 for none),
        command id and count."""
        np.savez(
            path,
            names=np.array(self.names),
            **{f: np.array(getattr(self, f)) for f in ("name_id", "start", "end", "parent", "command", "count")},
        )


class Spans:
    """Totals over a finished trace."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.name_id = np.array(tracer.name_id, dtype=np.int64)
        self.dur = dur = np.array(tracer.end) - np.array(tracer.start)
        self.parent = np.array(tracer.parent, dtype=np.int64)
        self.count_ = np.array(tracer.count)
        # self time: duration minus what the child spans cover (children
        # of one span run one after another, so their durations add)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self.self_time = dur - child
        self.commands = tracer.commands

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.dur.size, bool)
        return self.name_id == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(np.count_nonzero(self._mask(name)))

    def seconds(self, name: str) -> float:
        return float(self.dur[self._mask(name)].sum())

    def self_seconds(self, name: str) -> float:
        return float(self.self_time[self._mask(name)].sum())

    def counted(self, name: str) -> float:
        return float(self.count_[self._mask(name)].sum())

    def calls_under(self, name: str, parent: str) -> int:
        mask = self._mask(name) & (self.parent >= 0)
        parents = self.parent[mask]
        return int(np.count_nonzero(self._mask(parent)[parents]))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics; counts and times are per CLI command."""
    s = Spans(tracer)
    n = s.commands
    per = lambda x: _ratio(x, n)
    evals = s.calls_under("assembly.build_closed_loop", "tuning.tune_gains")
    simulated = s.calls_under("engine.integrate", "tuning.tune_gains")
    return {
        "cli.self_s": per(s.self_seconds(COMMAND)),
        "cli.bytes_out": per(s.counted(COMMAND)),
        "cli.ns_per_byte": 1e9 * _ratio(s.self_seconds(COMMAND), s.counted(COMMAND)),
        "engine.integrate.calls": per(s.calls("engine.integrate")),
        "engine.integrate.s": per(s.seconds("engine.integrate")),
        "engine.steps": per(s.counted("engine.integrate")),
        "engine.ns_per_step": 1e9 * _ratio(s.seconds("engine.integrate"), s.counted("engine.integrate")),
        "engine.ise.s": per(s.seconds("engine.ise")),
        "engine.steady_state.s": per(s.seconds("engine.steady_state")),
        "tuning.tune_gains.s": per(s.seconds("tuning.tune_gains")),
        "tuning.evals": per(evals),
        "tuning.simulated": per(simulated),
        "tuning.useful_ratio": _ratio(simulated, evals),
        "tuning.self_s": per(s.self_seconds("tuning.tune_gains")),
        "assembly.build_closed_loop.calls": per(s.calls("assembly.build_closed_loop")),
        "assembly.build_closed_loop.s": per(s.seconds("assembly.build_closed_loop")),
        "assembly.assemble_plant.s": per(s.seconds("assembly.assemble_plant")),
        "lti.eigenvalues.calls": per(s.calls("lti.eigenvalues")),
        "lti.eigenvalues.s": per(s.seconds("lti.eigenvalues")),
        "config.parse_config.calls": per(s.calls("config.parse_config")),
        "config.parse_config.s": per(s.seconds("config.parse_config")),
        "solar.solve_pv_current.calls": per(s.calls("solar.solve_pv_current")),
        "solar.solve_pv_current.s": per(s.seconds("solar.solve_pv_current")),
        "solar.us_per_solve": 1e6 * _ratio(s.seconds("solar.solve_pv_current"), s.calls("solar.solve_pv_current")),
        "solar.mppt_operating_point.s": per(s.seconds("solar.mppt_operating_point")),
        "solar.mppt_solves": per(s.calls_under("solar.solve_pv_current", "solar.mppt_operating_point")),
        "trace.overhead_ratio": overhead_ratio,
    }
