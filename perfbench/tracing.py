"""Spans and counters around the public functions of each ``ergolab`` module.

The tracer wraps functions at every place they are looked up from: module
globals of each ``ergolab`` submodule that hold the function (its import
sites, e.g. ``ergolab.recurrence.iter_rotation_cells``) and class
attributes for methods (``Walls.locate``).  Nothing under ``src/`` is
edited.  A target that no longer exists is reported as absent and skipped,
so a later rename or fold does not break the traced run.

Every wrapped call opens a frame on one stack; a frame's self time is its
duration minus the durations of the frames opened inside it.  Coarse calls
(detectors, run/validate, profiles) also keep a span record
``{name, start, end, parent, experiment}`` in memory, written out when the
run ends.  Leaf calls that happen millions of times per pass (``locate``,
``contains``, ``decimal_string``, per-step generators) are aggregated into
counters instead of kept as spans, so the trace stays small.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

_perf = time.perf_counter


@dataclass(frozen=True)
class Target:
    """One traced callable: where it lives, its metric group, how to count its work."""

    module: str
    qualname: str
    group: str
    span: bool = False
    items: Callable | None = None  # result -> work items


def _len(result) -> int:
    return len(result)


def _chunk_len(item) -> int:
    return len(item[1])


TARGETS = (
    Target("ergolab.experiments", "run_experiment", "run", span=True),
    Target("ergolab.experiments", "validate_config", "validate", span=True),
    Target("ergolab.angles", "parse_angle", "parse"),
    Target("ergolab.stats", "decimal_string", "decimal"),
    Target("ergolab.recurrence", "find_zero_sums", "detector", span=True, items=_len),
    Target("ergolab.recurrence", "near_returns", "detector", span=True),
    Target("ergolab.recurrence", "joint_zero_returns", "detector", span=True, items=_len),
    Target("ergolab.recurrence", "flow_zero_set_returns", "detector", span=True, items=_len),
    Target("ergolab.recurrence", "flow_zero_near_returns", "detector", span=True, items=_len),
    Target("ergolab.recurrence", "sublinearity_estimate", "detector", span=True),
    Target("ergolab.recurrence", "TargetSet.contains", "contains"),
    Target("ergolab.recurrence", "TargetSet.contains_state", "contains"),
    Target("ergolab.cocycles", "IntegralProfile.zeros", "zeros", items=_len),
    Target("ergolab.cocycles", "iter_rotation_cells", "kernel", items=_chunk_len),
    Target("ergolab.cocycles", "iter_rotation_near_flags", "kernel", items=_chunk_len),
    Target("ergolab.cocycles", "birkhoff_sums", "reference", items=lambda item: 1),
    Target("ergolab.cocycles", "integral_profile", "profile", span=True,
           items=lambda profile: len(profile.nodes)),
    Target("ergolab.cocycles", "winding_zero_times", "winding", span=True),
    Target("ergolab.cocycles", "winding_integral", "winding"),
    Target("ergolab.systems", "special_flow_step", "flow_step", items=lambda result: result[1]),
    Target("ergolab.systems", "IntervalExchange.apply", "iet_apply"),
    Target("ergolab.fixedpoint", "Walls.locate", "locate"),
    Target("ergolab.induced", "induced_statistics", "induced", span=True,
           items=lambda stats: stats.samples),
    Target("ergolab.induced", "induce_point", "induced", items=lambda sample: sample.n),
    Target("ergolab.skew", "orbit_statistics", "skew", span=True,
           items=lambda stats: stats.steps),
)

_DETECTORS = ("find_zero_sums", "near_returns", "joint_zero_returns",
              "flow_zero_set_returns", "flow_zero_near_returns", "sublinearity_estimate")
_RECORD_DETECTORS = ("find_zero_sums", "joint_zero_returns",
                     "flow_zero_set_returns", "flow_zero_near_returns")


class Tracer:
    """Installs wrappers, collects frames and spans, derives per-layer metrics."""

    def __init__(self):
        self.stack: list[list] = []  # [name, start, child_time, span index]
        self.spans: list[list] = []  # [name, start, end, parent, experiment]
        self.experiment: str | None = None
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.items = defaultdict(int)
        self.nested_calls = defaultdict(int)  # (name, enclosing name)
        self.nested_items = defaultdict(int)
        self.group_s = defaultdict(float)  # outermost frames of each group
        self.group_depth = defaultdict(int)
        self.precision_errors = 0
        self.censored = 0
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        self._precision_type = None

    # ------------------------------------------------------------------ #
    # frames
    # ------------------------------------------------------------------ #

    def _enter(self, target: Target) -> list:
        name = target.qualname
        now = _perf()
        span = -1
        if target.span:
            parent = next((f[3] for f in reversed(self.stack) if f[3] >= 0), -1)
            span = len(self.spans)
            self.spans.append([name, now, None, parent, self.experiment])
        self.group_depth[target.group] += 1
        frame = [name, now, 0.0, span]
        self.stack.append(frame)
        return frame

    def _exit(self, target: Target, frame: list, result, exc) -> None:
        now = _perf()
        self.stack.pop()
        name = frame[0]
        duration = now - frame[1]
        self.calls[name] += 1
        self.self_s[name] += duration - frame[2]
        parent = self.stack[-1][0] if self.stack else None
        if self.stack:
            self.stack[-1][2] += duration
        self.nested_calls[name, parent] += 1
        if exc is None and target.items is not None and result is not None:
            count = target.items(result)
            self.items[name] += count
            self.nested_items[name, parent] += count
        self.group_depth[target.group] -= 1
        if self.group_depth[target.group] == 0:
            self.group_s[target.group] += duration
        if name == "induced_statistics" and result is not None:
            self.censored += result.censored
        if frame[3] >= 0:
            self.spans[frame[3]][2] = now
        if not self.stack and isinstance(exc, self._precision_type):
            self.precision_errors += 1

    def _wrap(self, target: Target, fn):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # time each resumption of the generator, not the consumer's loop
            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        frame = tracer._enter(target)
                        try:
                            item = next(inner)
                        except StopIteration:
                            tracer._exit(target, frame, None, None)
                            return
                        except BaseException as exc:
                            tracer._exit(target, frame, None, exc)
                            raise
                        tracer._exit(target, frame, item, None)
                        yield item
                finally:
                    inner.close()
        else:
            def wrapper(*args, **kwargs):
                frame = tracer._enter(target)
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    tracer._exit(target, frame, None, exc)
                    raise
                tracer._exit(target, frame, result, None)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", target.qualname)
        return wrapper

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #

    def install(self) -> None:
        import ergolab

        self._precision_type = ergolab.PrecisionExhaustedError
        sites = [m for name, m in sorted(sys.modules.items())
                 if name == "ergolab" or name.startswith("ergolab.")]
        for target in TARGETS:
            try:
                module = importlib.import_module(target.module)
                owner_name, _, attr = target.qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                fn = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{target.module}.{target.qualname}")
                continue
            wrapper = self._wrap(target, fn)
            if owner_name:
                self._replace(owner, attr, fn, wrapper)
                continue
            for site in sites:  # every module that imported the function by name
                for key, value in list(vars(site).items()):
                    if value is fn:
                        self._replace(site, key, fn, wrapper)

    def _replace(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #

    def metrics(self, rows_written: int, bytes_written: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of everything traced so far, as name -> (value, unit)."""
        c, s, it, g = self.calls, self.self_s, self.items, self.group_s

        def rate(work, seconds):
            return work / seconds if seconds > 0 else 0.0

        write_self = s["run_experiment"]
        records = sum(it[name] for name in _RECORD_DETECTORS)
        record_s = sum(s[name] for name in _RECORD_DETECTORS)
        cells_steps = it["iter_rotation_cells"]
        kernel_steps = cells_steps + it["iter_rotation_near_flags"]
        fallbacks = self.nested_calls["Walls.locate", "iter_rotation_cells"]
        contains_calls = (c["TargetSet.contains"] + c["TargetSet.contains_state"]
                          - self.nested_calls["TargetSet.contains", "TargetSet.contains_state"])
        profile_zeros = self.nested_items["IntegralProfile.zeros", "flow_zero_set_returns"]
        excursions = it["induce_point"]
        out = {
            "experiments.validate_s": (g["validate"], "s"),
            "experiments.write_self_s": (write_self, "s"),
            "experiments.rows_written": (rows_written, "count"),
            "experiments.bytes_written": (bytes_written, "bytes"),
            "experiments.rows_per_s": (rate(rows_written, write_self), "1/s"),
            "stats.decimal_string_calls": (c["decimal_string"], "count"),
            "stats.decimal_string_s": (g["decimal"], "s"),
        }
        for name in _DETECTORS:
            out[f"recurrence.{name}.self_s"] = (s[name], "s")
        out.update({
            "recurrence.records": (records, "count"),
            "recurrence.records_per_s": (rate(records, record_s), "1/s"),
            "recurrence.contains_calls": (contains_calls, "count"),
            "recurrence.contains_s": (g["contains"], "s"),
            "recurrence.flow_accept_ratio": (
                it["flow_zero_set_returns"] / profile_zeros if profile_zeros else 0.0, "ratio"),
            "cocycles.kernel_steps": (kernel_steps, "count"),
            "cocycles.kernel_s": (g["kernel"], "s"),
            "cocycles.kernel_steps_per_s": (rate(kernel_steps, g["kernel"]), "1/s"),
            "cocycles.kernel_fallbacks": (fallbacks, "count"),
            "cocycles.fallback_ratio": (fallbacks / cells_steps if cells_steps else 0.0, "ratio"),
            "cocycles.reference_steps": (it["birkhoff_sums"], "count"),
            "cocycles.reference_s": (g["reference"], "s"),
            "cocycles.reference_steps_per_s": (rate(it["birkhoff_sums"], g["reference"]), "1/s"),
            "cocycles.profile_nodes": (it["integral_profile"], "count"),
            "cocycles.profile_s": (g["profile"], "s"),
            "cocycles.profile_nodes_per_s": (rate(it["integral_profile"], g["profile"]), "1/s"),
            "cocycles.winding_evals": (c["winding_integral"], "count"),
            "cocycles.winding_s": (g["winding"], "s"),
            "systems.flow_step_calls": (c["special_flow_step"], "count"),
            "systems.flow_crossings": (it["special_flow_step"], "count"),
            "systems.flow_step_s": (g["flow_step"], "s"),
            "systems.iet_apply_calls": (c["IntervalExchange.apply"], "count"),
            "systems.iet_apply_s": (g["iet_apply"], "s"),
            "fixedpoint.locate_calls": (c["Walls.locate"], "count"),
            "fixedpoint.locate_s": (g["locate"], "s"),
            "fixedpoint.precision_errors": (self.precision_errors, "count"),
            "angles.parse_s": (g["parse"], "s"),
            "induced.samples": (it["induced_statistics"], "count"),
            "induced.censored": (self.censored, "count"),
            "induced.excursion_steps": (excursions, "count"),
            "induced.self_s": (s["induced_statistics"] + s["induce_point"], "s"),
            "induced.steps_per_s": (rate(excursions, g["induced"]), "1/s"),
            "skew.steps": (it["orbit_statistics"], "count"),
            "skew.self_s": (s["orbit_statistics"], "s"),
            "skew.steps_per_s": (rate(it["orbit_statistics"], g["skew"]), "1/s"),
        })
        return out

    def span_records(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "experiment": exp}
            for name, start, end, parent, exp in self.spans
        ]
