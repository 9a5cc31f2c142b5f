"""Outside-in tracing: spans around fleetlab's public functions, from the benchmark.

`traced(recorder)` swaps each function in `SPANS` for a wrapper at the module
attribute its callers look up (`marl.policy_from_q`, `sim.relocate`, ...) and
puts the originals back on exit, so untraced runs execute unmodified code. A
span is [name, start, end, parent index, step id]. A function that a later
change renames or inlines keeps its span name and reads as zero calls.
"""

from __future__ import annotations

import gc
import time
from collections import Counter
from contextlib import contextmanager, suppress

from fleetlab import gnn, marl, roadnet, scenario, sim
from fleetlab.gnn import autodiff

# (object holding the attribute, attribute, span name); several attributes may
# feed one span name when callers reach the same function by different routes.
SPANS = (
    (marl, "train", "marl.train"),
    (marl, "evaluate", "marl.evaluate"),
    (marl, "policy_from_q", "marl.policy_from_q"),
    (marl, "td_targets", "marl.td_targets"),
    (marl, "soft_td_targets", "marl.soft_td_targets"),
    (marl, "dqn_loss", "marl.dqn_loss"),
    (marl, "forward_graph", "gnn.forward_graph"),
    (marl, "forward", "gnn.forward"),
    (marl, "backward", "gnn.backward"),
    (marl, "sgd_step", "gnn.optimizer"),
    (gnn.AdamOptimizer, "step", "gnn.optimizer"),
    (marl, "copy_into_target", "gnn.copy_into_target"),
    (marl, "init_params", "gnn.init_params"),
    (marl, "build_dual_graph", "roadnet.build_dual_graph"),
    (roadnet, "build_dual_graph", "roadnet.build_dual_graph"),
    (scenario, "load_scenario_dir", "scenario.load_scenario_dir"),
    (sim, "init_world", "sim.init_world"),
    (sim, "step", "sim.step"),
    (sim, "advance_drivers", "sim.advance_drivers"),
    (sim, "relocate", "sim.relocate"),
    (sim, "assign_orders", "sim.assign_orders"),
    (sim, "spawn_and_expire_orders", "sim.spawn_and_expire_orders"),
    (sim, "rebalance_drivers", "sim.rebalance_drivers"),
    (sim, "observe", "sim.observe"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SPANS))


def _count_step(counts, args, result):
    obs, outcome = result
    counts["sim.served"] += outcome.served
    counts["sim.generated"] += outcome.generated
    counts["sim.idle_at_match"] += len(outcome.samples)  # one sample per driver idle at matching
    counts["sim.drivers"] += args[0].total_drivers()
    counts["sim.open_orders"] += int(obs.call_counts.sum())


# Counts read from a span's arguments and result. A hook that no longer fits
# the API adds nothing instead of failing the run.
HOOKS = {
    "sim.step": _count_step,
    "sim.relocate": lambda counts, args, result: counts.update({"sim.relocations": len(result)}),
    "marl.dqn_loss": lambda counts, args, result: counts.update({"marl.samples": len(args[1])}),
    "roadnet.build_dual_graph": lambda counts, args, result: counts.update(
        {"roadnet.dual_edges": len(result.edges)}
    ),
}


class Recorder:
    """Spans, counts, `Tensor` constructions and GC pauses, kept in memory."""

    def __init__(self, step_span: str):
        self.step_span = step_span  # a call to this span opens a new step
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.step = -1  # id of the open step, -1 outside any step
        self.steps_opened = 0
        self.tensors = 0
        self.gc_seconds = 0.0
        self.gc_collections = 0
        self._stack: list[int] = []
        self._gc_start = 0.0

    def wrap(self, name, fn):
        spans, stack, hook = self.spans, self._stack, HOOKS.get(name)

        def wrapper(*args, **kwargs):
            if not stack:
                self.step = -1
            if name == self.step_span:
                self.step = self.steps_opened
                self.steps_opened += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.step]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                with suppress(TypeError, AttributeError, ValueError, IndexError):
                    hook(self.counts, args, result)
            return result

        return wrapper

    def on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_seconds += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - inner
        return out

    def step_seconds(self) -> list[float]:
        """Duration of each step: from its first span's start to its last span's end."""
        bounds: dict[int, list[float]] = {}
        for name, start, end, parent, step in self.spans:
            if step < 0 or parent < 0:
                continue
            lo, hi = bounds.setdefault(step, [start, end])
            bounds[step] = [min(lo, start), max(hi, end)]
        return [hi - lo for _, (lo, hi) in sorted(bounds.items())]


@contextmanager
def traced(recorder: Recorder):
    """Install the span wrappers, the `Tensor` counter and the GC callback."""
    saved = []
    for owner, attr, name in SPANS:
        fn = getattr(owner, attr, None)
        if fn is not None:
            saved.append((owner, attr, fn))
            setattr(owner, attr, recorder.wrap(name, fn))
    tensor_init = autodiff.Tensor.__init__

    def counting_init(self, *args, **kwargs):
        recorder.tensors += 1
        tensor_init(self, *args, **kwargs)

    autodiff.Tensor.__init__ = counting_init
    gc.callbacks.append(recorder.on_gc)
    try:
        yield recorder
    finally:
        gc.callbacks.remove(recorder.on_gc)
        autodiff.Tensor.__init__ = tensor_init
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
