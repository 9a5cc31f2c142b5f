"""fleetlab benchmark: time whole `marl.train` / `marl.evaluate` calls from outside.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

One workload runs in one process, one call after the previous one (a closed
loop). The seed makes the city (`citygen`), the world and the network seeds.
With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it reports the per-layer metrics from spans recorded around
fleetlab's public functions, plus the tracing overhead. Human-readable lines
come first; the last line of stdout is the JSON result. The full record (and,
when traced, the spans) is written under .bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, suppress
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 5  # set-ups per --trace 0 run, one in this process, the rest in fresh ones
TIMED_PARENTS = ("marl.train", "marl.evaluate", "sim.step")  # spans that also report self time
# The time metrics are given at this reference speed: each set-up and each call
# is scaled by the reference kernel (probe.py) timed right before and after it,
# over this value, its time on an idle 2-core Xeon host. On a shared host the machine's own speed swings by tens of percent
# over minutes, and the reference kernel swings with it.
REFERENCE_PROBE_S = 0.0125


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) for the highest percentile with at least ten samples beyond it."""
    import numpy as np

    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (1 - pct / 100) >= 10:
            return pct, float(np.percentile(values, pct))
    return None


def machine_info() -> dict:
    import numpy as np

    info = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": None,
        "commit": None,
    }
    with suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    with suppress(OSError):
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                info[f"l{level}_cache"] = (index / "size").read_text().strip()
    for lib_path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["blas_threads"] = fn()
                break
    with suppress(OSError):
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text().strip()
        info["commit"] = head
    return info


def timed_setup_in_child(name: str, city: Path, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_once.py"), name, str(city), str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


class Probe:
    """probe.py in a child process; calling it gives the machine's reference time now."""

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "probe.py")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        return self

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def measure(bench, seconds: float, recorder=None, probe=None) -> dict:
    """Call until the next call would end more than half a call past `seconds`; check every call.

    With a recorder, calls alternate untraced and traced (at least one of each),
    so a drift in machine speed affects both sides of the tracing-overhead ratio
    alike. With a probe, the reference time is taken between calls, and each
    untraced call gets the mean of the two readings around it.
    """
    from tracing import traced

    steps = bench.workload.steps_per_call
    durations = {False: [], True: []}  # by whether the call was traced
    references = []  # with a probe: the reference time around each untraced call that returned
    problems, calls, failed, spent, last = [], 0, 0, 0.0, 0.0
    before = probe() if probe else None
    while calls < (2 if recorder else 1) or spent + last / 2 <= seconds:
        is_traced = recorder is not None and calls % 2 == 1
        calls += 1
        started = time.perf_counter()
        returned = False
        try:
            with traced(recorder) if is_traced else nullcontext():
                elapsed, outcome = bench.call()
            durations[is_traced].append(elapsed)
            returned = True
            found = bench.check(outcome)
        except Exception as exc:  # a failing call is counted and reported, not fatal
            if not returned:
                elapsed = time.perf_counter() - started
            found = [f"{type(exc).__name__}: {exc}"]
        if probe:
            after = probe()
            if returned and not is_traced:
                references.append((before + after) / 2)
            before = after
        spent, last = spent + elapsed, elapsed
        if found:
            failed += steps
            problems.extend(found)
    return {"untraced": durations[False], "traced": durations[True], "references": references,
            "attempted": steps * calls, "failed": failed, "problems": problems}


def per_layer(setup_rec, rec, steps: int, untraced_sps: float, traced_sps: float) -> dict:
    """Per-step layer metrics from the traced window and the traced set-up."""
    from tracing import SPAN_NAMES

    window, setup = rec.totals(), setup_rec.totals()
    m = {}
    for name in SPAN_NAMES:
        source = setup if name.split(".")[0] in ("roadnet", "scenario") else window
        scale = 1.0 if source is setup else 1.0 / steps
        m[f"{name}.ms"] = 1000.0 * source[name]["s"] * scale
        m[f"{name}.calls"] = source[name]["calls"] * scale
        if name in TIMED_PARENTS:
            m[f"{name}.self_ms"] = 1000.0 * source[name]["self_s"] * scale
    m["gnn.first_forward.ms"] = 1000.0 * setup["gnn.forward_graph"]["s"]
    m["roadnet.dual_edges"] = setup_rec.counts["roadnet.dual_edges"]
    m["gnn.tensors"] = rec.tensors / steps
    m["python.gc.ms"] = 1000.0 * rec.gc_seconds / steps
    m["python.gc.collections"] = rec.gc_collections / steps
    for name in ("marl.samples", "sim.relocations", "sim.idle_at_match", "sim.served",
                 "sim.generated", "sim.drivers", "sim.open_orders"):
        m[name] = rec.counts[name] / steps
    m["sim.match_yield"] = rec.counts["sim.served"] / max(rec.counts["sim.idle_at_match"], 1)

    root_s = sum(window[name]["s"] for name in ("marl.train", "marl.evaluate"))
    for layer in ("roadnet", "sim", "gnn", "marl"):  # no scenario code runs inside a call
        layer_s = sum(v["self_s"] for k, v in window.items() if k.split(".")[0] == layer)
        m[f"share.{layer}"] = 100.0 * layer_s / root_s

    step_ms = [1000.0 * s for s in rec.step_seconds()]
    tail = tail_percentile(step_ms) or (100.0, max(step_ms))
    m["trace.steps"] = len(step_ms)
    m["trace.step_ms.p50"] = statistics.median(step_ms)
    m["trace.step_ms.tail_pct"], m["trace.step_ms.tail"] = tail
    m["trace.steps_per_s"] = traced_sps
    m["trace.untraced_steps_per_s"] = untraced_sps
    m["trace.overhead_pct"] = 100.0 * (untraced_sps / traced_sps - 1.0)
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import citygen
        import tracing
        from fleetlab import sim
        from workloads import WORKLOADS, Bench
    except ImportError as exc:
        print(f"benchmark: cannot load fleetlab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    why = next(w["why"] for w in declared["workloads"] if w["name"] == workload.name)

    load_start = os.getloadavg()
    tag = f"{workload.name}-seed{args.seed}"
    city = WORK / tag / "city"
    inputs_digest = citygen.write_city(city, workload.city, args.seed)
    bench = Bench(workload, city, args.seed)
    step_span = "gnn.forward_graph" if workload.trains else "marl.policy_from_q"

    record = {"workload": workload.name, "why": why, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "steps_per_call": workload.steps_per_call,
              "inputs_digest": inputs_digest}
    with nullcontext() if args.trace else Probe() as probe:
        if args.trace:
            setup_rec = tracing.Recorder(step_span)
            with tracing.traced(setup_rec):
                bench.setup()
        else:
            probes = [probe()]
            setup_samples = []
            for _ in range(SETUP_SAMPLES - 1):
                setup_samples.append(timed_setup_in_child(workload.name, city, args.seed))
                probes.append(probe())
            setup_samples.append(bench.setup())
            probes.append(probe())
            setup_references = [(a + b) / 2 for a, b in zip(probes, probes[1:])]
            record.update(setup_samples_s=setup_samples, setup_reference_s=setup_references)

        # warm-up: one untimed call; it fixes the reference trajectory and the response rate
        _, reference = bench.call()
        problems = bench.check(reference)
        record["trajectory_digest"] = bench.reference

        rec = tracing.Recorder(step_span) if args.trace else None
        window = measure(bench, args.seconds, recorder=rec, probe=probe)
    steps = workload.steps_per_call
    untraced = window["untraced"]
    if args.trace:
        traced = window["traced"]
        untraced_sps, traced_sps = steps * len(untraced) / sum(untraced), steps * len(traced) / sum(traced)
        metrics = per_layer(setup_rec, rec, steps * len(traced), untraced_sps, traced_sps)
        spans_path = WORK / f"{tag}-spans.json"
        spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "step"],
                                          "setup": setup_rec.spans, "window": rec.spans}))
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        call_sps = [steps / d for d in untraced]
        scaled_sps = [v * r / REFERENCE_PROBE_S for v, r in zip(call_sps, window["references"])]
        scaled_setup = [v * REFERENCE_PROBE_S / r for v, r in zip(setup_samples, setup_references)]
        metrics = {
            "steps_per_s": statistics.median(scaled_sps),
            "setup_s": statistics.median(scaled_setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "response_rate": sim.order_response_rate(reference.world.counters),
        }
        slow = tail_percentile([d * REFERENCE_PROBE_S / r for d, r in zip(untraced, window["references"])])
        record.update(steps_per_s_calls=call_sps, call_reference_s=window["references"],
                      measured_steps_per_s=statistics.median(call_sps),
                      measured_setup_s=statistics.median(setup_samples))
        record["steps_per_s_tail"] = {"percentile": slow[0], "value": steps / slow[1]} if slow else None

    attempted = steps + window["attempted"]
    failed = (steps if problems else 0) + window["failed"]
    problems += window["problems"]
    reported = declared["per_layer" if args.trace else "end_to_end"]
    record.update(
        machine=machine_info(), load_avg_start=load_start, load_avg_end=os.getloadavg(),
        attempted=attempted, failed=failed, error_rate=failed / attempted, problems=problems[:50],
        metrics={m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in reported},
    )
    (WORK / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    moves = json.loads((HERE / "moves.json").read_text())["moves"]
    print(f"{workload.name} seed={args.seed} trace={args.trace}: {why}")
    print(f"  inputs {inputs_digest}  trajectory {bench.reference}  "
          f"timed calls of {steps} steps: {len(untraced)} untraced, {len(window['traced'])} traced")
    for name, entry in record["metrics"].items():
        target = moves.get(name, moves.get(name.rsplit(".", 1)[0], {})).get(workload.name)
        print(f"  {name:36s} {entry['value']:14.6g} {entry['unit']:6s}" + (f" -> {', '.join(target)}" if target else ""))
    print(f"  {'error_rate':36s} {record['error_rate']:14.6g} ratio  ({failed} of {attempted} steps failed)")
    if not args.trace:
        tail = record["steps_per_s_tail"]
        print(f"  as measured (reference {statistics.median(window['references']):.4g} s, "
              f"scaled to {REFERENCE_PROBE_S:g} s): steps_per_s {record['measured_steps_per_s']:.4g}, "
              f"setup_s {record['measured_setup_s']:.4g}")
        print(f"  steps_per_s over {len(call_sps)} calls: median {metrics['steps_per_s']:.4g}, "
              + (f"p{tail['percentile']:g} of call time gives {tail['value']:.4g}" if tail
                 else "too few calls for a tail percentile"))
    for problem in problems[:10]:
        print(f"  FAILED CHECK: {problem}")
    m = record["machine"]
    print(f"  machine: {m['nproc']}x {m['cpu_model']}, L2 {m.get('l2_cache')}, L3 {m.get('l3_cache')}, "
          f"python {m['python']}, numpy {m['numpy']}, blas threads {m['blas_threads']}, commit {m['commit']}, "
          f"load {load_start[0]:.2f} -> {record['load_avg_end'][0]:.2f}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
