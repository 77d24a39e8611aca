#!/usr/bin/env python3
"""ModChecker benchmark: three closed-loop workloads on two clocks.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pool_sweep --seed 1 --seconds 30 \\
        --trace 0

A run measures a fixed number of operations: as many as ``--seconds``
holds on the reference machine, rounded to whole module rotations, so
every run of a seed does the same work (see :func:`ops_for`).

Every wall time is scaled to the reference machine's speed by a fixed
CPU probe run before each set-up and operation (see
``perfbench/speedprobe.py``); the raw figures are printed beside.

``--trace 0`` measures the end-to-end metrics untraced. ``--trace 1``
runs the operations of half a run twice: untraced, then, on a fresh
set-up from the same seed, with every layer entry point wrapped. It
reports the per-layer metrics, normalised per operation, and the
tracing overhead (traced over untraced wall time on the identical
operation sequence). Spans are written to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``failed``
counts operations whose verdict disagreed with the benchmark's tamper
ledger or that raised; ``correct`` says that every completed operation
returned a complete verdict set (every VM of the pool or fleet judged)
and that every figure is finite. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import math
import resource
import signal
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.speedprobe import (  # noqa: E402
    REFERENCE_S, probe, scale_factors)
OUT_DIR = ROOT / ".perfbench_out"

#: set-ups per run; ``setup_s`` is their median
SETUPS = {"pool_sweep": 9, "fleet_steady": 3, "tamper_repair": 3}
#: a run stops early once this many times ``--seconds`` have passed
CAP_FACTOR = 2.5
#: an operation still running after this many wall seconds is aborted,
#: counted as failed, and ends the run (bounds the run's length)
OP_TIMEOUT_S = 30.0


class OpTimeout(Exception):
    """An operation overran :data:`OP_TIMEOUT_S`."""


@contextlib.contextmanager
def watchdog(seconds: float):
    def fire(_signum, _frame):
        raise OpTimeout(f"operation exceeded {seconds:g} s")
    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Measured:
    """What one measured phase produced."""

    latencies: list[float] = field(default_factory=list)
    #: one speed probe per operation, taken just before it
    probes: list[float] = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: an operation raised or timed out, which ended the run
    aborted: bool = False
    #: the wall-time cap ended the run before its operation count
    capped: bool = False

    @property
    def ops(self) -> int:
        return len(self.latencies)


def ops_for(workload, seconds: float) -> int:
    """Operations in a run of ``seconds`` on the reference machine.

    Every run of a seed does the same work, rounded to whole rotations
    (``workload.quantum``), so a faster or slower moment of the machine
    changes only the times, never which operations were measured.
    """
    quanta = max(1, math.ceil(seconds * workload.rate / workload.quantum))
    return quanta * workload.quantum


def measure(workload, ops: int, *, max_seconds: float = math.inf,
            tracer=None) -> Measured:
    """Closed loop: run ``ops`` operations, stopping early only once
    ``max_seconds`` of wall time have passed and one whole rotation
    (``workload.quantum`` operations) is done."""
    run = Measured()
    deadline = perf_counter() + max_seconds
    while run.ops < ops:
        if run.ops >= workload.quantum and perf_counter() >= deadline:
            run.capped = True
            break
        run.probes.append(probe())
        if tracer is not None:
            tracer.op = run.ops
        carried = workload.plant()
        start = perf_counter()
        try:
            with watchdog(OP_TIMEOUT_S):
                out = workload.run_op()
        except Exception:          # noqa: BLE001 — a failed operation
            run.latencies.append(perf_counter() - start)
            run.attempted += carried
            run.failed += carried
            run.aborted = True
            traceback.print_exc()
            break
        run.latencies.append(perf_counter() - start)
        outcome = workload.verify(out)
        for note in outcome.notes:
            print(f"failed operation: {note}", file=sys.stderr)
        run.outcomes.append(outcome)
        run.attempted += outcome.attempted
        run.failed += outcome.failed
    return run


def timed_setup(make_workload, count: int):
    """Build the workload ``count`` times; keep the last, time each,
    and probe the machine's speed before each."""
    times, probes = [], []
    workload = None
    for _ in range(count):
        workload = None
        gc.collect()
        probes.append(probe())
        workload = make_workload()
        start = perf_counter()
        workload.setup()
        times.append(perf_counter() - start)
    return workload, times, probes


def at_reference_speed(setup_times: list[float], setup_probes: list[float],
                       run: Measured) -> tuple[list[float], Measured]:
    """Set-up times and the run with each wall time scaled to the
    reference machine's speed by the probes around it."""
    factors = scale_factors(setup_probes + run.probes)
    setups = [t * f for t, f in zip(setup_times, factors)]
    ops = factors[len(setup_times):]
    return setups, dataclasses.replace(
        run, latencies=[t * f for t, f in zip(run.latencies, ops)])


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of ``values`` (all of them below four)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def sim_ms_per_vm_check(run: Measured) -> float:
    """Simulated Dom0 ms per verdict: the interquartile mean over the
    run's operations of each one's clock cost over its verdicts.

    A mean over the whole run would follow the few rounds in which a
    tampered canonical reference floods its shard (each costs about 7x
    a normal round) and so vary with the seed by more than any change
    to the program; those rounds still count as failed operations.
    """
    per_op = [o.sim_s * 1e3 / o.vm_checks for o in run.outcomes
              if o.vm_checks]
    return interquartile_mean(per_op) if per_op else 0.0


def complete(workload, run: Measured) -> bool:
    """Every completed operation judged its whole pool or fleet."""
    return bool(run.outcomes) and all(o.vm_checks >= workload.n_vms
                                      for o in run.outcomes)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(workload, setup_times: list[float],
               run: Measured) -> dict[str, tuple[float, str]]:
    lat_ms = [t * 1e3 for t in run.latencies]
    deciles = statistics.quantiles(lat_ms, n=10, method="inclusive")
    rates = [o.vm_checks / t for o, t in zip(run.outcomes, run.latencies)]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "vm_checks_per_s": (statistics.median(rates), "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (deciles[8], "ms"),
        "sim_ms_per_vm_check": (sim_ms_per_vm_check(run), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def speed_line(probes: list[float]) -> str:
    median = statistics.median(probes)
    return (f"speed probe: median {median * 1e3:.2f} ms over "
            f"{len(probes)} probes, reference {REFERENCE_S * 1e3:.2f} ms: "
            f"wall times below are scaled by {REFERENCE_S / median:.3f}")


def summary_lines(workload, run: Measured) -> list[str]:
    """Figures printed for reading only (not in the result object)."""
    lines = [f"operations timed: {run.ops} (latency samples), "
             f"ledgered operations: {run.attempted}, failed: {run.failed}",
             f"failed_frac: {run.failed / max(run.attempted, 1):.4f} ratio"]
    mttr = [m for o in run.outcomes for m in o.mttr_s]
    if workload.name == "tamper_repair":
        value = statistics.fmean(mttr) if mttr else float("nan")
        lines.append(f"mttr_sim_s: {value:.6f} s (over {len(mttr)} "
                     f"verified repairs)")
    if run.aborted:
        lines.append("run ended early: an operation raised or timed out")
    if run.capped:
        lines.append("run ended early: wall-time cap reached")
    return lines


def read_counters(workload, tracer) -> dict[str, float]:
    """Cumulative counters from the program's public state."""
    vmi = [v.stats for v in tracer.vmis]
    checkers = workload.checkers()
    manifests = [c.manifests.stats for c in checkers]
    repairs = [c.repair.stats for c in checkers if c.repair is not None]
    return {
        "page_cache_hits": sum(s.page_cache_hits for s in vmi),
        "pages_mapped": sum(s.pages_mapped for s in vmi),
        "batch_fallbacks": sum(s.batch_fallbacks for s in vmi),
        "manifest_hits": sum(s.hits for s in manifests),
        "manifest_lookups": sum(s.lookups for s in manifests),
        "manifest_invalidations": sum(sum(s.invalidations.values())
                                      for s in manifests),
        "trap_validations": sum(c.trap_validations for c in checkers),
        "trap_pages_checked": sum(c.trap_pages_checked for c in checkers),
        "trap_fallbacks": sum(sum(c.trap_fallbacks.values())
                              for c in checkers),
        "pair_replays": sum(c.pair_replays for c in checkers),
        "repair_attempts": sum(s.attempts for s in repairs),
        "repair_bytes_written": sum(s.bytes_written for s in repairs),
        "rva_bytes": tracer.rva_bytes,
        "rva_slots_replaced": tracer.rva_slots_replaced,
    }


def counter_metrics(before: dict[str, float], after: dict[str, float],
                    ops: int) -> dict[str, tuple[float, str]]:
    d = {key: after[key] - before[key] for key in after}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0
    return {
        "vmi.page_cache.hit_ratio": (ratio(
            d["page_cache_hits"],
            d["page_cache_hits"] + d["pages_mapped"]), "ratio"),
        "vmi.batch_fallbacks": (d["batch_fallbacks"] / ops, "count/op"),
        "rva.bytes": (d["rva_bytes"] / ops, "B/op"),
        "rva.slots_replaced": (d["rva_slots_replaced"] / ops, "count/op"),
        "modchecker.manifest.hit_ratio": (ratio(
            d["manifest_hits"], d["manifest_lookups"]), "ratio"),
        "modchecker.manifest.invalidations": (
            d["manifest_invalidations"] / ops, "count/op"),
        "modchecker.trap_validations": (d["trap_validations"] / ops,
                                        "count/op"),
        "modchecker.trap_pages_checked": (d["trap_pages_checked"] / ops,
                                          "count/op"),
        "modchecker.trap_fallbacks": (d["trap_fallbacks"] / ops,
                                      "count/op"),
        "modchecker.pair_replays": (d["pair_replays"] / ops, "count/op"),
        "repair.attempts": (d["repair_attempts"] / ops, "count/op"),
        "repair.bytes_written": (d["repair_bytes_written"] / ops, "B/op"),
    }


def wall_scale(run: Measured) -> float:
    """One factor to the reference machine's speed for a whole phase."""
    return REFERENCE_S / statistics.median(run.probes)


def per_layer(workload, tracer, traced: Measured, untraced: Measured,
              counters_before: dict) -> dict[str, tuple[float, str]]:
    """Per-operation layer figures; wall figures at reference speed."""
    ops = max(traced.ops, 1)
    scale = {"calls": 1.0, "sim_ms": 1.0, "wall_ms": wall_scale(traced),
             "self_ms": wall_scale(traced)}
    metrics: dict[str, tuple[float, str]] = {}
    for layer, row in tracer.layer_rows().items():
        metrics[f"{layer}.calls"] = (row["calls"] / ops, "count/op")
        for key in ("wall_ms", "self_ms", "sim_ms"):
            metrics[f"{layer}.{key}"] = (row[key] * scale[key] / ops,
                                         "ms/op")
    functions = tracer.function_rows()
    for name, keys in FUNCTION_METRICS.items():
        row = functions[name]
        for key in keys:
            unit = "count/op" if key == "calls" else "ms/op"
            metrics[f"{name}.{key}"] = (row[key] * scale[key] / ops, unit)
    metrics.update(counter_metrics(
        counters_before, read_counters(workload, tracer), ops))
    traced_s = sum(at_reference_speed([], [], traced)[1].latencies)
    untraced_s = sum(at_reference_speed([], [], untraced)[1].latencies)
    metrics["trace.overhead_pct"] = (
        (traced_s / untraced_s - 1) * 100 if untraced_s else 0.0, "%")
    metrics["trace.spans"] = (tracer.spans / ops, "count/op")
    mttr = [m for o in traced.outcomes for m in o.mttr_s]
    metrics["repair.mttr_sim_s"] = (
        statistics.fmean(mttr) if mttr else 0.0, "s")
    return metrics


#: per-function metrics beside the per-layer ones: the entry points the
#: predictions in README.md name, in layers with more than one entry
FUNCTION_METRICS: dict[str, tuple[str, ...]] = {
    "hypervisor.charge_dom0": ("calls", "wall_ms"),
    "hypervisor.read_guest_frame": ("calls", "wall_ms"),
    "hypervisor.read_guest_frames": ("calls", "wall_ms"),
    "hypervisor.checksum_guest_frame": ("calls", "wall_ms"),
    "hypervisor.checksum_guest_frames": ("calls", "wall_ms"),
    "vmi.read_va": ("calls", "wall_ms", "self_ms", "sim_ms"),
    "vmi.read_u32": ("calls", "wall_ms", "self_ms", "sim_ms"),
    "vmi.checksum_va_range": ("calls", "wall_ms", "self_ms", "sim_ms"),
    "vmi.checksum_pages": ("calls", "wall_ms", "self_ms", "sim_ms"),
    "searcher.list_modules": ("calls", "wall_ms", "self_ms", "sim_ms"),
    "searcher.copy_module": ("calls", "wall_ms", "self_ms", "sim_ms"),
    "integrity.compare_pair": ("calls", "wall_ms", "self_ms", "sim_ms"),
    "integrity.check_pool_canonical": ("calls", "wall_ms", "self_ms",
                                       "sim_ms"),
    "integrity.digest": ("calls", "wall_ms"),
    "modchecker.fetch_modules": ("calls", "wall_ms", "self_ms", "sim_ms"),
    "modchecker.check_pool": ("calls", "wall_ms", "self_ms", "sim_ms"),
    "fleet.reconcile": ("calls", "wall_ms"),
}


def layer_table(tracer, ops: int, scale: float) -> list[str]:
    """Wall share beside simulated share, per layer (self time); wall
    times multiplied by ``scale``."""
    rows = {layer: dict(r, wall_ms=r["wall_ms"] * scale,
                        self_ms=r["self_ms"] * scale)
            for layer, r in tracer.layer_rows().items()}
    wall = sum(r["self_ms"] for r in rows.values()) or 1.0
    sim = sum(r["sim_ms"] for r in rows.values()) or 1.0
    lines = [f"{'layer':<11} {'calls/op':>10} {'wall ms/op':>11} "
             f"{'self ms/op':>11} {'sim ms/op':>10} {'wall%':>6} "
             f"{'sim%':>6}"]
    for layer, r in rows.items():
        lines.append(
            f"{layer:<11} {r['calls'] / ops:>10.1f} "
            f"{r['wall_ms'] / ops:>11.3f} {r['self_ms'] / ops:>11.3f} "
            f"{r['sim_ms'] / ops:>10.3f} {100 * r['self_ms'] / wall:>6.1f} "
            f"{100 * r['sim_ms'] / sim:>6.1f}")
    return lines


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    lines: list[str]

    def json_line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        })


def run_untraced(make_workload, *, seconds: float, setups: int) -> Result:
    """End-to-end metrics: median of ``setups`` set-ups, then measure."""
    workload, setup_times, setup_probes = timed_setup(make_workload, setups)
    run = measure(workload, ops_for(workload, seconds),
                  max_seconds=CAP_FACTOR * seconds)
    metrics = end_to_end(workload, *at_reference_speed(
        setup_times, setup_probes, run))
    raw = end_to_end(workload, setup_times, run)
    correct = complete(workload, run) and all(
        math.isfinite(v) for v, _ in metrics.values())
    lines = summary_lines(workload, run) + [
        speed_line(setup_probes + run.probes),
        "unscaled: " + ", ".join(
            f"{name} {raw[name][0]:.6g} {raw[name][1]}"
            for name in ("setup_s", "vm_checks_per_s", "latency_p50_ms",
                         "latency_p90_ms"))]
    return Result(correct, run.attempted, run.failed, metrics, lines)


def run_traced(make_workload, *, seconds: float,
               span_path: Path | None = None) -> Result:
    """Per-layer metrics: an untraced phase, then the same operations
    traced on a fresh set-up; the difference is the tracing overhead."""
    from perfbench.layertrace import LayerTracer
    workload, _, _ = timed_setup(make_workload, 1)
    untraced = measure(workload, ops_for(workload, seconds / 2),
                       max_seconds=CAP_FACTOR * seconds / 2)
    workload = None
    gc.collect()
    tracer = LayerTracer()
    with tracer.installed():
        workload, _, _ = timed_setup(make_workload, 1)
        tracer.reset()
        before = read_counters(workload, tracer)
        traced = measure(workload, untraced.ops, tracer=tracer,
                         max_seconds=1.5 * CAP_FACTOR * seconds / 2)
        metrics = per_layer(workload, tracer, traced, untraced, before)
    lines = (summary_lines(workload, traced)
             + [speed_line(traced.probes)]
             + layer_table(tracer, max(traced.ops, 1), wall_scale(traced))
             + [f"tracing overhead: {metrics['trace.overhead_pct'][0]:.1f}%"
                f" over {traced.ops} identical operations"])
    if span_path is not None:
        tracer.dump(span_path)
        lines.append(f"spans written to {span_path}")
    correct = (complete(workload, untraced) and complete(workload, traced)
               and traced.ops == untraced.ops
               and all(math.isfinite(v) for v, _ in metrics.values()))
    return Result(correct, untraced.attempted + traced.attempted,
                  untraced.failed + traced.failed, metrics, lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no ModChecker sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"pick from {sorted(WORKLOADS)}")
    workload_cls = WORKLOADS[args.workload]

    def make_workload():
        return workload_cls(args.seed)

    if args.trace:
        result = run_traced(
            make_workload, seconds=args.seconds,
            span_path=OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        result = run_untraced(make_workload, seconds=args.seconds,
                              setups=SETUPS[args.workload])
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in result.lines:
        print(line)
    for name, (value, unit) in result.metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(result.json_line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
