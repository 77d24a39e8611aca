"""The benchmark's own tests, on scaled-down workloads.

Run from the repository root: ``python -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run
from perfbench.layertrace import LayerTracer
from perfbench.speedprobe import REFERENCE_S
from perfbench.workloads import (FleetSteady, PoolSweep, StepOutcome,
                                 TamperRepair)
from repro.core.integrity import IntegrityChecker
from repro.core.rva import ADJUSTERS
from repro.hypervisor.xen import Hypervisor

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small(workload: str, seed: int = 7):
    """A factory for a scaled-down workload (same code paths)."""
    return {
        "pool_sweep": lambda: PoolSweep(seed, n_vms=5),
        "fleet_steady": lambda: FleetSteady(seed, n_vms=32, shard_size=8),
        "tamper_repair": lambda: TamperRepair(seed, n_vms=32,
                                              shard_size=8),
    }[workload]


def units(metrics):
    return {name: unit for name, (_value, unit) in metrics.items()}


@pytest.mark.parametrize("workload", ["pool_sweep", "fleet_steady",
                                      "tamper_repair"])
def test_end_to_end_metrics_match_benchmark_json(workload):
    result = run.run_untraced(small(workload), seconds=0, setups=1)
    assert result.correct
    assert result.failed == 0 and result.attempted > 0
    assert units(result.metrics) == {m["name"]: m["unit"]
                                     for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in result.metrics.values())


def test_traced_run_reports_every_per_layer_metric():
    result = run.run_traced(small("pool_sweep"), seconds=0)
    assert result.correct
    assert units(result.metrics) == {m["name"]: m["unit"]
                                     for m in SPEC["per_layer"]}
    metrics = result.metrics
    assert metrics["rva.calls"][0] > 0
    assert metrics["integrity.compare_pair.calls"][0] == 10  # C(5, 2)
    assert metrics["searcher.copy_module.calls"][0] == 5


def test_tracer_restores_entry_points():
    before = (Hypervisor.__dict__["charge_dom0"], dict(ADJUSTERS),
              IntegrityChecker.__dict__["compare_pair"])
    tracer = LayerTracer()
    with tracer.installed():
        assert Hypervisor.__dict__["charge_dom0"] is not before[0]
    assert (Hypervisor.__dict__["charge_dom0"], dict(ADJUSTERS),
            IntegrityChecker.__dict__["compare_pair"]) == before


def test_simulated_charges_are_all_attributed():
    """Every charge on the pool's clock lands on some layer's span."""
    workload = PoolSweep(3, n_vms=5)
    tracer = LayerTracer()
    with tracer.installed():
        workload.setup()
        tracer.reset()
        measured = run.measure(workload, 10, tracer=tracer)
    layer_sim_ms = sum(r["sim_ms"] for r in tracer.layer_rows().values())
    clock_ms = sum(o.sim_s for o in measured.outcomes) * 1e3
    assert tracer.unattributed_sim_s == 0
    assert layer_sim_ms == pytest.approx(clock_ms, rel=1e-9)


@pytest.mark.parametrize("workload", ["pool_sweep", "tamper_repair"])
def test_fixed_seed_reproduces_sim_ms_per_vm_check(workload):
    def sim(seed):
        w = small(workload, seed)()
        w.setup()
        return run.sim_ms_per_vm_check(run.measure(w, w.quantum))
    assert sim(11) == sim(11)
    assert sim(11) != sim(12)


def test_sim_ms_per_vm_check_is_robust_to_outlying_operations():
    measured = run.Measured(outcomes=[
        StepOutcome(attempted=1, failed=0, vm_checks=10, sim_s=s)
        for s in (1e-3, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3, 7e-3, 1.0)])
    # the middle half is 3..6 ms over 10 verdicts; the 1 s round is cut
    assert run.sim_ms_per_vm_check(measured) == pytest.approx(0.45)


def test_wall_times_follow_the_speed_probes_around_them():
    """A host that halves its speed mid-run does not move scaled times."""
    slow = 2 * REFERENCE_S
    measured = run.Measured(latencies=[0.1] * 10 + [0.2] * 10,
                            probes=[REFERENCE_S] * 10 + [slow] * 10)
    setups, scaled = run.at_reference_speed([1.0], [REFERENCE_S], measured)
    assert setups == [1.0]
    assert scaled.latencies == pytest.approx([0.1] * 20)


def _forced(report, clean: bool):
    verdicts = {vm: dataclasses.replace(v, clean=clean,
                                        mismatched_regions=())
                for vm, v in report.verdicts.items()}
    return dataclasses.replace(report, verdicts=verdicts)


@pytest.mark.parametrize("clean", [True, False],
                         ids=["flags-nothing", "flags-everything"])
@pytest.mark.parametrize("workload", ["pool_sweep", "tamper_repair"])
def test_ledger_check_bites(monkeypatch, workload, clean):
    """A checker that flags nothing, or everything, fails every
    ledgered operation."""
    vote = IntegrityChecker.vote
    canonical = IntegrityChecker.check_pool_canonical
    monkeypatch.setattr(IntegrityChecker, "vote",
                        lambda self, *a: _forced(vote(self, *a), clean))
    monkeypatch.setattr(
        IntegrityChecker, "check_pool_canonical",
        lambda self, *a: _forced(canonical(self, *a), clean))
    w = small(workload)()
    w.warmup_rounds = 0
    w.setup()
    measured = run.measure(w, w.quantum)
    assert measured.attempted > 0
    assert measured.failed == measured.attempted


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pool_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
