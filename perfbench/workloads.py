"""The three benchmark workloads and the ground-truth tamper ledger.

Every workload is closed-loop and single-process: one caller issues the
next operation only after the previous one has returned. A workload is
driven in three steps per operation, so that the runner can time only
the call into the program:

* ``plant()`` — the generator's turn: guest writes through
  ``kernel.aspace.write`` (the guest's own write path, so write traps
  fire), recorded in the :class:`Ledger`. Returns how many ledgered
  operations the next call carries.
* ``run_op()`` — the timed call into the public API
  (``ModChecker.check_pool`` or ``Fleet.run_cycle``).
* ``verify(out)`` — compare the call's verdicts with the ledger.

The checker only ever sees the generated testbed and the writes; the
ledger lives here, in the benchmark.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.cloud import build_testbed
from repro.cloud.fleet import Fleet, build_fleet_testbed
from repro.core import ModChecker

__all__ = ["Tamper", "Ledger", "StepOutcome", "PoolSweep", "FleetSteady",
           "TamperRepair", "WORKLOADS"]


@dataclass(frozen=True)
class Tamper:
    """One planted in-place ``.text`` patch: what was written, where."""

    vm: str
    module: str
    offset: int          # offset of the patch inside ``.text``
    va: int
    original: bytes
    patch: bytes


@dataclass
class Ledger:
    """The tampers the generator planted that are still in guest memory."""

    #: (vm, module) -> tamper still in guest memory
    outstanding: dict[tuple[str, str], Tamper] = field(default_factory=dict)

    def plant(self, testbed, vm: str, module: str, offset: int,
              xor: bytes) -> Tamper:
        """Patch ``len(xor)`` bytes of ``module``'s ``.text`` on ``vm``.

        The patch is the original bytes XOR a non-zero mask, so it
        always changes every byte it covers.
        """
        kernel = testbed.hypervisor.domain(vm).kernel
        text = testbed.catalog[module].section(".text")
        va = kernel.module(module).base + text.virtual_address + offset
        original = kernel.aspace.read(va, len(xor))
        patch = bytes(a ^ b for a, b in zip(original, xor))
        kernel.aspace.write(va, patch)
        tamper = Tamper(vm, module, offset, va, original, patch)
        self.outstanding[(vm, module)] = tamper
        return tamper

    def rewrite_identical(self, testbed, vm: str, module: str,
                          offset: int, length: int) -> None:
        """A benign guest write: the same bytes back onto a module page."""
        kernel = testbed.hypervisor.domain(vm).kernel
        va = kernel.module(module).base + offset
        kernel.aspace.write(va, kernel.aspace.read(va, length))

    def restored(self, testbed, tamper: Tamper) -> bool:
        """True when guest memory holds the original bytes again."""
        kernel = testbed.hypervisor.domain(tamper.vm).kernel
        return kernel.aspace.read(tamper.va, len(tamper.patch)) \
            == tamper.original


@dataclass
class StepOutcome:
    """The verdict check of one timed call."""

    attempted: int
    failed: int
    #: per-VM module verdicts the call produced
    vm_checks: int
    #: simulated Dom0 seconds the call cost
    sim_s: float
    #: simulated plant-to-verified-repair time of each repaired tamper
    mttr_s: list[float] = field(default_factory=list)
    #: one line per failed operation: what the ledger expected, what
    #: the program said
    notes: list[str] = field(default_factory=list)


def _random_patch(rng: random.Random, text_size: int,
                  length: int = 2) -> tuple[int, bytes]:
    """A uniform offset inside ``.text`` and a non-zero XOR mask."""
    offset = rng.randrange(0, text_size - length + 1)
    return offset, bytes(rng.randrange(1, 256) for _ in range(length))


class PoolSweep:
    """The paper's operation: a 15-VM pool check, module after module.

    ``ModChecker`` defaults (pairwise vote, ``robust`` RVA, caches
    flushed each round, batch acquisition). Each of the 10 modules
    carries one seeded 2-byte ``.text`` patch on one seeded VM, so every
    pool check must flag exactly that VM — a checker that flags nothing
    fails every operation, not one in ten.
    """

    name = "pool_sweep"
    #: operations per second of ``--seconds`` (reference machine), and
    #: the unit a run's length is rounded to: one sweep of 10 modules
    rate = 6.0
    quantum = 10

    def __init__(self, seed: int, *, n_vms: int = 15) -> None:
        self.seed = seed
        self.n_vms = n_vms
        self.rng = random.Random(f"pool_sweep:{seed}")
        self.ledger = Ledger()
        self.testbed = None
        self.checker: ModChecker | None = None
        self.modules: list[str] = []
        self.ops = 0
        self._module = ""

    def setup(self) -> None:
        self.testbed = build_testbed(self.n_vms, seed=self.seed)
        self.modules = list(self.testbed.catalog)
        for module in self.modules:
            vm = self.rng.choice(self.testbed.vm_names)
            text = self.testbed.catalog[module].section(".text")
            offset, xor = _random_patch(self.rng, text.virtual_size)
            self.ledger.plant(self.testbed, vm, module, offset, xor)
        self.checker = ModChecker(self.testbed.hypervisor,
                                  self.testbed.profile)
        # one check warms lazy imports and numpy paths; not measured
        self.checker.check_pool(self.modules[-1])

    def checkers(self) -> list[ModChecker]:
        return [self.checker]

    def plant(self) -> int:
        self._module = self.modules[self.ops % len(self.modules)]
        self.ops += 1
        self._clock_before = self.testbed.clock.now
        return 1

    def run_op(self):
        return self.checker.check_pool(self._module)

    def verify(self, outcome) -> StepOutcome:
        report = outcome.report
        expected = {vm for (vm, module) in self.ledger.outstanding
                    if module == self._module}
        flagged = set(report.flagged())
        ok = flagged == expected and not report.degraded
        notes = [] if ok else [
            f"{self._module}: ledger expects {sorted(expected)} flagged, "
            f"check flagged {sorted(flagged)}, degraded "
            f"{sorted(report.degraded)}"]
        return StepOutcome(attempted=1, failed=0 if ok else 1,
                           vm_checks=len(report.verdicts),
                           sim_s=self.testbed.clock.now - self._clock_before,
                           notes=notes)


class _FleetWorkload:
    """Shared set-up and round bookkeeping of the two fleet workloads."""

    n_vms = 512
    shard_size = 64
    checker_kwargs: dict = {"event_driven": True}
    #: rounds run inside set-up: one full module rotation (every variant
    #: loads 3 modules and ``Fleet`` checks one per shard per round)
    warmup_rounds = 3
    #: run lengths are whole rotations, so each module weighs the same
    quantum = 3

    def __init__(self, seed: int, *, n_vms: int | None = None,
                 shard_size: int | None = None) -> None:
        self.seed = seed
        if n_vms is not None:
            self.n_vms = n_vms
        if shard_size is not None:
            self.shard_size = shard_size
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ledger = Ledger()
        self.testbed = None
        self.fleet: Fleet | None = None

    def setup(self) -> None:
        self.testbed = build_fleet_testbed(self.n_vms, seed=self.seed)
        self.fleet = Fleet(self.testbed.hypervisor,
                           shard_size=self.shard_size,
                           checker_kwargs=dict(self.checker_kwargs))
        for _ in range(self.warmup_rounds):
            report = self.fleet.run_cycle()
            if report.alerts:
                raise RuntimeError(
                    f"pristine warm-up round raised {len(report.alerts)} "
                    f"alert(s): {report.alerts[0][1]}")

    def checkers(self) -> list[ModChecker]:
        return [s.checker for s in self.fleet.shards.values()]

    def _mark(self) -> None:
        stats = self.fleet.stats
        self._vm_checks_before = stats.vm_checks_total
        self._busy_before = stats.busy_seconds

    def _round_cost(self) -> tuple[int, float]:
        stats = self.fleet.stats
        return (stats.vm_checks_total - self._vm_checks_before,
                stats.busy_seconds - self._busy_before)

    def run_op(self):
        return self.fleet.run_cycle()


class FleetSteady(_FleetWorkload):
    """A pristine 512-guest event-driven fleet at steady state.

    Nothing changes between rounds, so every acquisition should be a
    manifest hit with an empty trap ring; each operation is one fleet
    round and must raise no alert at all.
    """

    name = "fleet_steady"
    rate = 1.2

    def plant(self) -> int:
        self._mark()
        return 1

    def verify(self, report) -> StepOutcome:
        vm_checks, sim_s = self._round_cost()
        notes = [f"pristine round {report.cycle} raised {alert} on {shard}"
                 for shard, alert in report.alerts]
        return StepOutcome(attempted=1, failed=1 if notes else 0,
                           vm_checks=vm_checks, sim_s=sim_s, notes=notes)


class TamperRepair(_FleetWorkload):
    """Tamper-and-repair on a 256-guest self-healing fleet.

    Before each round the generator plants one seeded 2-byte ``.text``
    patch per module rank (every variant loads the kernel, the HAL and
    one driver, in that order) and ``benign_per_round`` identical-byte
    rewrites of module pages on other VMs. Each victim is uniform over
    every VM — the first VM of a shard, which canonical voting uses as
    its reference, included — and each offset is uniform over ``.text``,
    relocation slots included. Planting one tamper per rank keeps the
    module of each tamper uniform while giving every round the same mix
    of image sizes, so rounds are comparable.

    Each tamper is one operation: it succeeds when its round flags
    exactly the outstanding victims of that (shard, module), a
    ``repaired`` alert names it, and guest memory holds the original
    bytes again.
    """

    name = "tamper_repair"
    n_vms = 256
    #: 16 shards of 16: a repair re-votes pairwise over its whole shard,
    #: so with shards of 64 one round took 11-18 s and a run held two
    #: rounds (see README.md)
    shard_size = 16
    checker_kwargs = {"event_driven": True, "repair_policy": "repair"}
    rate = 1.0
    module_ranks = 3
    benign_per_round = 4
    benign_length = 16

    def plant(self) -> int:
        self._mark()
        hv = self.testbed.hypervisor
        vms = self.testbed.vm_names
        self._tampers: list[Tamper] = []
        victims: set[str] = set()
        rank = 0
        while rank < self.module_ranks:
            vm = self.rng.choice(vms)
            module = list(hv.domain(vm).kernel.modules)[rank]
            if vm in victims or (vm, module) in self.ledger.outstanding:
                continue
            text = self.testbed.catalog[module].section(".text")
            offset, xor = _random_patch(self.rng, text.virtual_size)
            self._tampers.append(
                self.ledger.plant(self.testbed, vm, module, offset, xor))
            victims.add(vm)
            rank += 1
        for _ in range(self.benign_per_round):
            vm = self.rng.choice([v for v in vms if v not in victims])
            module = self.rng.choice(sorted(hv.domain(vm).kernel.modules))
            size = self.testbed.catalog[module].size_of_image
            offset = self.rng.randrange(0, size - self.benign_length)
            self.ledger.rewrite_identical(self.testbed, vm, module, offset,
                                          self.benign_length)
        return len(self._tampers)

    def verify(self, report) -> StepOutcome:
        vm_checks, sim_s = self._round_cost()
        flagged: dict[tuple[str, str], set[str]] = {}
        repaired: set[tuple[str, str]] = set()
        for shard, alert in report.alerts:
            if alert.kind == "integrity":
                flagged.setdefault((shard, alert.module), set()).update(
                    alert.flagged_vms)
            elif alert.kind == "repaired":
                repaired.update((vm, alert.module)
                                for vm in alert.flagged_vms)
        expected: dict[tuple[str, str], set[str]] = {}
        for vm, module in self.ledger.outstanding:
            shard = self.fleet.shard_of(vm).name
            expected.setdefault((shard, module), set()).add(vm)

        notes: list[str] = []
        mttr: list[float] = []
        for tamper in self._tampers:
            key = (self.fleet.shard_of(tamper.vm).name, tamper.module)
            is_repaired = (tamper.vm, tamper.module) in repaired
            is_restored = self.ledger.restored(self.testbed, tamper)
            if flagged.get(key) == expected[key] and is_repaired \
                    and is_restored:
                # the round's makespan is when its repairs are visible:
                # plant time is the round's start on the simulated clock
                mttr.append(report.duration)
                continue
            got = sorted(flagged.get(key, ()))
            notes.append(
                f"tamper {tamper.module} .text+{tamper.offset:#x} on "
                f"{tamper.vm} (shard {key[0]}): ledger expects "
                f"{sorted(expected[key])} flagged, round flagged "
                f"{got[:4]}{'...' if len(got) > 4 else ''} ({len(got)}), "
                f"repaired={is_repaired}, restored={is_restored}")
        # an alert on a (shard, module) the ledger says is pristine has
        # no tamper to blame it on: count it as a failed operation too
        stray = [key for key in flagged if key not in expected]
        notes += [f"stray alert: {module} on shard {shard} flagged "
                  f"{sorted(flagged[(shard, module)])}"
                  for shard, module in stray]
        for vm, module in list(self.ledger.outstanding):
            if self.ledger.restored(self.testbed,
                                    self.ledger.outstanding[(vm, module)]):
                del self.ledger.outstanding[(vm, module)]
        return StepOutcome(attempted=len(self._tampers) + len(stray),
                           failed=len(notes), vm_checks=vm_checks,
                           sim_s=sim_s, mttr_s=mttr, notes=notes)


WORKLOADS = {w.name: w for w in (PoolSweep, FleetSteady, TamperRepair)}
