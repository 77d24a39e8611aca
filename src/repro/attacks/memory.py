"""Memory-resident attacks: infections applied to a *running* guest.

The paper infects files and reboots; real rootkits more often patch the
live kernel. A :class:`MemoryAttack` operates on a booted
:class:`~repro.guest.kernel.GuestKernel` through its own address space
(the attacker runs *inside* the guest at ring 0) — no file is touched,
so disk-comparing tools like SVV see nothing, which is exactly the
scenario where cross-VM comparison shines (paper §II).
"""

from __future__ import annotations

import abc
import struct
from dataclasses import dataclass, field

from ..errors import AttackError
from ..guest.kernel import GuestKernel
from ..pe.builder import DriverBlueprint

__all__ = ["MemoryInfectionResult", "MemoryAttack", "IATHookAttack",
           "LdrBlindingAttack", "LdrDecoyAttack", "RacingWriterAttack",
           "RelocSlotRedirectAttack", "RuntimeCodePatchAttack"]


@dataclass
class MemoryInfectionResult:
    """Record of an in-memory infection."""

    attack_name: str
    vm_name: str
    module_name: str
    #: VAs whose bytes changed
    modified_vas: tuple[int, ...]
    #: hash-region names ModChecker is expected to flag ('()' == blind spot)
    expected_regions: tuple[str, ...]
    details: dict = field(default_factory=dict)

    @property
    def expected_detected(self) -> bool:
        return bool(self.expected_regions)


class MemoryAttack(abc.ABC):
    """An infection of a live guest's kernel memory."""

    name: str = "abstract-memory"

    @abc.abstractmethod
    def apply(self, kernel: GuestKernel, blueprint: DriverBlueprint,
              ) -> MemoryInfectionResult:
        """Infect ``blueprint.name`` as loaded in ``kernel``."""


class IATHookAttack(MemoryAttack):
    """Overwrite one IAT slot so an imported call lands on attacker code.

    The IAT lives in ``.rdata`` — *not* executable — so ModChecker,
    which hashes only headers and executable sections (by design, since
    writable data legitimately differs), does **not** see this. The
    paper inherits this blind spot; the test suite pins it down
    honestly (``expected_regions == ()``).
    """

    name = "iat-hook"

    def __init__(self, slot_index: int = 0) -> None:
        self.slot_index = slot_index

    def apply(self, kernel: GuestKernel, blueprint: DriverBlueprint,
              ) -> MemoryInfectionResult:
        module = kernel.module(blueprint.name)
        if not blueprint.iat_slots:
            raise AttackError(f"{blueprint.name} imports nothing to hook")
        dll, symbol, slot_rva = blueprint.iat_slots[
            self.slot_index % len(blueprint.iat_slots)]
        slot_va = module.base + slot_rva
        original = struct.unpack("<I", kernel.aspace.read(slot_va, 4))[0]
        # Point the import at an attacker-chosen address (here: the
        # module's own entry point — any diversion works for the test).
        evil_target = module.entry_point
        kernel.aspace.write(slot_va, struct.pack("<I", evil_target))
        return MemoryInfectionResult(
            attack_name=self.name, vm_name=kernel.name,
            module_name=blueprint.name,
            modified_vas=tuple(range(slot_va, slot_va + 4)),
            expected_regions=(),           # the documented blind spot
            details={"import": f"{dll}!{symbol}",
                     "slot_va": slot_va,
                     "original": original,
                     "hooked_to": evil_target})


class LdrDecoyAttack(MemoryAttack):
    """Plant a fake ``LDR_DATA_TABLE_ENTRY`` in the module list.

    The inverse of DKOM hiding: a bogus entry whose ``DllBase`` points
    at unbacked kernel VA space. List-walking tools (including the
    paper's Module-Searcher) enumerate it and either fault or report a
    phantom module; the cross-view comparison exposes it as
    *listed-only*. The searcher's fault-tolerant copy path must also
    survive it — tested in the cross-view suite.
    """

    name = "ldr-decoy"

    def __init__(self, decoy_name: str = "ghost.sys",
                 decoy_base: int = 0xFBAD_0000,
                 decoy_size: int = 0x8000) -> None:
        self.decoy_name = decoy_name
        self.decoy_base = decoy_base
        self.decoy_size = decoy_size

    def apply(self, kernel: GuestKernel, blueprint: DriverBlueprint | None = None,
              ) -> MemoryInfectionResult:
        from ..guest.ldr import LdrDataTableEntry, ListEntry, link_tail
        from ..guest.unicode_string import UnicodeString

        layout = kernel.layout          # the attacker knows the build
        head_va = kernel.symbols["PsLoadedModuleList"]
        stub = UnicodeString.for_text(self.decoy_name, 0)[1]
        node_va = kernel.aspace.alloc_fixed(
            layout.entry_size + len(stub), f"decoy:{self.decoy_name}")
        name_va = node_va + layout.entry_size
        us, payload = UnicodeString.for_text(self.decoy_name, name_va)
        entry = LdrDataTableEntry(
            in_load_order=ListEntry(0, 0),
            in_memory_order=ListEntry(0, 0),
            in_init_order=ListEntry(0, 0),
            dll_base=self.decoy_base, entry_point=self.decoy_base + 0x100,
            size_of_image=self.decoy_size,
            full_dll_name=us, base_dll_name=us)
        kernel.aspace.write(node_va, entry.pack(layout))
        kernel.aspace.write(name_va, payload)
        link_tail(kernel.aspace.write, kernel.aspace.read, head_va, node_va)
        return MemoryInfectionResult(
            attack_name=self.name, vm_name=kernel.name,
            module_name=self.decoy_name,
            modified_vas=tuple(range(node_va, node_va + layout.entry_size)),
            expected_regions=(),       # not an image modification
            details={"node_va": node_va, "decoy_base": self.decoy_base})


class RuntimeCodePatchAttack(MemoryAttack):
    """Patch executable bytes of a loaded module in place.

    The memory-resident twin of E1: the on-disk file stays pristine
    (defeating disk-comparison tools) but the ``.text`` hash diverges
    from every other clone.
    """

    name = "runtime-code-patch"

    def __init__(self, offset_in_text: int = 0x20,
                 patch: bytes = b"\xEB\xFE") -> None:    # jmp $ (hang)
        self.offset_in_text = offset_in_text
        self.patch = bytes(patch)

    def apply(self, kernel: GuestKernel, blueprint: DriverBlueprint,
              ) -> MemoryInfectionResult:
        module = kernel.module(blueprint.name)
        text = blueprint.section(".text")
        if self.offset_in_text + len(self.patch) > text.virtual_size:
            raise AttackError("patch exceeds .text")
        va = module.base + text.virtual_address + self.offset_in_text
        original = kernel.aspace.read(va, len(self.patch))
        kernel.aspace.write(va, self.patch)
        return MemoryInfectionResult(
            attack_name=self.name, vm_name=kernel.name,
            module_name=blueprint.name,
            modified_vas=tuple(range(va, va + len(self.patch))),
            expected_regions=(".text",),
            details={"va": va, "original": original.hex(),
                     "patch": self.patch.hex()})


class RelocSlotRedirectAttack(MemoryAttack):
    """Redirect the first absolute-address relocation slot in ``.text``.

    The loader rebased the slot to ``base + target_rva``; the implant
    adds ``delta`` so the instruction reaches code of the attacker's
    choosing — a short hop (``0x100``) stays inside the image, a long
    one (``0x7000000``) leaves it. The tamper sits exactly on the bytes
    RVA normalisation rewrites, so it probes whether the vote still
    separates a rebased slot from a redirected one — including on the
    VM a canonical vote starts from as its reference.
    """

    name = "reloc-slot-redirect"

    def __init__(self, delta: int = 0x100) -> None:
        self.delta = delta

    def apply(self, kernel: GuestKernel, blueprint: DriverBlueprint,
              ) -> MemoryInfectionResult:
        module = kernel.module(blueprint.name)
        text = blueprint.section(".text")
        end = text.virtual_address + text.virtual_size
        slots = [rva for rva in blueprint.fixup_rvas
                 if text.virtual_address <= rva and rva + 4 <= end]
        if not slots:
            raise AttackError(f"{blueprint.name} has no .text relocation")
        va = module.base + slots[0]
        original = struct.unpack("<I", kernel.aspace.read(va, 4))[0]
        redirected = (original + self.delta) & 0xFFFFFFFF
        kernel.aspace.write(va, struct.pack("<I", redirected))
        return MemoryInfectionResult(
            attack_name=self.name, vm_name=kernel.name,
            module_name=blueprint.name,
            modified_vas=tuple(range(va, va + 4)),
            expected_regions=(".text",),
            details={"va": va, "original": original,
                     "redirected_to": redirected})


class RacingWriterAttack(RuntimeCodePatchAttack):
    """A resident implant that re-tampers the module *during* repair.

    The MemoryRanger threat model: the attacker still runs at ring 0, so
    a one-shot restore is not a fix — the implant notices its patch is
    gone and puts it back. :meth:`apply` plants the initial patch like
    :class:`RuntimeCodePatchAttack`; :meth:`arm` then subscribes to the
    simulated clock, and on every advance (i.e. whenever dom0 burns CPU
    — fetching, hashing, writing) the implant checks its patch site and
    rewrites it if someone cleaned it, up to ``rewrites`` times.

    Because the repair engine keeps the target range write-protected for
    the whole restore window, every rewrite lands on an armed frame and
    is trapped — the engine sees ``raced_writes`` and retries. A budget
    below the defender's ``max_attempts`` converges to verified clean;
    at or above it, the engine escalates to quarantine. Both outcomes
    are deterministic per seed: the race is driven by the cost model,
    not host timing.
    """

    name = "racing-writer"

    def __init__(self, offset_in_text: int = 0x20,
                 patch: bytes = b"\xEB\xFE", rewrites: int = 2) -> None:
        super().__init__(offset_in_text, patch)
        self.rewrites = int(rewrites)
        self.rewrites_done = 0
        #: simulated timestamps of each successful re-tamper
        self.rewrite_times: list[float] = []
        self._kernel: GuestKernel | None = None
        self._va: int | None = None
        self._clock = None

    def apply(self, kernel: GuestKernel, blueprint: DriverBlueprint,
              ) -> MemoryInfectionResult:
        result = super().apply(kernel, blueprint)
        self._kernel = kernel
        self._va = result.details["va"]
        result.attack_name = self.name
        result.details["rewrite_budget"] = self.rewrites
        return result

    def arm(self, clock) -> None:
        """Start racing: re-tamper whenever the clock advances."""
        if self._va is None:
            raise AttackError("arm() before apply()")
        if self._clock is None:
            self._clock = clock
            clock.on_advance.append(self._on_advance)

    def disarm(self) -> None:
        """Stop racing (the implant is killed / budget withdrawn)."""
        if self._clock is not None:
            self._clock.on_advance.remove(self._on_advance)
            self._clock = None

    def _on_advance(self, now: float) -> None:
        if self.rewrites_done >= self.rewrites:
            return
        current = self._kernel.aspace.read(self._va, len(self.patch))
        if bytes(current) == self.patch:
            return                       # patch still in place — stay quiet
        # Someone restored the clean bytes: put the hook back. This is a
        # guest-side write, so if the repair engine has the frame armed
        # it is trapped and counted as a raced write.
        self._kernel.aspace.write(self._va, self.patch)
        self.rewrites_done += 1
        self.rewrite_times.append(now)


class LdrBlindingAttack(MemoryAttack):
    """Spoof the victim's LDR ``DllBase`` to blind restore-capable AV.

    The AV-blinding trick from the MemoryRanger line of work: the
    rootkit patches the victim's *real* ``LDR_DATA_TABLE_ENTRY`` so its
    ``DllBase``/``SizeOfImage``/``EntryPoint`` describe a *different*,
    fully mapped module. A checker that trusts the list reads a valid PE
    (the alias's), votes the victim tampered (the bytes match nothing in
    the pool), and — if it naively "restores" — writes the reference
    image over the alias module, corrupting an innocent driver at the
    attacker's chosen address.

    The repair engine's attestation gates must refuse this target
    (aliased base / size mismatch) and abort with an audit trail rather
    than write anything.
    """

    name = "ldr-blinding"

    def __init__(self, alias_module: str | None = None) -> None:
        self.alias_module = alias_module

    def apply(self, kernel: GuestKernel, blueprint: DriverBlueprint,
              ) -> MemoryInfectionResult:
        from ..guest.ldr import LIST_ENTRY_SIZE  # noqa: F401  (layout pkg)

        victim = kernel.module(blueprint.name)
        if self.alias_module is not None:
            alias = kernel.module(self.alias_module)
        else:
            others = [m for n, m in sorted(kernel.modules.items())
                      if n != blueprint.name]
            if not others:
                raise AttackError("no other module to alias")
            alias = others[0]
        layout = kernel.layout
        entry_va = victim.ldr_entry_va
        fields = ((layout.off_dllbase, alias.base),
                  (layout.off_entrypoint, alias.entry_point),
                  (layout.off_sizeofimage, alias.size_of_image))
        for off, value in fields:
            kernel.aspace.write(entry_va + off, struct.pack("<I", value))
        vas = tuple(va for off, _ in fields
                    for va in range(entry_va + off, entry_va + off + 4))
        return MemoryInfectionResult(
            attack_name=self.name, vm_name=kernel.name,
            module_name=blueprint.name,
            modified_vas=vas,
            # the acquired alias image diverges from the pool copies in
            # essentially every region; the optional header (sizes,
            # entry point) is guaranteed to differ between builds
            expected_regions=("IMAGE_OPTIONAL_HEADER",),
            details={"ldr_entry_va": entry_va,
                     "victim_base": victim.base,
                     "alias": alias.name, "alias_base": alias.base})
