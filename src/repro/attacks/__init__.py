"""Rootkit infection techniques.

The paper's four evaluation attacks (E1-E4) plus extensions: header-
field attacks with crisp signatures and memory-resident attacks on
running guests (including the IAT-hook blind-spot probe).
"""

from .base import Attack, InfectionResult
from .dll_inject import DllInjectionAttack, INJECT_DLL_NAME, INJECT_EXPORT
from .headers import (EntryPointRedirectAttack, SectionCharacteristicsAttack,
                      TimestampForgeryAttack)
from .inline_hook import DEFAULT_PAYLOAD, InlineHookAttack
from .memory import (IATHookAttack, LdrBlindingAttack, LdrDecoyAttack,
                     MemoryAttack, MemoryInfectionResult,
                     RacingWriterAttack, RelocSlotRedirectAttack,
                     RuntimeCodePatchAttack)
from .opcode import OpcodeReplacementAttack, SUB_ECX_1
from .registry import (ATTACKS, EXPERIMENTS, attack_for_experiment,
                       make_attack, register_attack)
from .stub import StubModificationAttack

__all__ = [
    "Attack", "InfectionResult",
    "DllInjectionAttack", "INJECT_DLL_NAME", "INJECT_EXPORT",
    "EntryPointRedirectAttack", "SectionCharacteristicsAttack",
    "TimestampForgeryAttack",
    "DEFAULT_PAYLOAD", "InlineHookAttack",
    "IATHookAttack", "LdrBlindingAttack", "LdrDecoyAttack", "MemoryAttack",
    "MemoryInfectionResult", "RacingWriterAttack", "RelocSlotRedirectAttack",
    "RuntimeCodePatchAttack",
    "OpcodeReplacementAttack", "SUB_ECX_1",
    "ATTACKS", "EXPERIMENTS", "attack_for_experiment", "make_attack",
    "register_attack",
    "StubModificationAttack",
]
