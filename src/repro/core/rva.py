"""Relative-virtual-address adjustment — the paper's Algorithm 2.

Two clean copies of a module loaded at different bases differ exactly
at the 32-bit slots the loader rebased. Integrity-Checker cannot hash
the raw bytes; it first *reverses* relocation: wherever the two byte
streams differ it assumes an absolute address starts nearby, computes
``RVA = absolute - base`` on both sides, and if the RVAs agree replaces
both 4-byte slots with the RVA — restoring base-independent content
(Fig. 4 of the paper).

Two implementations:

``adjust_rva_faithful``
    The paper's pseudocode, literally: the start-of-address offset is
    derived *once* from the first differing byte of the two base
    addresses, and the scan steps over each difference window. The
    heuristic is sound for genuine relocation slots — two sums
    ``rva + base1`` / ``rva + base2`` first differ exactly at the
    bases' first differing byte (lower bytes are equal, so carries into
    it are equal) — but it gives up entirely when the bases happen to
    share all four bytes, and its fixed offset can misfire on bytes an
    attacker changed. The paper's line 22 reads
    ``j ← j − offset + 1 − 4``, which walks backwards — an obvious typo
    for *advancing past* the 4-byte slot; we implement the advance.

``adjust_rva_robust``
    No assumption about where the address starts: every candidate start
    in the 4-byte window before a difference is tried and accepted iff
    both sides yield the *same, plausible* RVA.

Both return new buffers plus :class:`RvaAdjustStats`; a difference
window no candidate start can explain is counted in ``unresolved`` —
for clean modules that count is 0, and tampering shows up both as
``unresolved`` windows and as a final hash mismatch.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

__all__ = [
    "RvaAdjustStats",
    "first_differing_base_byte",
    "adjust_rva_faithful",
    "adjust_rva_robust",
    "ADJUSTERS",
]

_U32 = struct.Struct("<I")


@dataclass
class RvaAdjustStats:
    """Outcome counters of one adjustment pass."""

    replaced: int = 0      # address slots rewritten to their RVA
    unresolved: int = 0    # difference windows no RVA could explain
    windows: int = 0       # difference windows examined

    @property
    def clean(self) -> bool:
        """True when every difference was explained by relocation."""
        return self.unresolved == 0


def first_differing_base_byte(base1: int, base2: int) -> int | None:
    """0-based index of the first differing byte of two LE base addresses.

    ``None`` when the bases are identical (no adjustment needed —
    identical bases produce identical clean images). This is the
    paper's ``offset`` (theirs is 1-based).
    """
    b1 = _U32.pack(base1 & 0xFFFFFFFF)
    b2 = _U32.pack(base2 & 0xFFFFFFFF)
    for i in range(4):
        if b1[i] != b2[i]:
            return i
    return None


def _read_u32(buf: bytearray, off: int) -> int:
    return _U32.unpack_from(buf, off)[0]


def _write_u32(buf: bytearray, off: int, value: int) -> None:
    _U32.pack_into(buf, off, value & 0xFFFFFFFF)


def adjust_rva_faithful(data1: bytes, base1: int, data2: bytes, base2: int,
                        *, max_rva: int | None = None,
                        ) -> tuple[bytes, bytes, RvaAdjustStats]:
    """The paper's Algorithm 2, byte-for-byte.

    ``max_rva`` bounds plausible RVAs (defaults to the section length
    times 16 — generous, since code references data in sibling
    sections); implausible RVAs are treated as unresolved rather than
    rewritten, which keeps tampered bytes visible to the hash.
    """
    if len(data1) != len(data2):
        raise ValueError("section copies differ in length")
    out1, out2 = bytearray(data1), bytearray(data2)
    stats = RvaAdjustStats()
    d = first_differing_base_byte(base1, base2)
    if d is None:                       # IsDifferenceExist == 0
        return bytes(out1), bytes(out2), stats
    limit = max_rva if max_rva is not None else max(len(data1) * 16, 1 << 20)
    n = len(out1)
    j = 0
    while j < n:
        if out1[j] != out2[j]:
            stats.windows += 1
            start = j - d               # paper: j - offset + 1, 0-based
            if 0 <= start and start + 4 <= n:
                abs1 = _read_u32(out1, start)
                abs2 = _read_u32(out2, start)
                rva1 = (abs1 - base1) & 0xFFFFFFFF
                rva2 = (abs2 - base2) & 0xFFFFFFFF
                if rva1 == rva2 and rva1 < limit:
                    _write_u32(out1, start, rva1)
                    _write_u32(out2, start, rva2)
                    stats.replaced += 1
                    j = start + 4       # paper line 22 (with the sign fixed)
                    continue
            stats.unresolved += 1
            j = max(j + 1, start + 4 if start >= 0 else j + 1)
            continue
        j += 1
    return bytes(out1), bytes(out2), stats


def _try_window(out1: bytearray, out2: bytearray, j: int, base1: int,
                base2: int, limit: int) -> int | None:
    """Find a candidate slot start covering difference position ``j``.

    Returns the accepted start offset, or None. Candidates are tried
    from the earliest position whose 4-byte slot still covers ``j``.
    """
    n = len(out1)
    for start in range(max(0, j - 3), min(j, n - 4) + 1):
        abs1 = _read_u32(out1, start)
        abs2 = _read_u32(out2, start)
        rva1 = (abs1 - base1) & 0xFFFFFFFF
        rva2 = (abs2 - base2) & 0xFFFFFFFF
        if rva1 == rva2 and rva1 < limit:
            _write_u32(out1, start, rva1)
            _write_u32(out2, start, rva2)
            return start
    return None


def adjust_rva_robust(data1: bytes, base1: int, data2: bytes, base2: int,
                      *, max_rva: int | None = None,
                      ) -> tuple[bytes, bytes, RvaAdjustStats]:
    """Candidate-window search; no base-byte-pattern assumption."""
    if len(data1) != len(data2):
        raise ValueError("section copies differ in length")
    out1, out2 = bytearray(data1), bytearray(data2)
    stats = RvaAdjustStats()
    if base1 == base2:
        return bytes(out1), bytes(out2), stats
    limit = max_rva if max_rva is not None else max(len(data1) * 16, 1 << 20)
    n = len(out1)
    j = 0
    while j < n:
        if out1[j] == out2[j]:
            j += 1
            continue
        stats.windows += 1
        start = _try_window(out1, out2, j, base1, base2, limit)
        if start is None:
            stats.unresolved += 1
            j += 1
        else:
            stats.replaced += 1
            j = start + 4
    return bytes(out1), bytes(out2), stats


#: Registry used by ModChecker's ``rva_mode`` option and the A3 ablation.
ADJUSTERS = {
    "faithful": adjust_rva_faithful,
    "robust": adjust_rva_robust,
}
