"""Relative-virtual-address adjustment — the paper's Algorithm 2.

Two clean copies of a module loaded at different bases differ exactly
at the 32-bit slots the loader rebased. Integrity-Checker cannot hash
the raw bytes; it first *reverses* relocation: wherever the two byte
streams differ it assumes an absolute address starts nearby, computes
``RVA = absolute - base`` on both sides, and if the RVAs agree replaces
both 4-byte slots with the RVA — restoring base-independent content
(Fig. 4 of the paper).

Two adjusters (the :data:`ADJUSTERS` registry behind ``rva_mode``):

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
    both sides yield the *same, plausible* RVA. It is an exact window
    scan: one numpy pass finds the differing bytes, the candidate RVAs
    are gathered only around them, and a Python loop walks only the
    difference windows — about one per relocation slot, where the bytes
    number in thousands.

``adjust_rva_scan`` is the same rule as a loop over every byte — the
differential reference that ``adjust_rva_robust`` must match output
for output and counter for counter. It is not an ``rva_mode``.

All return new buffers plus :class:`RvaAdjustStats`; a difference
window no candidate start can explain is counted in ``unresolved`` —
for clean modules that count is 0, and tampering shows up both as
``unresolved`` windows and as a final hash mismatch.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RvaAdjustStats",
    "first_differing_base_byte",
    "adjust_rva_faithful",
    "adjust_rva_robust",
    "adjust_rva_scan",
    "ADJUSTERS",
]

_U32 = struct.Struct("<I")
_MASK = 0xFFFFFFFF
#: Column c of a difference's candidate row is the slot start ``d-3+c``.
_CANDIDATE_SHIFTS = np.arange(-3, 1)


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


def adjust_rva_scan(data1: bytes, base1: int, data2: bytes, base2: int,
                    *, max_rva: int | None = None,
                    ) -> tuple[bytes, bytes, RvaAdjustStats]:
    """The robust rule as a loop over every byte — the reference scan.

    :func:`adjust_rva_robust` must return exactly what this returns;
    the differential suite holds it to that.
    """
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


def _u32_view(a: np.ndarray) -> np.ndarray:
    """Every unaligned little-endian u32 of ``a``: element ``s`` reads
    bytes ``s..s+3`` (a strided view; nothing is copied)."""
    return np.ndarray((len(a) - 3,), dtype="<u4", buffer=a, strides=(1,))


def _overlapping_window(a1: np.ndarray, base1: int, a2: np.ndarray,
                        base2: int, d: int, prev_end: int, prev: bytes,
                        limit: int) -> tuple[int, int]:
    """:func:`_try_window` for difference ``d`` when its candidates
    overlap the slot rewritten last, which ends at ``prev_end`` and
    holds the RVA bytes ``prev`` on both sides now.

    Returns ``(start, rva)``, or ``(-1, 0)`` when no start is plausible.
    """
    for s in range(max(0, d - 3), min(d, len(a1) - 4) + 1):
        k = max(0, prev_end - s)
        head = prev[4 - k:]
        rva = (int.from_bytes(head + a1[s + k:s + 4].tobytes(), "little")
               - base1) & _MASK
        rva2 = (int.from_bytes(head + a2[s + k:s + 4].tobytes(), "little")
                - base2) & _MASK
        if rva == rva2 and rva < limit:
            return s, rva
    return -1, 0


def adjust_rva_robust(data1: bytes, base1: int, data2: bytes, base2: int,
                      *, max_rva: int | None = None,
                      ) -> tuple[bytes, bytes, RvaAdjustStats]:
    """Candidate-window search; no base-byte-pattern assumption.

    Walks the difference windows instead of the bytes, with the greedy
    rule of :func:`adjust_rva_scan`: at the first differing byte ``d``
    not yet passed, try slot starts ``d-3..d`` in order, rewrite the
    first whose two RVAs agree and are plausible, then resume at its
    end (or at ``d+1`` when none does). No byte at or past the resume
    point has been rewritten yet, so one numpy pass over the original
    bytes finds, for every difference, its first plausible start and
    the next difference after that slot; the loop then visits only the
    windows it lands on. Only a candidate overlapping the slot
    rewritten last (adjacent slots, e.g. a pointer table) reads
    rewritten bytes; the loop judges it on those.
    """
    if len(data1) != len(data2):
        raise ValueError("section copies differ in length")
    stats = RvaAdjustStats()
    if base1 == base2:
        return bytes(data1), bytes(data2), stats
    limit = max_rva if max_rva is not None else max(len(data1) * 16, 1 << 20)
    n = len(data1)
    a1 = np.frombuffer(data1, dtype=np.uint8)
    a2 = np.frombuffer(data2, dtype=np.uint8)
    diff = np.flatnonzero(a1 != a2)
    if n < 4 or not len(diff):              # no candidate slot fits
        stats.windows = stats.unresolved = len(diff)
        return bytes(data1), bytes(data2), stats

    starts = diff[:, None] + _CANDIDATE_SHIFTS
    inside = diff[0] >= 3 and diff[-1] <= n - 4
    at = starts if inside else np.clip(starts, 0, n - 4)
    rva1 = _u32_view(a1)[at] - np.uint32(base1 & _MASK)
    rva2 = _u32_view(a2)[at] - np.uint32(base2 & _MASK)
    ok = (rva1 == rva2) & (rva1 < min(max(limit, 0), _MASK + 1))
    if not inside:
        ok &= at == starts                  # the slot must fit the region
    col = ok.argmax(axis=1)
    rows = np.arange(len(diff))
    first = np.where(ok[rows, col], diff - 3 + col, -1)
    resume = np.searchsorted(diff, first + 4)

    diffs, firsts = diff.tolist(), first.tolist()
    resumes, rvas = resume.tolist(), rva1[rows, col].tolist()
    slots: list[int] = []
    values: list[int] = []
    prev_end, prev_rva = -3, 0      # the slot rewritten last (none yet)
    i = unresolved = 0
    while i < len(diffs):
        d = diffs[i]
        if d - 3 >= prev_end:
            start = firsts[i]
            if start >= 0:
                prev_rva = rvas[i]
                i = resumes[i]
        else:
            start, rva = _overlapping_window(
                a1, base1, a2, base2, d, prev_end, _U32.pack(prev_rva),
                limit)
            if start >= 0:
                prev_rva = rva
                i = bisect_left(diffs, start + 4)
        if start < 0:
            unresolved += 1
            i += 1
            continue
        slots.append(start)
        values.append(prev_rva)
        prev_end = start + 4
    stats.replaced, stats.unresolved = len(slots), unresolved
    stats.windows = len(slots) + unresolved

    if not slots:
        return bytes(data1), bytes(data2), stats
    # A later slot may overwrite the tail of the one before it: keep
    # each byte from its last writer only, so every index is set once.
    pos = np.asarray(slots)[:, None] + np.arange(4)
    keep = np.ones(pos.shape, dtype=bool)
    keep[:-1] = pos[:-1] < pos[1:, :1]
    pos = pos[keep]
    data = np.asarray(values, dtype="<u4").view(np.uint8).reshape(-1, 4)[keep]
    out1, out2 = a1.copy(), a2.copy()
    out1[pos] = data
    out2[pos] = data
    return out1.tobytes(), out2.tobytes(), stats


#: Registry used by ModChecker's ``rva_mode`` option and the A3 ablation.
ADJUSTERS = {
    "faithful": adjust_rva_faithful,
    "robust": adjust_rva_robust,
}
