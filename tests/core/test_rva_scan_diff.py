"""Differential suite: the window-scan adjuster against the byte scan.

``adjust_rva_robust`` walks only the difference windows;
``adjust_rva_scan`` is the same greedy rule as a loop over every byte.
They must agree exactly — both output buffers and all three counters —
on generated pairs where differences, adjacent slots and overlapping
candidates are dense, and on every code-region pair a real pool check
compares, clean and under each memory attack.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import (IATHookAttack, LdrBlindingAttack, LdrDecoyAttack,
                           RacingWriterAttack, RelocSlotRedirectAttack,
                           RuntimeCodePatchAttack)
from repro.cloud import build_testbed
from repro.core import IntegrityChecker, ModChecker
from repro.core import integrity as integrity_mod
from repro.core.rva import adjust_rva_robust, adjust_rva_scan
from repro.errors import AttackError

MASK = 0xFFFFFFFF


def assert_same(data1, base1, data2, base2, max_rva=None):
    got = adjust_rva_robust(data1, base1, data2, base2, max_rva=max_rva)
    want = adjust_rva_scan(data1, base1, data2, base2, max_rva=max_rva)
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert got[2] == want[2]
    return got


# -- generated pairs ----------------------------------------------------------

#: Bytes from a tiny alphabet collide often, so windows touch, overlap
#: and sit at the region edges.
SMALL_BYTES = st.sampled_from([0x00, 0x01, 0xFF])
BASES = st.one_of(st.sampled_from([0, 1, 0x100, 0x10000, 0x1000000,
                                   0xF7010000, MASK]),
                  st.integers(0, MASK))
MAX_RVAS = st.one_of(st.none(),
                     st.sampled_from([-1, 0, 1, 2, 0xFF, 0x100, MASK,
                                      MASK + 1, 1 << 40]),
                     st.integers(0, 0x20000))


@st.composite
def sharing_base(draw, base):
    """``base`` with some of its four bytes replaced."""
    raw = bytearray(struct.pack("<I", base))
    for i in draw(st.sets(st.integers(0, 3), max_size=3)):
        raw[i] = draw(st.integers(0, 255))
    return struct.unpack("<I", bytes(raw))[0]


@st.composite
def relocated_pairs(draw):
    """Two copies of one buffer, relocated at (often) different bases,
    plus stray differences; slots may be adjacent or overlap."""
    n = draw(st.integers(0, 16))
    base1 = draw(BASES)
    shifted = st.sampled_from([1, 0x100, 0x1000, 0x10000, 0x1000000]).map(
        lambda delta: (base1 + delta) & MASK)
    base2 = draw(st.one_of(st.just(base1), BASES, sharing_base(base1),
                           shifted))
    data1 = bytearray(draw(st.lists(SMALL_BYTES, min_size=n, max_size=n)))
    data2 = bytearray(data1)
    if n >= 4:
        for start in draw(st.lists(st.integers(0, n - 4), max_size=4)):
            rva = draw(st.one_of(st.integers(0, 0x300),
                                 st.integers(0, MASK)))
            struct.pack_into("<I", data1, start, (rva + base1) & MASK)
            struct.pack_into("<I", data2, start, (rva + base2) & MASK)
    for pos in draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=3)):
        if n:
            data2[pos] = draw(SMALL_BYTES)
    return bytes(data1), base1, bytes(data2), base2


@settings(max_examples=200, deadline=None)
@given(relocated_pairs(), MAX_RVAS)
def test_generated_pairs(pair, max_rva):
    assert_same(*pair, max_rva=max_rva)


@settings(max_examples=250, deadline=None)
@given(st.integers(0, MASK),
       st.sampled_from([0x100, 0x1000, 0x10000, 0x1000000]),
       st.integers(8, 16).flatmap(lambda n: st.tuples(
           st.binary(min_size=n, max_size=n),
           st.lists(st.tuples(st.integers(0, n - 4), st.integers(0, 0xFFFF)),
                    min_size=2, max_size=4))))
def test_overlapping_slots(base1, delta, layout):
    """Slots planted over each other, at bases a power-of-16 step
    apart: the case where a candidate reads the slot rewritten just
    before it."""
    filler, slots = layout
    base2 = (base1 + delta) & MASK
    data1, data2 = bytearray(filler), bytearray(filler)
    for start, rva in slots:
        struct.pack_into("<I", data1, start, (rva + base1) & MASK)
        struct.pack_into("<I", data2, start, (rva + base2) & MASK)
    assert_same(bytes(data1), base1, bytes(data2), base2)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 16).flatmap(lambda n: st.tuples(
    st.binary(min_size=n, max_size=n), st.binary(min_size=n, max_size=n))),
       BASES, BASES, MAX_RVAS)
def test_unrelated_buffers(buffers, base1, base2, max_rva):
    assert_same(buffers[0], base1, buffers[1], base2, max_rva=max_rva)


def test_overlap_changes_the_decoded_rva():
    """A candidate overlapping the slot just rewritten is judged on the
    rewritten bytes: read on the original ones, the second slot here
    decodes to a different RVA (both slots are replaced either way)."""
    data1 = bytes.fromhex("000daa476aaa4723")
    data2 = bytes.fromhex("000dab476aab4723")
    adj1, adj2, stats = assert_same(data1, 0x47A9AA0E, data2, 0x47AAAA0E)
    assert adj1 == adj2 == bytes.fromhex("f26200f2bf000023")
    assert (stats.replaced, stats.unresolved, stats.windows) == (2, 0, 2)


# -- every code-region pair of real pool checks --------------------------------

#: One VM per entry; the attack is applied to each of its modules (to
#: one LDR entry for the LDR attacks).
ATTACKS = {
    "clean": None,
    "code-patch": RuntimeCodePatchAttack(),
    "slot-redirect-0x100": RelocSlotRedirectAttack(delta=0x100),
    "slot-redirect-0x7000000": RelocSlotRedirectAttack(delta=0x7000000),
    "racing-writer": RacingWriterAttack(offset_in_text=0x40),
    "iat-hook": IATHookAttack(),
    "ldr-decoy": LdrDecoyAttack(),
    "ldr-blinding": LdrBlindingAttack(),
}


@pytest.fixture(scope="module")
def pool_calls():
    """Sweep every catalog module over a pool with one attacked VM per
    attack (two clean VMs), recording each adjuster call the checker
    makes with the VM pair it came from and both adjusters' results."""
    vm_attacks = ["clean", *ATTACKS]
    tb = build_testbed(len(vm_attacks), seed=42)
    victim_of = dict(zip(vm_attacks[1:], tb.vm_names[1:]))
    for label, attack in ATTACKS.items():
        if attack is None:
            continue
        kernel = tb.hypervisor.domain(victim_of[label]).kernel
        targets = (["http.sys"] if label == "ldr-blinding"
                   else [None] if label == "ldr-decoy"
                   else sorted(tb.catalog))
        for module in targets:
            try:
                attack.apply(kernel,
                             tb.catalog[module] if module else None)
            except AttackError:
                continue

    calls = []
    pair = {}
    compare_pair = IntegrityChecker.compare_pair

    def tagged_compare(self, mod_a, mod_b):
        pair["vms"] = (mod_a.vm_name, mod_b.vm_name)
        return compare_pair(self, mod_a, mod_b)

    def both(data1, base1, data2, base2, *, max_rva=None):
        got = adjust_rva_robust(data1, base1, data2, base2, max_rva=max_rva)
        want = adjust_rva_scan(data1, base1, data2, base2, max_rva=max_rva)
        calls.append((pair["vms"], got, want))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(IntegrityChecker, "compare_pair", tagged_compare)
        mp.setitem(integrity_mod.ADJUSTERS, "robust", both)
        ModChecker(tb.hypervisor, tb.profile).check_all_modules()
    return calls, victim_of


@pytest.mark.parametrize("label", list(ATTACKS))
def test_pool_check_pairs(pool_calls, label):
    calls, victim_of = pool_calls
    if label == "clean":
        mine = [(got, want) for vms, got, want in calls
                if set(vms) == {"Dom1", victim_of["clean"]}]
    else:
        mine = [(got, want) for vms, got, want in calls
                if victim_of[label] in vms]
    assert mine
    for got, want in mine:
        assert got == want
    stats = [got[2] for got, _ in mine]
    assert sum(s.replaced for s in stats) > 0
    if label == "clean":
        assert not any(s.unresolved for s in stats)
    if label in ("code-patch", "racing-writer") or label.startswith("slot"):
        assert any(s.unresolved for s in stats), label
