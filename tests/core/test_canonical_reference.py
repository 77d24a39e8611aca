"""The canonical vote's reference is chosen by agreement.

Canonical mode compares every copy with one reference. A tampered
reference must cost an extra star, not the verdict: whichever pool
index the victim holds, canonical flags exactly the victim, with the
mismatched regions the pairwise vote reports.
"""

import struct
from contextlib import contextmanager

import pytest

from repro.attacks import RelocSlotRedirectAttack, attack_for_experiment
from repro.cloud import build_testbed
from repro.core import IntegrityChecker, ModChecker
from repro.core.report import PairComparison
from repro.guest import build_catalog
from repro.obs import make_observability

SEED = 42
CASES = [(t, victim) for t in (6, 8) for victim in range(t)]


@pytest.fixture(scope="module")
def pools():
    """Pristine testbeds by pool size, built once; every test restores
    what it tampers, so they stay pristine between tests."""
    built = {}

    def pool(t):
        if t not in built:
            built[t] = build_testbed(t, seed=SEED)
        return built[t]
    return pool


@contextmanager
def redirected(tb, vm, module, delta=0x100):
    """Redirect one ``.text`` relocation slot of ``vm``'s ``module``
    for the duration of the block."""
    kernel = tb.hypervisor.domain(vm).kernel
    result = RelocSlotRedirectAttack(delta=delta).apply(
        kernel, tb.catalog[module])
    try:
        yield result
    finally:
        kernel.aspace.write(result.details["va"],
                            struct.pack("<I", result.details["original"]))


@pytest.mark.parametrize("delta", [0x100, 0x7000000], ids=hex)
@pytest.mark.parametrize("module", ["http.sys", "hal.dll"])
@pytest.mark.parametrize("t,victim", CASES,
                         ids=[f"t{t}-victim{v}" for t, v in CASES])
def test_slot_redirect_flags_exactly_the_victim(pools, checker_cls, t,
                                                victim, module, delta):
    tb = pools(t)
    vm = tb.vm_names[victim]
    with redirected(tb, vm, module, delta) as result:
        mc = checker_cls(tb.hypervisor, tb.profile)
        canonical = mc.check_pool(module, mode="canonical").report
        pairwise = mc.check_pool(module, mode="pairwise").report
    assert pairwise.flagged() == canonical.flagged() == [vm]
    assert canonical.mismatched_regions(vm) == \
        pairwise.mismatched_regions(vm) == result.expected_regions


def test_tampered_reference_costs_one_more_star(pools):
    """The second star reuses its pair with the first reference, so
    no pair is compared twice, and the compare span counts them all."""
    tb = pools(8)
    obs = make_observability(tb.clock)
    with redirected(tb, tb.vm_names[0], "hal.dll"):
        mc = ModChecker(tb.hypervisor, tb.profile, obs=obs)
        pairs = mc.check_pool("hal.dll", mode="canonical").report.pairs
    assert len(pairs) == 2 * (8 - 1) - 1
    assert len({(p.vm_a, p.vm_b) for p in pairs}) == len(pairs)
    (span,) = [s for s in obs.tracer.spans if s.name == "checker.compare"]
    assert span.attrs["pairs"] == len(pairs)


def test_no_majority_flags_every_vm(pools):
    """Stars stop once the unclaimed VMs can no longer outvote; with
    no clean majority there is no reference to blame regions on."""
    tb = pools(6)
    parsed = ModChecker(tb.hypervisor, tb.profile).fetch_modules(
        "hal.dll", tb.vm_names).parsed
    report = IntegrityChecker().check_pool_canonical(
        parsed, lambda a, b: PairComparison(a.vm_name, b.vm_name, (".text",)))
    assert report.flagged() == tb.vm_names
    assert all(v.mismatched_regions == () for v in report.verdicts.values())
    assert len(report.pairs) == 5 + 4 + 3       # three stars, then stop


@pytest.mark.parametrize("t,victims", [(3, ("Dom3",)),
                                       (5, ("Dom2", "Dom4"))])
def test_odd_pool_vote_rules_differ(t, victims):
    """Pinned, not endorsed: with ``t`` odd and exactly ``(t+1)/2``
    copies agreeing, the pairwise vote (matches > (t-1)/2) flags every
    VM while the canonical vote (a strict majority of all t) clears the
    agreeing copies."""
    attack, module = attack_for_experiment("E1")
    infected = attack.apply(build_catalog(seed=SEED)[module]).infected
    tb = build_testbed(t, seed=SEED,
                       infected={vm: {module: infected} for vm in victims})
    mc = ModChecker(tb.hypervisor, tb.profile)
    assert mc.check_pool(module, mode="pairwise").report.flagged() == \
        tb.vm_names
    assert mc.check_pool(module, mode="canonical").report.flagged() == \
        list(victims)
