"""Integrity-Checker — hashing, RVA adjustment, majority voting.

Per the paper (§III-B3, §IV-C): MD5 each header region directly
(headers are base-independent — the loader never rewrites them in
memory), RVA-adjust each executable section pairwise and MD5 the
adjusted bytes, then vote: a VM's module is clean iff its hashes fully
match a majority of the other ``t-1`` VMs.

Structural divergence is also a signal: if the two copies expose
different region *sets* (e.g. an injected extra section header), the
symmetric difference is reported as mismatched, and region size
differences mismatch trivially via the hash.
"""

from __future__ import annotations

import hashlib
from typing import Callable

from ..obs import NULL_OBS, Observability
from ..perf.costmodel import DEFAULT_COST_MODEL, CostModel
from .parser import ParsedModule
from .report import PairComparison, PoolReport, VMCheckReport, VMVerdict
from .rva import ADJUSTERS, RvaAdjustStats

__all__ = ["IntegrityChecker", "md5_hex", "SUPPORTED_HASHES"]

#: Digests the checker accepts. The paper uses MD5 (OpenSSL); MD5 is
#: collision-broken today, so deployments should prefer SHA-256 — the
#: cross-VM protocol is digest-agnostic.
SUPPORTED_HASHES = ("md5", "sha1", "sha256")


def md5_hex(data: bytes) -> str:
    """MD5 digest (hex) — the paper's OpenSSL MD5, via hashlib."""
    return hashlib.md5(data).hexdigest()


def _no_charge(_seconds: float) -> None:
    """Default charge hook: free checking (unit tests, offline use)."""


class IntegrityChecker:
    """Pairwise comparison + majority vote over parsed module copies."""

    def __init__(self, *, rva_mode: str = "robust",
                 hash_algorithm: str = "md5",
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 charge: Callable[[float], None] | None = None,
                 obs: Observability = NULL_OBS) -> None:
        if rva_mode not in ADJUSTERS:
            raise ValueError(
                f"unknown rva_mode {rva_mode!r}; pick from {sorted(ADJUSTERS)}")
        if hash_algorithm not in SUPPORTED_HASHES:
            raise ValueError(
                f"unknown hash {hash_algorithm!r}; "
                f"pick from {SUPPORTED_HASHES}")
        self.rva_mode = rva_mode
        self.hash_algorithm = hash_algorithm
        self._adjust = ADJUSTERS[rva_mode]
        self.costs = cost_model
        self._charge = charge or _no_charge
        self.obs = obs

    def digest(self, data: bytes) -> str:
        """Hash ``data`` with the configured algorithm."""
        return hashlib.new(self.hash_algorithm, data).hexdigest()

    # -- pair comparison ----------------------------------------------------------

    def compare_pair(self, mod_a: ParsedModule,
                     mod_b: ParsedModule) -> PairComparison:
        """Compare one module between two VMs, region by region."""
        mismatched: list[str] = []
        rva_stats: dict[str, RvaAdjustStats] = {}
        cost = self.costs.compare_per_pair

        # Dict union walks mod_a's regions in order, then those only
        # mod_b has, in its order. A key-set union would follow string
        # hashing (PYTHONHASHSEED), and so would the float cost sum.
        regions_a = {r.name: r for r in mod_a.header_regions}
        regions_b = {r.name: r for r in mod_b.header_regions}
        for name in regions_a | regions_b:
            ra, rb = regions_a.get(name), regions_b.get(name)
            if ra is None or rb is None:
                mismatched.append(name)      # structural divergence
                continue
            data_a, data_b = mod_a.region_bytes(ra), mod_b.region_bytes(rb)
            cost += (len(data_a) + len(data_b)) * self.costs.hash_per_byte
            if self.digest(data_a) != self.digest(data_b):
                mismatched.append(name)

        code_a = {r.name: r for r in mod_a.code_regions}
        code_b = {r.name: r for r in mod_b.code_regions}
        for name in code_a | code_b:
            ra, rb = code_a.get(name), code_b.get(name)
            if ra is None or rb is None:
                mismatched.append(name)
                continue
            data_a, data_b = mod_a.region_bytes(ra), mod_b.region_bytes(rb)
            if len(data_a) != len(data_b):
                mismatched.append(name)
                continue
            adj_a, adj_b, stats = self._adjust(
                data_a, mod_a.base, data_b, mod_b.base,
                max_rva=max(len(mod_a.image), len(mod_b.image)))
            rva_stats[name] = stats
            cost += 2 * len(data_a) * (self.costs.rva_scan_per_byte
                                       + self.costs.hash_per_byte)
            if self.digest(adj_a) != self.digest(adj_b):
                mismatched.append(name)

        self._charge(cost)
        order = mod_a.region_names()
        mismatched.sort(key=lambda n: order.index(n) if n in order else 999)
        pair = PairComparison(mod_a.vm_name, mod_b.vm_name,
                              tuple(mismatched), rva_stats)
        self.announce(mod_a.module_name, pair)
        return pair

    def announce(self, module_name: str, pair: PairComparison) -> None:
        """Emit the ``pair.compared`` audit event for one comparison."""
        events = self.obs.events
        if events.enabled:
            events.emit("pair.compared", module=module_name,
                        vm_a=pair.vm_a, vm_b=pair.vm_b,
                        matched=pair.matched,
                        mismatched=list(pair.mismatched_regions))

    # -- voting ----------------------------------------------------------------------

    def check_target(self, target: ParsedModule,
                     others: list[ParsedModule]) -> VMCheckReport:
        """Linear mode: the target VM's module vs each other VM (Figs. 7/8)."""
        pairs = tuple(self.compare_pair(target, other) for other in others)
        matches = sum(1 for p in pairs if p.matched)
        return VMCheckReport(
            module_name=target.module_name, target_vm=target.vm_name,
            pairs=pairs, matches=matches, comparisons=len(pairs))

    def check_pool_canonical(
            self, modules: list[ParsedModule],
            compare: Callable[[ParsedModule, ParsedModule],
                              PairComparison] | None = None) -> PoolReport:
        """O(t) pool check: a star of pair comparisons around a reference.

        RVA adjustment maps every clean copy to the same base-independent
        bytes, so one star usually settles the vote: compare each copy
        with a reference (via ``compare``, default :meth:`compare_pair`).
        If the reference and the copies matching it are a strict
        majority of all ``t``, they are clean, and every other VM is
        flagged with the regions of its pair with the reference.
        Otherwise the next VM no star has claimed becomes the
        reference, and its star reaches only VMs still unclaimed, until
        those can no longer form a majority and every VM is flagged.
        Matching is taken as an equivalence among copies (clean copies
        normalise to the same bytes), so a claimed VM never matches a
        later reference and skipping it loses no vote. Each pair is
        compared once, so a tampered reference costs one more star and
        the worst case stays within the C(t,2) comparisons of
        :meth:`check_pool`.

        The rule differs from :meth:`vote` (matches with more than
        ``(t-1)/2`` others) only for odd ``t`` with exactly ``(t+1)/2``
        copies agreeing: canonical clears them, pairwise flags all.
        """
        compare = compare or self.compare_pair
        t = len(modules)
        done: dict[tuple[int, int], PairComparison] = {}

        def pair(i: int, j: int) -> PairComparison:
            i, j = min(i, j), max(i, j)           # the pairwise order
            if (i, j) not in done:
                done[i, j] = compare(modules[i], modules[j])
            return done[i, j]

        claimed: dict[int, set[int]] = {}     # VM -> the star it joined
        majority: set[int] = set()
        ref = None
        for r in range(t):
            if r in claimed:
                continue
            if t - len(claimed) <= t / 2:
                break
            cluster = {r} | {j for j in range(r + 1, t)
                             if j not in claimed and pair(r, j).matched}
            for j in cluster:
                claimed[j] = cluster
            if len(cluster) > t / 2:
                majority, ref = cluster, r
                break

        verdicts: dict[str, VMVerdict] = {}
        for i, mod in enumerate(modules):
            clean = i in majority
            verdicts[mod.vm_name] = VMVerdict(
                vm_name=mod.vm_name, comparisons=t - 1, clean=clean,
                matches=len(majority if clean else claimed.get(i, {i})) - 1,
                mismatched_regions=(pair(ref, i).mismatched_regions
                                    if ref is not None and not clean
                                    else ()))
        return PoolReport(module_name=modules[0].module_name if modules else "",
                          vm_names=[m.vm_name for m in modules],
                          pairs=list(done.values()), verdicts=verdicts)

    def check_pool(self, modules: list[ParsedModule]) -> PoolReport:
        """Full cross-check: every pair once, then per-VM majority votes."""
        pairs: list[PairComparison] = []
        for i, mod_a in enumerate(modules):
            for mod_b in modules[i + 1:]:
                pairs.append(self.compare_pair(mod_a, mod_b))
        return self.vote(modules, pairs)

    def vote(self, modules: list[ParsedModule],
             pairs: list[PairComparison]) -> PoolReport:
        """Majority-vote already-computed pair comparisons into a report.

        Split from :meth:`check_pool` so callers that produce the
        pairwise comparisons themselves (ModChecker's compare phase,
        which replays and schedules them) reuse the exact voting
        semantics.
        """
        names = [m.vm_name for m in modules]
        match_count = {name: 0 for name in names}
        for p in pairs:
            if p.matched:
                match_count[p.vm_a] += 1
                match_count[p.vm_b] += 1
        t = len(modules)
        clean = {name: match_count[name] > (t - 1) / 2 for name in names}

        verdicts: dict[str, VMVerdict] = {}
        for name in names:
            regions: list[str] = []
            for p in pairs:
                if p.involves(name) and clean.get(p.other(name), False):
                    for region in p.mismatched_regions:
                        if region not in regions:
                            regions.append(region)
            verdicts[name] = VMVerdict(
                vm_name=name, matches=match_count[name], comparisons=t - 1,
                clean=clean[name],
                mismatched_regions=tuple(regions) if not clean[name] else ())
        return PoolReport(module_name=modules[0].module_name if modules else "",
                          vm_names=names, pairs=pairs, verdicts=verdicts)
