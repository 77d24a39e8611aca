"""Parallel introspection — the paper's explicitly-invited extension.

§V-C-1: "The modular design of ModChecker can support parallel access
of virtual machines' memory which would considerably enhance the
runtime performance." :class:`ParallelModChecker` models that as a
scheduling policy of :class:`~repro.core.modchecker.ModChecker`'s own
fetch → compare → vote path, not as a second copy of it: the work
items of each check are packed onto ``threads`` Dom0 workers with a
longest-processing-time greedy (:func:`makespan`), stretched by the
contention of ``threads`` busy Dom0 vCPUs. Parallelism is therefore
*not* free on a saturated host, which the A1 ablation bench shows.
Verdicts, degradation, audit events, evidence and repair are the
sequential checker's.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..perf.timing import ComponentTimings
from .modchecker import ModChecker, _Makespan

__all__ = ["ParallelModChecker", "makespan"]


def makespan(work_items: list[float], workers: int) -> float:
    """LPT greedy makespan of ``work_items`` over ``workers`` bins."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if not work_items:
        return 0.0
    bins = [0.0] * min(workers, len(work_items))
    for item in sorted(work_items, reverse=True):
        i = min(range(len(bins)), key=bins.__getitem__)
        bins[i] += item
    return max(bins)


@dataclass
class ParallelTimings:
    """Sequential-equivalent CPU seconds vs parallel wall seconds."""

    cpu: ComponentTimings
    wall: ComponentTimings

    @property
    def speedup(self) -> float:
        return self.cpu.total / self.wall.total if self.wall.total else 1.0


class ParallelModChecker(ModChecker):
    """ModChecker with ``threads``-way concurrent guest access.

    Every check outcome carries ``.parallel``, a :class:`ParallelTimings`
    of CPU work against wall time.
    """

    def __init__(self, hypervisor, profile=None, *, threads: int = 4,
                 **kwargs) -> None:
        if threads < 1:
            raise ValueError("threads must be >= 1")
        super().__init__(hypervisor, profile, **kwargs)
        self.threads = threads
        self._schedule = _Makespan(self.hv, threads)

    def _check_attrs(self, mode: str) -> dict:
        return {"mode": f"parallel-{mode}", "threads": self.threads}

    def _finish(self, outcome, work):
        outcome.parallel = ParallelTimings(
            cpu=ComponentTimings(searcher=sum(work.searcher.values()),
                                 parser=sum(work.parser.values()),
                                 checker=sum(work.pairs)),
            wall=outcome.timings)
        return outcome
