"""Iteration-level telemetry of the search engines.

The search engines (simulated annealing, the greedy partition refiner,
beam search) return a final cost and a handful of counters; whether the
run *plateaued* or was *still descending* — the question the ROADMAP
raises about the measured refined/bound ratios — needs the full
trajectory.  Two column-oriented series cover every engine:

* :class:`AnnealSeries` — one row per Metropolis iteration:
  ``(iter, temp, cost, best, accepted)``.  Produced by the one annealing
  engine, :func:`repro.graph.search.run_chain`, and therefore shared by
  its three walks (:func:`repro.graph.search.anneal_search` over compute
  orders, :func:`repro.parallel.cosearch.cosearch` over order × owner
  pairs, :func:`repro.parallel.refine.refine_partition` over shard
  assignments);
* :class:`RoundSeries` — one row per improvement round:
  ``(round, best)``.  Produced by the greedy refiner (one row per accepted
  move) and by beam search (best accumulated cost per emitted position).

Both serialize to plain dicts of lists (``as_dict`` / ``from_dict`` /
:func:`series_from_dict`), land in run reports as attachments, and render
as ASCII curves (:func:`repro.obs.report.render_series`).  Recording is
append-only and touches no RNG, so a recorded run is bit-identical to an
unrecorded one — pinned by the invariance tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class AnnealSeries:
    """Per-iteration ``(iter, temp, cost, best, accepted)`` of one Metropolis run.

    ``cost`` is the accepted (current) cost after the iteration, ``best``
    the lowest cost accepted so far (seeded with the starting cost) —
    ``bests`` is therefore non-increasing and its tail tells plateau from
    descent at a glance.
    """

    label: str = ""
    iters: list[int] = field(default_factory=list)
    temps: list[float] = field(default_factory=list)
    costs: list[float] = field(default_factory=list)
    bests: list[float] = field(default_factory=list)
    accepted: list[bool] = field(default_factory=list)

    def add(self, i: int, temp: float, cost: float, best: float, was_accepted: bool) -> None:
        self.iters.append(int(i))
        self.temps.append(float(temp))
        self.costs.append(float(cost))
        self.bests.append(float(best))
        self.accepted.append(bool(was_accepted))

    def __len__(self) -> int:
        return len(self.iters)

    @property
    def improvement(self) -> float:
        """Best-cost drop over the run (0.0 for an empty series)."""
        if not self.bests:
            return 0.0
        return self.bests[0] - self.bests[-1]

    def plateau_length(self) -> int:
        """Trailing iterations during which ``best`` did not improve."""
        if not self.bests:
            return 0
        final = self.bests[-1]
        run = 0
        for b in reversed(self.bests):
            if b != final:
                break
            run += 1
        return run

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": "anneal",
            "label": self.label,
            "iter": list(self.iters),
            "temp": list(self.temps),
            "cost": list(self.costs),
            "best": list(self.bests),
            "accepted": list(self.accepted),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "AnnealSeries":
        return cls(
            label=d.get("label", ""),
            iters=[int(i) for i in d.get("iter", [])],
            temps=[float(t) for t in d.get("temp", [])],
            costs=[float(c) for c in d.get("cost", [])],
            bests=[float(b) for b in d.get("best", [])],
            accepted=[bool(a) for a in d.get("accepted", [])],
        )


@dataclass
class RoundSeries:
    """Per-round ``(round, best)`` trace of a monotone-improvement engine."""

    label: str = ""
    engine: str = ""
    rounds: list[int] = field(default_factory=list)
    bests: list[float] = field(default_factory=list)

    def add(self, r: int, best: float) -> None:
        self.rounds.append(int(r))
        self.bests.append(float(best))

    def __len__(self) -> int:
        return len(self.rounds)

    @property
    def improvement(self) -> float:
        """Best-cost drop over the run (0.0 for an empty series)."""
        if not self.bests:
            return 0.0
        return self.bests[0] - self.bests[-1]

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": "rounds",
            "label": self.label,
            "engine": self.engine,
            "round": list(self.rounds),
            "best": list(self.bests),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RoundSeries":
        return cls(
            label=d.get("label", ""),
            engine=d.get("engine", ""),
            rounds=[int(r) for r in d.get("round", [])],
            bests=[float(b) for b in d.get("best", [])],
        )


def series_from_dict(d: dict[str, Any]) -> "AnnealSeries | RoundSeries":
    """Rebuild a serialized series from its ``as_dict`` form (by ``kind``)."""
    kind = d.get("kind")
    if kind == "anneal":
        return AnnealSeries.from_dict(d)
    if kind == "rounds":
        return RoundSeries.from_dict(d)
    raise ValueError(f"unknown series kind {kind!r}; expected 'anneal' or 'rounds'")
