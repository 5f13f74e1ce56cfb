"""Static analysis over schedules, partitions and the repository itself.

``repro.check`` proves the invariants the rest of the repo establishes
dynamically — in one linear pass, without replaying anything:

* :mod:`~repro.check.certify` — the memory certifier: peak residency <= S,
  load-before-use, double-load, dead-evict, evict-without-load and
  store-of-clean, all from the load/evict stream alone.
* :mod:`~repro.check.races` — the cross-shard race detector: vector-clock
  happens-before from shard program order + transfer edges; flags every
  RAW/WAR/WAW pair (and relax-split commuting reductions) left unordered.
* :mod:`~repro.check.conservation` — transfer symmetry, the per-shard
  receive floor and the owner-computes exclusive-writer rule, re-derived
  statically from the dependence graph.
* :mod:`~repro.check.lint` — repo-invariant lints (atomic writes, probe
  counter taxonomy, seeded RNGs, no stray ``perf_counter``).
* :mod:`~repro.check.findings` — the shared :class:`Finding` model every
  check (and ``sched.validate`` / ``parallel.executor``) reports through.

CLI: ``python -m repro check`` (see :mod:`repro.check.cli`).
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Certificate": "certify",
    "certify_schedule": "certify",
    "check_conservation": "conservation",
    "check_summary": "conservation",
    "derived_transfer_totals": "conservation",
    "CODES": "findings",
    "ERROR": "findings",
    "WARNING": "findings",
    "Finding": "findings",
    "has_errors": "findings",
    "sort_findings": "findings",
    "counter_documented": "lint",
    "lint_paths": "lint",
    "lint_source": "lint",
    "parse_taxonomy": "lint",
    "check_races": "races",
})
