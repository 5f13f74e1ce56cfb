"""Run-trace observability: probes, convergence telemetry, timelines, reports.

Every claim this reproduction makes is a number — I/O volumes against the
paper's lower bounds, makespans, search costs — and this package makes the
pipeline that produces those numbers inspectable without perturbing it:

* :mod:`repro.obs.probe` — a structured event recorder (counters, timers,
  nested spans, series) behind a process-global handle.  The default is a
  zero-overhead null recorder, so instrumented call sites cost nothing
  unless a run opts in (``probe_scope()``, or ``--report`` on the CLI);
* :mod:`repro.obs.convergence` — iteration-level series of the search
  engines (annealing temperature/cost/best traces, per-round best-cost
  traces of the greedy refiner and beam search), the data that separates
  "the search plateaued" from "it was still descending";
* :mod:`repro.obs.timeline` — Chrome trace-event / Perfetto export of a
  simulated parallel execution (one track per node, flow arrows for
  cross-node transfers), viewable at ``ui.perfetto.dev``;
* :mod:`repro.obs.provenance` — the stamp (git SHA, host, interpreter and
  numpy versions, schema version) every saved artifact carries so bench
  JSONs stay comparable across PRs;
* :mod:`repro.obs.report` — the run-report aggregator: one JSON document
  per instrumented run (provenance + phase wall-times + engine counters +
  convergence series) with an ASCII rendering
  (``python -m repro report saved.json``).
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "AnnealSeries": "convergence",
    "RoundSeries": "convergence",
    "series_from_dict": "convergence",
    "NULL_PROBE": "probe",
    "NullProbe": "probe",
    "RecordingProbe": "probe",
    "Timer": "probe",
    "get_probe": "probe",
    "probe_scope": "probe",
    "set_probe": "probe",
    "timed": "probe",
    "SCHEMA_VERSION": "provenance",
    "provenance_stamp": "provenance",
    "REPORT_SCHEMA": "report",
    "build_report": "report",
    "load_report": "report",
    "render_report": "report",
    "render_series": "report",
    "save_report": "report",
    "export_timeline": "timeline",
    "timeline_events": "timeline",
})
