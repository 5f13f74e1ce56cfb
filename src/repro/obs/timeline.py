"""Chrome trace-event / Perfetto export of simulated parallel executions.

The makespan model (:mod:`repro.parallel.makespan`) computes a start and
finish time for every op on every node; this module renders that schedule
in the `Chrome trace-event format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_,
which both ``chrome://tracing`` and `ui.perfetto.dev
<https://ui.perfetto.dev>`_ open directly:

* one *track* (thread) per node, one complete event (``ph: "X"``) per op,
  named ``<op.name>#<index>`` and carrying the op's mults in ``args``;
* one *flow* arrow (``ph: "s"`` → ``ph: "f"``) per cross-node
  data-carrying dependence edge, from the producer's finish on its node's
  track to the consumer's start on the destination track, carrying the
  transferred element count — the cut made visible.

Timestamps are the model's own units (op weights — mults by default — plus
``alpha + beta * elements`` edge latencies); the viewer labels them as
microseconds, which is harmless: the *shape* of the timeline (which node
idles, which transfer chains serialize the critical path) is the point.

The exported document is a JSON object (``{"traceEvents": [...]}``), the
variant of the format that allows extra top-level keys — the export adds
``"provenance"`` (:func:`repro.obs.provenance.provenance_stamp`) and a
``"meta"`` block (p, makespan, floors), which viewers ignore and the
artifact schema check requires.
"""

from __future__ import annotations

import json
from typing import IO, TYPE_CHECKING, Any

from .provenance import provenance_stamp

if TYPE_CHECKING:  # pragma: no cover - typing only (no runtime cycle)
    from ..graph.dependency import DependencyGraph
    from ..parallel.makespan import MakespanResult


def timeline_events(
    graph: "DependencyGraph",
    span: "MakespanResult",
    *,
    relax_reductions: bool = False,
) -> list[dict[str, Any]]:
    """The trace-event list of one scored ``(owner, order)`` pair.

    ``span`` must carry the per-op arrays (``start``/``finish``/``node``)
    a :func:`~repro.parallel.makespan.makespan_model` call returns;
    ``relax_reductions`` must match the call that produced it so the flow
    arrows traverse the same effective edge set the model charged.
    """
    n = len(graph)
    if len(span.start) != n or len(span.node) != n:
        raise ValueError(
            f"span carries {len(span.start)} per-op times for {n} graph ops; "
            "score the same graph with makespan_model first"
        )
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": f"simulated fleet (p={span.p})"},
        }
    ]
    for q in range(span.p):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": q,
                "args": {"name": f"node {q}"},
            }
        )
        events.append(
            {
                "name": "thread_sort_index",
                "ph": "M",
                "pid": 0,
                "tid": q,
                "args": {"sort_index": q},
            }
        )
    for v in range(n):
        op = graph.ops[v]
        events.append(
            {
                "name": f"{op.name}#{v}",
                "cat": "op",
                "ph": "X",
                "ts": span.start[v],
                "dur": span.finish[v] - span.start[v],
                "pid": 0,
                "tid": span.node[v],
                "args": {"op": v, "mults": int(op.mults)},
            }
        )
    flow_id = 0
    for v in range(n):
        for u in graph.effective_preds(v, relax_reductions=relax_reductions):
            if span.node[u] == span.node[v]:
                continue
            elems = graph.edge_flow(u, v)
            if not elems:
                continue  # WAR/WAW-only cross edges move no data
            flow_id += 1
            common = {
                "name": "transfer",
                "cat": "transfer",
                "id": flow_id,
                "pid": 0,
                "args": {"src_op": u, "dst_op": v, "elements": len(elems)},
            }
            events.append(
                {**common, "ph": "s", "ts": span.finish[u], "tid": span.node[u]}
            )
            events.append(
                {**common, "ph": "f", "bp": "e", "ts": span.start[v], "tid": span.node[v]}
            )
    return events


def export_timeline(
    graph: "DependencyGraph",
    span: "MakespanResult",
    path_or_file: "str | IO[str]",
    *,
    relax_reductions: bool = False,
    label: str = "",
) -> dict[str, Any]:
    """Write the Perfetto-openable JSON document; returns it as a dict."""
    doc = {
        "traceEvents": timeline_events(
            graph, span, relax_reductions=relax_reductions
        ),
        "displayTimeUnit": "ms",
        "meta": {
            "label": label,
            "p": span.p,
            "alpha": span.alpha,
            "beta": span.beta,
            "makespan": span.makespan,
            "critical_path": span.critical_path,
            "max_busy": span.max_busy,
            "n_ops": len(graph),
        },
        "provenance": provenance_stamp(),
    }
    if hasattr(path_or_file, "write"):
        json.dump(doc, path_or_file)
    else:
        from ..utils.atomic import atomic_write_json

        atomic_write_json(path_or_file, doc, indent=None)
    return doc
