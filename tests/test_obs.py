"""Tests for the observability layer: probes, series, reports, timelines.

Ends with the invariance suite — the load-bearing guarantee of the whole
layer: with a recording probe installed (or convergence recording turned
on), every engine returns results bit-identical to an uninstrumented run.
"""

import dataclasses
import io
import json
import random

import pytest

from repro.__main__ import main
from repro.graph.compare import record_case
from repro.graph.dependency import DependencyGraph
from repro.errors import ConfigurationError, ScheduleError
from repro.graph.search import AnnealStats, anneal_search, run_chain
from repro.obs import (
    NULL_PROBE,
    REPORT_SCHEMA,
    SCHEMA_VERSION,
    AnnealSeries,
    RecordingProbe,
    RoundSeries,
    build_report,
    export_timeline,
    get_probe,
    load_report,
    probe_scope,
    provenance_stamp,
    render_report,
    render_series,
    save_report,
    series_from_dict,
    set_probe,
    timed,
    timeline_events,
)
from repro.parallel import makespan_model, partition_graph, refine_partition
from repro.trace.replay import belady_replay_trace, lru_replay_trace

N, M, S = 26, 3, 15


@pytest.fixture(scope="module")
def tbs_case():
    return record_case("tbs", N, M, S)


@pytest.fixture(scope="module")
def tbs_graph(tbs_case):
    return DependencyGraph.from_trace(tbs_case.trace)


# --------------------------------------------------------------------- #
# probes
# --------------------------------------------------------------------- #

class TestProbe:
    def test_null_probe_is_the_default(self):
        probe = get_probe()
        assert probe is NULL_PROBE
        assert probe.enabled is False

    def test_null_probe_hooks_are_noops(self):
        NULL_PROBE.count("x", 3)
        NULL_PROBE.emit("s", a=1)
        assert NULL_PROBE.attach("name", object()) == "name"
        with NULL_PROBE.span("phase"):
            pass
        with NULL_PROBE.timer("t") as t:
            pass
        assert t.elapsed >= 0.0  # measures even when nobody records

    def test_probe_scope_installs_and_restores(self):
        assert get_probe() is NULL_PROBE
        with probe_scope() as probe:
            assert get_probe() is probe
            assert probe.enabled is True
        assert get_probe() is NULL_PROBE

    def test_probe_scope_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with probe_scope():
                raise RuntimeError("boom")
        assert get_probe() is NULL_PROBE

    def test_probe_scope_nests(self):
        with probe_scope() as outer:
            with probe_scope() as inner:
                assert get_probe() is inner
            assert get_probe() is outer
        assert get_probe() is NULL_PROBE

    def test_set_probe_returns_previous(self):
        probe = RecordingProbe()
        previous = set_probe(probe)
        try:
            assert previous is NULL_PROBE
            assert get_probe() is probe
        finally:
            assert set_probe(None) is probe
        assert get_probe() is NULL_PROBE

    def test_counters_accumulate(self):
        probe = RecordingProbe()
        probe.count("a")
        probe.count("a", 4)
        probe.count("b", 2)
        assert probe.counters == {"a": 5, "b": 2}

    def test_timers_aggregate_total_and_calls(self):
        probe = RecordingProbe()
        with probe.timer("phase"):
            pass
        with probe.timer("phase"):
            pass
        rec = probe.timers["phase"]
        assert rec["calls"] == 2
        assert rec["total"] >= 0.0

    def test_spans_record_nesting_depth(self):
        probe = RecordingProbe()
        with probe.span("outer"):
            with probe.span("inner"):
                pass
        outer, inner = probe.spans
        assert (outer["name"], outer["depth"]) == ("outer", 0)
        assert (inner["name"], inner["depth"]) == ("inner", 1)
        assert outer["end"] >= inner["end"] >= inner["start"] >= outer["start"]

    def test_attach_dedups_names(self):
        probe = RecordingProbe()
        assert probe.attach("conv", 1) == "conv"
        assert probe.attach("conv", 2) == "conv#2"
        assert probe.attach("conv", 3) == "conv#3"
        assert probe.attachments == {"conv": 1, "conv#2": 2, "conv#3": 3}

    def test_emit_appends_rows(self):
        probe = RecordingProbe()
        probe.emit("s", x=1)
        probe.emit("s", x=2)
        assert probe.series["s"] == [{"x": 1}, {"x": 2}]

    def test_timed_binds_to_active_probe(self):
        with timed("off") as t:
            pass
        assert t.elapsed >= 0.0 and t.probe is None
        with probe_scope() as probe:
            with timed("on"):
                pass
        assert probe.timers["on"]["calls"] == 1

    def test_snapshot_converts_series_attachments(self):
        probe = RecordingProbe()
        series = AnnealSeries(label="x")
        series.add(0, 1.5, 3.0, 3.0, True)
        probe.attach("conv", series)
        snap = probe.snapshot()
        assert snap["attachments"]["conv"]["kind"] == "anneal"
        json.dumps(snap)  # the whole snapshot must be JSON-able


# --------------------------------------------------------------------- #
# convergence series
# --------------------------------------------------------------------- #

class TestSeries:
    def test_anneal_series_round_trip(self):
        s = AnnealSeries(label="demo")
        s.add(0, 1.5, 10.0, 10.0, True)
        s.add(1, 1.0, 12.0, 10.0, False)
        s.add(2, 0.5, 8.0, 8.0, True)
        assert len(s) == 3
        assert s.improvement == 2.0
        assert s.plateau_length() == 1
        rebuilt = series_from_dict(s.as_dict())
        assert isinstance(rebuilt, AnnealSeries)
        assert rebuilt == s

    def test_round_series_round_trip(self):
        s = RoundSeries(label="demo", engine="greedy")
        s.add(0, 9.0)
        s.add(1, 7.0)
        assert len(s) == 2
        assert s.improvement == 2.0
        rebuilt = series_from_dict(s.as_dict())
        assert isinstance(rebuilt, RoundSeries)
        assert rebuilt == s

    def test_empty_series_edge_cases(self):
        assert AnnealSeries().improvement == 0.0
        assert AnnealSeries().plateau_length() == 0
        assert RoundSeries().improvement == 0.0

    def test_series_from_dict_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown series kind"):
            series_from_dict({"kind": "nope"})
        with pytest.raises(ValueError):
            series_from_dict({})

    def test_round_trip_survives_json(self):
        s = AnnealSeries(label="j")
        s.add(0, 1.5, 4.0, 4.0, False)
        rebuilt = series_from_dict(json.loads(json.dumps(s.as_dict())))
        assert rebuilt == s


# --------------------------------------------------------------------- #
# AnnealStats + run_chain's edge cases
# --------------------------------------------------------------------- #

class TestAnnealStats:
    def test_acceptance_rate_zero_without_evaluations(self):
        assert AnnealStats().acceptance_rate == 0.0
        assert AnnealStats(iters=5, skipped=5).acceptance_rate == 0.0

    def test_acceptance_rate_is_accepted_over_evaluations(self):
        stats = AnnealStats(iters=10, evaluations=8, accepted=2, skipped=2)
        assert stats.acceptance_rate == 0.25


class ToyWalk:
    """A walk over one number: ``propose(rng, value)`` is the candidate,
    and ``measure`` adds ``drift`` to stand in for a broken ledger."""

    def __init__(self, value, propose, drift=0.0):
        self.value = value
        self.propose = propose
        self.drift = drift

    def cost(self):
        return self.value

    def step(self, rng):
        cand = self.propose(rng, self.value)
        if cand is None:
            return None

        def commit():
            self.value = cand

        return cand, commit

    def snapshot(self):
        return self.value

    def measure(self, value):
        return value + self.drift

    def counters(self):
        return {"toy": 1}


def _nudge(rng, value):
    """No-op three times in ten (cools but is never costed), else +-5."""
    if rng.random() < 0.3:
        return None
    return value + rng.uniform(-5.0, 5.0)


class TestRunChain:
    def test_zero_iters(self):
        chain = run_chain(ToyWalk(7.0, _nudge), iters=0, seed=0, label="toy")
        assert chain.best == chain.cost == 7.0
        assert (chain.stats.iters, chain.stats.evaluations, chain.stats.accepted) == (0, 0, 0)
        assert len(chain.series) == 0

    def test_single_iter_runs_at_t_start(self):
        # One iteration has no second temperature to cool toward: it runs
        # entirely at t_start.
        chain = run_chain(
            ToyWalk(10.0, lambda rng, value: 9.0), iters=1, seed=0,
            t_start=2.0, label="toy",
        )
        assert chain.cost == 9.0  # downhill always accepted
        assert chain.stats.iters == 1 and chain.stats.accepted == 1
        assert chain.series.temps == [2.0]

    def test_series_matches_stats(self):
        chain = run_chain(ToyWalk(100.0, _nudge), iters=50, seed=3, label="toy")
        series, stats = chain.series, chain.stats
        assert len(series) == stats.iters == 50
        assert sum(series.accepted) == stats.accepted
        assert stats.evaluations + stats.skipped == stats.iters
        # bests non-increasing, temps non-increasing
        assert all(b <= a for a, b in zip(series.bests, series.bests[1:]))
        assert all(b <= a for a, b in zip(series.temps, series.temps[1:]))
        assert chain.cost == chain.best == series.bests[-1]
        assert chain.params == {
            "accepted": stats.accepted,
            "acceptance_rate": stats.acceptance_rate,
            "toy": 1,
        }

    def test_unlabeled_chain_records_nothing_and_walks_the_same(self):
        plain = run_chain(ToyWalk(100.0, _nudge), iters=50, seed=3)
        labeled = run_chain(ToyWalk(100.0, _nudge), iters=50, seed=3, label="toy")
        assert plain.series is None
        assert (plain.best, plain.stats) == (labeled.best, labeled.stats)

    @pytest.mark.parametrize("t_start", [0.0, -1.0, float("nan")])
    def test_non_positive_temperature_is_rejected(self, t_start):
        with pytest.raises(ConfigurationError, match="temperature"):
            run_chain(ToyWalk(1.0, _nudge), iters=5, seed=0, t_start=t_start)

    def test_measure_disagreement_raises(self):
        walk = ToyWalk(100.0, _nudge, drift=1.0)
        with pytest.raises(ScheduleError, match="drifted"):
            run_chain(walk, iters=20, seed=3)


class BoundedWalk(ToyWalk):
    """A :class:`ToyWalk` whose proposals offer a lower bound first.

    ``slack(value)`` says how far below the candidate the bound sits; it
    must not draw from the chain's RNG.  The walk keeps that RNG, so a
    test can read its final state, and counts the exact costs it computed.
    """

    def __init__(self, value, propose, slack):
        super().__init__(value, propose)
        self.slack = slack
        self.resolved = 0
        self.rng = None

    def step(self, rng):
        self.rng = rng
        proposal = super().step(rng)
        if proposal is None:
            return None
        cand, commit = proposal

        def exact():
            self.resolved += 1
            return cand

        return cand - self.slack(cand), commit, exact


class TestBoundFirst:
    """Loose bounds decide rejections early and change nothing else."""

    @pytest.mark.parametrize("t_start", [0.5, 5.0, 50.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_loose_bounds_walk_exactly_like_exact_costs(self, seed, t_start):
        looseness = random.Random(1000 + seed)  # never the chain's RNG
        runs = {
            "exact": BoundedWalk(100.0, _nudge, lambda cand: 0.0),
            "loose": BoundedWalk(
                100.0, _nudge, lambda cand: looseness.uniform(0.0, 8.0)
            ),
            "none": BoundedWalk(100.0, _nudge, lambda cand: float("inf")),
        }
        chains = {
            name: run_chain(walk, iters=300, seed=seed, t_start=t_start, label="toy")
            for name, walk in runs.items()
        }
        plain = ToyWalk(100.0, _nudge)
        plain_chain = run_chain(plain, iters=300, seed=seed, t_start=t_start, label="toy")
        for name, chain in chains.items():
            assert chain.series == plain_chain.series, name
            assert (chain.best, chain.stats) == (plain_chain.best, plain_chain.stats)
            assert runs[name].value == plain.value
        states = {name: walk.rng.getstate() for name, walk in runs.items()}
        assert states["exact"] == states["loose"] == states["none"]
        # a useless bound resolves every proposal; tighter ones fewer
        assert runs["none"].resolved == plain_chain.stats.evaluations
        assert runs["exact"].resolved <= runs["loose"].resolved <= runs["none"].resolved
        if t_start < 50.0:
            assert runs["exact"].resolved < runs["none"].resolved


# --------------------------------------------------------------------- #
# provenance
# --------------------------------------------------------------------- #

class TestProvenance:
    def test_stamp_has_all_standard_fields(self):
        stamp = provenance_stamp()
        for field in (
            "schema_version", "git_sha", "git_dirty", "host",
            "platform", "python", "numpy", "timestamp_utc",
        ):
            assert field in stamp
        assert stamp["schema_version"] == SCHEMA_VERSION
        json.dumps(stamp)

    def test_extra_keys_merge(self):
        stamp = provenance_stamp(extra={"experiment": "e16"})
        assert stamp["experiment"] == "e16"

    def test_extra_may_not_shadow_standard_fields(self):
        with pytest.raises(ValueError, match="shadows"):
            provenance_stamp(extra={"git_sha": "cafebabe"})


# --------------------------------------------------------------------- #
# run reports
# --------------------------------------------------------------------- #

class TestReport:
    def _probe_with_content(self):
        probe = RecordingProbe()
        probe.count("demo.events", 3)
        with probe.timer("demo.phase"):
            pass
        series = AnnealSeries(label="demo")
        series.add(0, 1.5, 5.0, 5.0, True)
        series.add(1, 1.0, 4.0, 4.0, True)
        probe.attach("convergence.demo", series)
        return probe

    def test_build_save_load_round_trip(self, tmp_path):
        report = build_report(
            self._probe_with_content(), command="unit", params={"n": 26}
        )
        assert report["schema"] == REPORT_SCHEMA
        path = tmp_path / "r.json"
        save_report(report, str(path))
        loaded = load_report(str(path))
        assert loaded == json.loads(json.dumps(report))
        assert loaded["counters"]["demo.events"] == 3
        assert loaded["timers"]["demo.phase"]["calls"] == 1
        assert loaded["attachments"]["convergence.demo"]["kind"] == "anneal"
        assert loaded["params"] == {"n": 26}

    def test_round_trip_through_file_objects(self):
        report = build_report(self._probe_with_content(), command="buf")
        buf = io.StringIO()
        save_report(report, buf)
        buf.seek(0)
        assert load_report(buf)["command"] == "buf"

    def test_load_report_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ValueError, match="not a run report"):
            load_report(str(path))

    def test_render_report_mentions_everything(self):
        report = build_report(self._probe_with_content(), command="unit")
        text = render_report(report)
        assert "run report: unit" in text
        assert "demo.events" in text
        assert "demo.phase" in text
        assert "convergence.demo" in text

    def test_render_series(self):
        assert render_series([]) == "(empty series)"
        text = render_series([5.0, 4.0, 3.0, 3.0])
        assert "max" in text and "min" in text and "*" in text
        assert render_series([2.0, 2.0])  # flat series must not divide by zero


# --------------------------------------------------------------------- #
# per-op makespan arrays (satellite b)
# --------------------------------------------------------------------- #

class TestMakespanPerOpArrays:
    def test_finish_max_is_makespan(self, tbs_graph):
        owner = partition_graph(tbs_graph, 4, "level-greedy")
        span = makespan_model(tbs_graph, owner)
        assert len(span.start) == len(span.finish) == len(tbs_graph)
        assert max(span.finish) == span.makespan
        assert span.finish[span.bottleneck] == span.makespan

    def test_start_is_finish_minus_weight(self, tbs_graph):
        owner = partition_graph(tbs_graph, 2, "owner-computes")
        span = makespan_model(tbs_graph, owner)
        for v, op in enumerate(tbs_graph.ops):
            assert span.finish[v] - span.start[v] == float(op.mults)
            assert span.start[v] >= 0.0

    def test_node_array_echoes_owner(self, tbs_graph):
        owner = partition_graph(tbs_graph, 4, "level-greedy")
        span = makespan_model(tbs_graph, owner)
        assert list(span.node) == list(owner)

    def test_dependences_respected_in_times(self, tbs_graph):
        owner = partition_graph(tbs_graph, 4, "level-greedy")
        span = makespan_model(tbs_graph, owner)
        for v in range(len(tbs_graph)):
            for u in tbs_graph.effective_preds(v, relax_reductions=False):
                assert span.start[v] >= span.finish[u]


# --------------------------------------------------------------------- #
# timelines
# --------------------------------------------------------------------- #

class TestTimeline:
    @pytest.fixture(scope="class")
    def cut_span(self, tbs_graph):
        # level-greedy deals antichain levels across nodes, so RAW edges
        # cross nodes and the cut is non-empty — flows must appear.
        owner = partition_graph(tbs_graph, 2, "level-greedy")
        assert tbs_graph.cut_transfers(list(owner))
        return owner, makespan_model(tbs_graph, owner)

    def test_one_track_per_node(self, tbs_graph, cut_span):
        _, span = cut_span
        events = timeline_events(tbs_graph, span)
        tracks = [e for e in events if e["ph"] == "M" and e["name"] == "thread_name"]
        assert len(tracks) == span.p
        assert sorted(t["args"]["name"] for t in tracks) == [
            f"node {q}" for q in range(span.p)
        ]

    def test_one_complete_event_per_op(self, tbs_graph, cut_span):
        _, span = cut_span
        events = timeline_events(tbs_graph, span)
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == len(tbs_graph)
        assert all(e["ts"] >= 0.0 for e in xs)
        assert max(e["ts"] + e["dur"] for e in xs) == span.makespan
        assert {e["tid"] for e in xs} <= set(range(span.p))

    def test_flow_events_cover_the_cut(self, tbs_graph, cut_span):
        _, span = cut_span
        events = timeline_events(tbs_graph, span)
        starts = {e["id"]: e for e in events if e["ph"] == "s"}
        ends = {e["id"]: e for e in events if e["ph"] == "f"}
        assert starts and set(starts) == set(ends)  # s/f always paired
        for fid, s in starts.items():
            f = ends[fid]
            assert s["tid"] != f["tid"]  # flows only cross nodes
            assert f["ts"] >= s["ts"]  # consumer starts after producer ends
            assert f["args"]["elements"] > 0

    def test_no_flows_when_owner_computes(self, tbs_graph):
        owner = partition_graph(tbs_graph, 2, "owner-computes")
        span = makespan_model(tbs_graph, owner)
        events = timeline_events(tbs_graph, span)
        # owner-computes never splits a reduction class: zero transfers,
        # and the timeline shows exactly that.
        if not tbs_graph.cut_transfers(list(owner)):
            assert not [e for e in events if e["ph"] == "s"]

    def test_rejects_span_without_per_op_arrays(self, tbs_graph, cut_span):
        _, span = cut_span
        stripped = dataclasses.replace(span, start=(), finish=(), node=())
        with pytest.raises(ValueError, match="per-op times"):
            timeline_events(tbs_graph, stripped)

    def test_export_writes_valid_json(self, tbs_graph, cut_span, tmp_path):
        _, span = cut_span
        path = tmp_path / "t.json"
        doc = export_timeline(tbs_graph, span, str(path), label="unit")
        on_disk = json.loads(path.read_text())
        assert on_disk == json.loads(json.dumps(doc))
        assert on_disk["meta"]["label"] == "unit"
        assert on_disk["meta"]["makespan"] == span.makespan
        assert on_disk["provenance"]["schema_version"] == SCHEMA_VERSION
        assert isinstance(on_disk["traceEvents"], list)


# --------------------------------------------------------------------- #
# the CLI surface: --report / --timeline / `repro report`
# --------------------------------------------------------------------- #

class TestCliObservability:
    def test_parallel_report_and_timeline(self, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        timeline_path = tmp_path / "t.json"
        assert main([
            "parallel", "--kernel", "tbs", "--n", str(N), "--m", str(M),
            "--s", str(S), "--p", "2", "--refine", "anneal",
            "--report", str(report_path), "--timeline", str(timeline_path),
        ]) == 0
        out = capsys.readouterr().out
        assert f"report written to {report_path}" in out

        report = load_report(str(report_path))
        assert report["command"] == "parallel"
        assert report["params"]["refine"] == "anneal"
        assert report["provenance"]["schema_version"] == SCHEMA_VERSION
        assert report["counters"]["executor.runs"] >= 1
        assert report["counters"]["refine.runs"] >= 1
        assert any(k.startswith("replay.") for k in report["counters"])
        assert "executor.replay" in report["timers"]
        assert "parallel.refine.anneal" in report["timers"]
        anneal_attachments = [
            a for k, a in report["attachments"].items()
            if k.startswith("convergence.refine.anneal")
        ]
        assert anneal_attachments
        assert all(len(a["best"]) > 0 for a in anneal_attachments)

        timeline = json.loads(timeline_path.read_text())
        assert timeline["provenance"]["schema_version"] == SCHEMA_VERSION
        assert any(e["ph"] == "X" for e in timeline["traceEvents"])

    def test_search_report(self, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        assert main([
            "search", "--kernel", "tbs", "--n", str(N), "--m", str(M),
            "--s", str(S), "--strategy", "anneal", "--iters", "60",
            "--relax", "--report", str(report_path),
        ]) == 0
        report = load_report(str(report_path))
        assert report["command"] == "search"
        assert report["counters"]["search.anneal.runs"] == 1
        assert report["counters"]["search.order_costs"] > 0
        assert "search.strategy.anneal" in report["timers"]
        assert "convergence.search.anneal" in report["attachments"]
        capsys.readouterr()

    def test_report_subcommand_renders(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        probe = RecordingProbe()
        probe.count("demo.events")
        save_report(build_report(probe, command="unit"), str(path))
        capsys.readouterr()
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "run report: unit" in out
        assert "demo.events" in out

    def test_report_subcommand_rejects_non_reports(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            main(["report", str(path)])


# --------------------------------------------------------------------- #
# invariance: observability never changes a result
# --------------------------------------------------------------------- #

class TestInvariance:
    def test_anneal_search_bit_identical_under_probe(self, tbs_graph):
        baseline = anneal_search(tbs_graph, S, iters=120, seed=7,
                                 relax_reductions=True)
        with probe_scope():
            probed = anneal_search(tbs_graph, S, iters=120, seed=7,
                                   relax_reductions=True)
        assert probed.order == baseline.order
        assert probed.cost == baseline.cost
        assert baseline.convergence is None
        assert len(probed.convergence) == probed.params["iters"]

    @pytest.mark.parametrize("strategy", ["greedy", "anneal"])
    def test_refine_partition_bit_identical_under_probe(self, tbs_graph, strategy):
        seed = partition_graph(tbs_graph, 4, "level-greedy")
        kwargs = dict(strategy=strategy, iters=150, seed=5)
        baseline = refine_partition(tbs_graph, seed, 4, S, **kwargs)
        with probe_scope() as probe:
            probed = refine_partition(tbs_graph, seed, 4, S, **kwargs)
        assert probed.owner == baseline.owner
        assert probed.cost == baseline.cost
        assert not baseline.convergence
        assert strategy in probed.convergence
        assert probe.counters["refine.runs"] == 1
        assert f"convergence.refine.{strategy}" in probe.attachments

    @pytest.mark.parametrize("replay", [lru_replay_trace, belady_replay_trace])
    def test_replay_counts_bit_identical_under_probe(self, tbs_case, replay):
        baseline = replay(tbs_case.trace, S)
        with probe_scope() as probe:
            probed = replay(tbs_case.trace, S)
        assert probed == baseline  # the whole ReplayResult dataclass
        policy = "lru" if replay is lru_replay_trace else "belady"
        assert probe.counters[f"replay.{policy}.replays"] == 1
        assert probe.counters[f"replay.{policy}.misses"] == baseline.loads
        assert (
            probe.counters[f"replay.{policy}.hits"]
            == baseline.n_accesses - baseline.loads
        )
        assert probe.counters[f"replay.{policy}.stores"] == baseline.stores
