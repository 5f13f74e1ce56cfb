"""Repo-invariant lints, atomic writes, and store-side certification.

The lint half of ``repro.check`` enforces repository conventions the
runtime half can't see: every durable write goes through the atomic
helpers, every literal probe counter is documented, every RNG is seeded,
and wall-clock timing stays inside the observability layer.  The suite
closes with the self-test the rules exist for: the shipped ``src`` tree
lints clean.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.check import lint_paths, lint_source
from repro.check.lint import counter_documented, find_taxonomy, parse_taxonomy
from repro.graph.compare import record_case
from repro.obs import probe_scope
from repro.obs.report import build_report, save_report
from repro.sched.schedule import EvictStep, Schedule
from repro.serve.store import ScheduleKey, ScheduleStore
from repro.trace.io import save_schedule
from repro.utils.atomic import atomic_write_json, atomic_write_text

REPO = pathlib.Path(__file__).resolve().parent.parent


def _codes(source, filename="pkg/mod.py"):
    return [f.code for f in lint_source(source, filename)]


# --------------------------------------------------------------------- #
# RPL101: raw durable writes
# --------------------------------------------------------------------- #
class TestRawWriteLint:
    def test_open_for_write_flagged(self):
        assert _codes('open(p, "w").write(x)\n') == ["RPL101"]
        assert _codes('open(p, mode="ab")\n') == ["RPL101"]

    def test_read_open_ok(self):
        assert _codes('open(p).read()\n') == []
        assert _codes('open(p, "rb").read()\n') == []

    def test_savez_flagged(self):
        assert _codes("np.savez(p, a=a)\n") == ["RPL101"]
        assert _codes("numpy.savez_compressed(p, a=a)\n") == ["RPL101"]

    def test_io_layer_not_exempt(self):
        """The containers go through ``atomic_write_bytes`` like every
        other artifact, so no file is exempt by name."""
        assert _codes('open(p, "wb")\n', "src/repro/trace/io.py") == ["RPL101"]

    def test_atomic_function_exempt(self):
        src = (
            "def put(path, text):\n"
            '    with open(path + ".tmp", "w") as fh:\n'
            "        fh.write(text)\n"
            '    os.replace(path + ".tmp", path)\n'
        )
        assert _codes(src) == []

    def test_dynamic_mode_not_flagged(self):
        assert _codes("open(p, mode)\n") == []


# --------------------------------------------------------------------- #
# RPL102: probe counter taxonomy
# --------------------------------------------------------------------- #
TAXONOMY = (
    "counters `check.certify.{runs,steps,findings}` and\n"
    "`replay.<policy>.hits` plus `serve.requests` here.\n"
)


class TestCounterLint:
    def test_parse_taxonomy_expands_braces_and_wildcards(self):
        patterns = parse_taxonomy(TAXONOMY)
        assert counter_documented("check.certify.runs", patterns)
        assert counter_documented("check.certify.findings", patterns)
        assert counter_documented("replay.belady.hits", patterns)
        assert counter_documented("serve.requests", patterns)
        assert not counter_documented("check.certify.bogus", patterns)
        assert not counter_documented("replay.belady.misses", patterns)

    def test_undocumented_literal_flagged(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "OBSERVABILITY.md").write_text(TAXONOMY)
        mod = tmp_path / "pkg.py"
        mod.write_text(
            'probe.count("serve.requests")\nprobe.count("made.up.name", 2)\n'
        )
        findings = lint_paths([str(mod)])
        assert [f.code for f in findings] == ["RPL102"]
        assert "made.up.name" in findings[0].message
        assert findings[0].line == 2

    def test_dynamic_names_skipped(self):
        assert _codes("probe.count(name)\nprobe.count(f\"x.{y}\")\n") == []

    def test_repo_taxonomy_is_discoverable(self):
        path = find_taxonomy(str(REPO / "src" / "repro" / "obs" / "probe.py"))
        assert path is not None and path.name == "OBSERVABILITY.md"


# --------------------------------------------------------------------- #
# RPL103 / RPL104: unseeded RNG, stray perf_counter
# --------------------------------------------------------------------- #
class TestRngAndClockLint:
    def test_unseeded_rng_flagged(self):
        assert _codes("np.random.default_rng()\n") == ["RPL103"]
        assert _codes("import random\nrandom.Random()\n") == ["RPL103"]
        assert _codes("np.random.shuffle(xs)\n") == ["RPL103"]

    def test_seeded_rng_ok(self):
        assert _codes("np.random.default_rng(0)\n") == []
        assert _codes("np.random.default_rng(seed)\n") == []

    def test_rng_module_exempt(self):
        assert _codes(
            "np.random.default_rng()\n", "src/repro/utils/rng.py"
        ) == []

    def test_perf_counter_flagged_outside_obs(self):
        assert _codes("import time\nt = time.perf_counter()\n") == ["RPL104"]
        assert _codes(
            "from time import perf_counter\nperf_counter()\n"
        ) == ["RPL104"]

    def test_perf_counter_ok_in_obs_and_benchmarks(self):
        src = "import time\nt = time.perf_counter()\n"
        assert _codes(src, "src/repro/obs/probe.py") == []
        assert _codes(src, "benchmarks/common.py") == []

    def test_syntax_error_is_a_finding(self):
        assert _codes("def broken(:\n") == ["RPL100"]


# --------------------------------------------------------------------- #
# the point of the rules: the shipped tree lints clean
# --------------------------------------------------------------------- #
class TestRepoIsClean:
    def test_src_lints_clean(self):
        assert lint_paths([str(REPO / "src")]) == []

    def test_benchmarks_lint_clean(self):
        assert lint_paths([str(REPO / "benchmarks")]) == []


# --------------------------------------------------------------------- #
# atomic writes (satellite): a killed write never clobbers the artifact
# --------------------------------------------------------------------- #
class TestAtomicWrites:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_json(str(path), {"a": 1})
        assert json.loads(path.read_text()) == {"a": 1}

    def test_killed_replace_leaves_destination_intact(self, tmp_path, monkeypatch):
        path = tmp_path / "out.json"
        path.write_text('{"old": true}')

        def die(src, dst):
            raise OSError("killed mid-flight")

        monkeypatch.setattr(os, "replace", die)
        with pytest.raises(OSError, match="mid-flight"):
            atomic_write_text(str(path), '{"new": true}')
        # destination untouched, no temp siblings leak
        assert json.loads(path.read_text()) == {"old": True}
        assert list(tmp_path.iterdir()) == [path]

    def test_serializer_failure_never_touches_disk(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("intact")
        with pytest.raises(TypeError):
            atomic_write_json(str(path), {"bad": object()})
        assert path.read_text() == "intact"
        assert list(tmp_path.iterdir()) == [path]

    def test_save_report_goes_through_atomic_path(self, tmp_path, monkeypatch):
        with probe_scope() as probe:
            probe.count("demo.events")
        report = build_report(probe, command="t", params={})
        path = tmp_path / "r.json"
        monkeypatch.setattr(
            os, "replace", lambda s, d: (_ for _ in ()).throw(OSError("boom"))
        )
        with pytest.raises(OSError):
            save_report(report, str(path))
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------------- #
# store-side certification (satellite): corrupt-but-parseable is a miss
# --------------------------------------------------------------------- #
class TestStoreVerify:
    @pytest.fixture()
    def seeded_store(self, tmp_path):
        case = record_case("tbs", 16, 4, 15)
        store = ScheduleStore(str(tmp_path / "store"))
        key = ScheduleKey("tbs", 16, 4, 15)
        store.put(key, case.schedule)
        return store, key, case

    def test_valid_object_passes_verification(self, seeded_store):
        store, key, case = seeded_store
        got = store.get(key, verify=True)
        assert got is not None and len(got) == len(case.schedule)

    def test_tampered_object_counts_invalid_and_misses(self, seeded_store):
        store, key, case = seeded_store
        # parseable but wrong: drop one evict, so certification fails
        # (redundant reload / residual residency) while load_schedule works
        i = next(
            i for i, s in enumerate(case.schedule.steps)
            if isinstance(s, EvictStep)
        )
        bad = Schedule(
            steps=[s for j, s in enumerate(case.schedule.steps) if j != i],
            shapes=case.schedule.shapes,
        )
        save_schedule(bad, store.object_path(key), key.as_dict())
        assert store.get(key) is not None  # unverified read still serves it
        with probe_scope() as probe:
            assert store.get(key, verify=True) is None
        assert probe.counters["serve.store.invalid"] == 1
        assert probe.timers["serve.store.verify"]["calls"] == 1

    def test_service_falls_through_to_search(self, seeded_store):
        import asyncio

        from repro.serve.frontend import ScheduleService

        store, key, case = seeded_store
        i = next(
            i for i, s in enumerate(case.schedule.steps)
            if isinstance(s, EvictStep)
        )
        bad = Schedule(
            steps=[s for j, s in enumerate(case.schedule.steps) if j != i],
            shapes=case.schedule.shapes,
        )
        save_schedule(bad, store.object_path(key), key.as_dict())
        service = ScheduleService(
            store, searcher=lambda k: case.schedule, verify_store=True
        )
        got = asyncio.run(service.get_schedule(key))
        assert len(got) == len(case.schedule)
        assert service.misses == 1 and service.searches == 1
        # the repaired entry now verifies
        assert store.get(key, verify=True) is not None
