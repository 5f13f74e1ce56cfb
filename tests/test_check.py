"""The static analyzers (repro.check): certifier, races, conservation, CLI.

The load-bearing property: the *static* certifier's verdict agrees with
the step-by-step walker kept as the oracle (``tests/legality_oracle.py``)
on every schedule — clean schedules (recorded, rescheduled, searched)
certify clean with the walker's counters, and on every seeded mutation
``validate_schedule`` (the certifier's first error) raises exactly the
walker's ``(code, op_index)``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from container_columns import write_columns
from legality_oracle import walk_schedule

from repro.check import (
    Certificate,
    Finding,
    certify_schedule,
    check_conservation,
    check_races,
    check_summary,
    has_errors,
)
from repro.check.conservation import derived_transfer_totals
from repro.errors import ScheduleError
from repro.graph.compare import record_case
from repro.graph.dependency import DependencyGraph
from repro.graph.rewriter import reschedule, rewrite_schedule
from repro.graph.search import anneal_search
from repro.machine.regions import Region
from repro.obs import probe_scope
from repro.parallel.executor import execute_graph, partition_graph
from repro.sched.schedule import EvictStep, LoadStep, Schedule
from repro.sched.validate import validate_schedule

KERNELS = ("tbs", "ocs", "syr2k", "chol")
N, M, S = 20, 4, 15


@pytest.fixture(scope="module")
def cases():
    return {k: record_case(k, N, M, S) for k in KERNELS}


def _region(matrix, idx):
    return Region(matrix, np.asarray(idx, dtype=np.int64))


def _tiny(steps, shapes=None):
    return Schedule(steps=list(steps), shapes=shapes or {"A": (2, 2)})


# --------------------------------------------------------------------- #
# certifier vs validator: agreement on clean schedules
# --------------------------------------------------------------------- #
class TestCleanAgreement:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_recorded_schedules_certify_clean(self, cases, kernel):
        case = cases[kernel]
        cert = certify_schedule(case.schedule, case.capacity)
        ref = walk_schedule(case.schedule, case.capacity)
        assert cert.ok and not cert.findings
        for key in ("loads", "stores", "peak_occupancy"):
            assert cert.stats[key] == ref[key]
        assert validate_schedule(case.schedule, case.capacity) == ref

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_rescheduled_schedules_certify_clean(self, cases, kernel):
        case = cases[kernel]
        result = reschedule(case.trace, case.capacity, "locality")
        cert = certify_schedule(result.schedule, case.capacity)
        assert cert.ok
        assert cert.stats["loads"] == result.summary["loads"]
        assert cert.stats["peak_occupancy"] == result.summary["peak_occupancy"]
        assert result.summary == walk_schedule(result.schedule, case.capacity)

    def test_searched_schedule_certifies_clean(self, cases):
        case = cases["tbs"]
        graph = DependencyGraph.from_trace(case.trace)
        found = anneal_search(
            graph, case.capacity, iters=60, seed=0, relax_reductions=True
        )
        result = rewrite_schedule(
            case.trace, case.capacity, found.order,
            graph=graph, relax_reductions=True,
        )
        cert = certify_schedule(result.schedule, case.capacity)
        assert cert.ok
        assert cert.stats["loads"] == result.summary["loads"]


# --------------------------------------------------------------------- #
# the seeded mutation suite: validate_schedule raises exactly the oracle
# walker's (code, op_index), and the certificate carries that finding
# --------------------------------------------------------------------- #
def _first_error(validate, schedule, capacity) -> Finding:
    with pytest.raises(ScheduleError) as err:
        validate(schedule, capacity)
    finding = err.value.finding
    assert finding is not None, "validator error lost its Finding"
    return finding


def _validator_verdict(schedule, capacity) -> Finding:
    """The oracle's first error; ``validate_schedule`` must raise the same."""
    expected = _first_error(walk_schedule, schedule, capacity)
    got = _first_error(validate_schedule, schedule, capacity)
    assert (got.code, got.op_index) == (expected.code, expected.op_index)
    assert str(expected.op_index) in str(got)
    return expected


def _mutations(steps):
    """Drop, duplicate and swap-adjacent mutations at spread positions."""
    n = len(steps)
    for i in sorted({n * k // 7 for k in range(7)}):
        yield "drop", steps[:i] + steps[i + 1 :]
        yield "duplicate", steps[: i + 1] + steps[i:]
        if i + 1 < n:
            yield "swap", steps[:i] + [steps[i + 1], steps[i]] + steps[i + 2 :]


class TestMutations:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_spread_mutations_match_oracle(self, cases, kernel):
        """Both verdicts agree on every mutation: same first error or same
        summary (a duplicated compute or a harmless swap stays legal)."""
        case = cases[kernel]
        for kind, steps in _mutations(list(case.schedule.steps)):
            mutated = Schedule(steps=steps, shapes=case.schedule.shapes)
            try:
                expected = walk_schedule(mutated, case.capacity)
            except ScheduleError:
                _validator_verdict(mutated, case.capacity)
                assert not certify_schedule(mutated, case.capacity).ok, kind
            else:
                assert validate_schedule(mutated, case.capacity) == expected, kind

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_dropped_load(self, cases, kernel):
        case = cases[kernel]
        i = next(
            i for i, s in enumerate(case.schedule.steps) if isinstance(s, LoadStep)
        )
        mutated = Schedule(
            steps=[s for j, s in enumerate(case.schedule.steps) if j != i],
            shapes=case.schedule.shapes,
        )
        expected = _validator_verdict(mutated, case.capacity)
        cert = certify_schedule(mutated, case.capacity)
        assert not cert.ok
        assert (expected.code, expected.op_index) in {
            (f.code, f.op_index) for f in cert.findings
        }

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_inflated_residency(self, cases, kernel):
        """Certifying below the recorded peak is the capacity proof failing."""
        case = cases[kernel]
        peak = walk_schedule(case.schedule, case.capacity)["peak_occupancy"]
        expected = _validator_verdict(case.schedule, peak - 1)
        cert = certify_schedule(case.schedule, peak - 1)
        assert not cert.ok
        assert expected.code == "RPS104"
        assert (expected.code, expected.op_index) in {
            (f.code, f.op_index) for f in cert.findings
        }

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_dropped_evict(self, cases, kernel):
        case = cases[kernel]
        i = next(
            i for i, s in enumerate(case.schedule.steps) if isinstance(s, EvictStep)
        )
        mutated = Schedule(
            steps=[s for j, s in enumerate(case.schedule.steps) if j != i],
            shapes=case.schedule.shapes,
        )
        expected = _validator_verdict(mutated, case.capacity)
        cert = certify_schedule(mutated, case.capacity)
        assert not cert.ok
        assert (expected.code, expected.op_index) in {
            (f.code, f.op_index) for f in cert.findings
        }

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_raw_violating_reorder(self, cases, kernel):
        """Swapping an op before its predecessor is an order violation."""
        graph = DependencyGraph.from_trace(cases[kernel].trace)
        u, v, kinds = graph.edges()[0]
        order = list(range(len(graph)))
        order[u], order[v] = order[v], order[u]
        assert not graph.is_valid_order(order)
        findings = check_races(graph, [0] * len(graph), order=order)
        flagged = [f for f in findings if f.code == "RPR101"]
        assert flagged
        assert any(
            f.op_index == v and f.context["pred"] == u for f in flagged
        )
        # the untouched order is race-free on one shard
        assert not check_races(graph, [0] * len(graph))

    @pytest.mark.parametrize("kernel", ("tbs", "ocs", "syr2k"))
    def test_split_reduction_across_shards(self, cases, kernel):
        graph = DependencyGraph.from_trace(cases[kernel].trace)
        classes = graph.reduction_classes()
        assert classes, "kernel has no commuting reduction classes"
        members = max(classes, key=len)
        owner = [0] * len(graph)
        owner[members[0]] = 1
        relaxed = check_races(graph, owner, relax_reductions=True)
        assert any(f.code == "RPR105" for f in relaxed)
        # unrelaxed, the reduction edges are transfers: ordered, no race
        strict = check_races(graph, owner, relax_reductions=False)
        assert not any(f.code == "RPR105" for f in strict)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_asymmetric_transfer(self, cases, kernel):
        graph = DependencyGraph.from_trace(cases[kernel].trace)
        owner = partition_graph(graph, 4, "level-greedy")
        t_in, t_out = derived_transfer_totals(graph, owner)
        assert not check_conservation(
            graph, owner, transfer_in=t_in, transfer_out=t_out
        )
        t_in = list(t_in)
        t_in[0] += 5  # receive 5 elements nobody sent
        findings = check_conservation(
            graph, owner, transfer_in=t_in, transfer_out=t_out
        )
        assert {f.code for f in findings} == {"RPC101"}


# --------------------------------------------------------------------- #
# certifier stream rules on hand-built schedules
# --------------------------------------------------------------------- #
class TestStreamRules:
    def test_use_before_load(self):
        cert = certify_schedule(
            _tiny([EvictStep(_region("A", [0]), writeback=False)]), 4
        )
        assert [f.code for f in cert.findings] == ["RPS103"]
        assert cert.findings[0].op_index == 0

    def test_double_load(self):
        steps = [
            LoadStep(_region("A", [0, 1])),
            LoadStep(_region("A", [1])),
            EvictStep(_region("A", [0, 1]), writeback=False),
        ]
        cert = certify_schedule(_tiny(steps), 4)
        codes = [f.code for f in cert.findings]
        assert "RPS102" in codes and not cert.ok

    def test_dead_evict_is_a_warning(self):
        steps = [
            LoadStep(_region("A", [0])),
            EvictStep(_region("A", [0]), writeback=False),
        ]
        cert = certify_schedule(_tiny(steps), 4)
        assert [f.code for f in cert.findings] == ["RPS201"]
        assert cert.ok  # warnings do not fail certification

    def test_store_of_clean_is_a_warning(self):
        steps = [
            LoadStep(_region("A", [0])),
            EvictStep(_region("A", [0]), writeback=True),
        ]
        cert = certify_schedule(_tiny(steps), 4)
        assert {"RPS201", "RPS202"} == {f.code for f in cert.findings}
        assert cert.stats["stores"] == 1

    def test_capacity_and_residual(self):
        steps = [LoadStep(_region("A", [0, 1, 2]))]
        cert = certify_schedule(_tiny(steps), 2)
        assert {"RPS104", "RPS105"} == {f.code for f in cert.findings}
        fits = certify_schedule(_tiny(steps), 3)
        assert [f.code for f in fits.findings] == ["RPS105"]
        assert fits.stats["peak_occupancy"] == 3

    def test_unknown_matrix(self):
        cert = certify_schedule(_tiny([LoadStep(_region("Z", [0]))]), 4)
        assert [f.code for f in cert.findings] == ["RPS106"]

    def test_empty_schedule(self):
        cert = certify_schedule(_tiny([]), 4)
        assert cert.ok and cert.stats["loads"] == 0


class TestElementsOutsideTheirMatrix:
    """A flat outside ``rows * cols`` is RPS108 at the first step naming
    one, and is kept out of the event table, where ``flat + matrix *
    stride`` would read it as another matrix's element (or crash)."""

    SHAPES = {"A": (3, 3), "C": (3, 3)}

    @pytest.mark.parametrize("flat", [9, 10, 25, -1])
    def test_load_and_evict_outside(self, flat):
        sched = _tiny(
            [LoadStep(_region("A", [flat])), EvictStep(_region("A", [flat]), writeback=False)],
            self.SHAPES,
        )
        cert = certify_schedule(sched, 4)
        assert [(f.code, f.op_index) for f in cert.findings] == [("RPS108", 0)]
        assert not cert.ok and cert.findings[0].context["example"] == ["A", flat]
        for check in (validate_schedule, walk_schedule):
            with pytest.raises(ScheduleError) as err:
                check(sched, 4)
            assert (err.value.finding.code, err.value.finding.op_index) == ("RPS108", 0)

    def test_outside_element_does_not_alias_another_matrix(self):
        """A[12] used to be read as C[2], so C[2]'s load looked evicted."""
        sched = _tiny(
            [
                LoadStep(_region("A", [0])),
                EvictStep(_region("A", [0]), writeback=False),
                LoadStep(_region("C", [2])),
                EvictStep(_region("A", [12]), writeback=False),
            ],
            self.SHAPES,
        )
        cert = certify_schedule(sched, 4)
        errors = [(f.code, f.op_index) for f in cert.findings if f.severity == "error"]
        assert errors == [("RPS105", 3), ("RPS108", 3)]  # C[2] is never evicted
        # The end-state error ranks after every step error, also one at the
        # last step: RPS108 is the first error of both engines.
        for check in (validate_schedule, walk_schedule):
            with pytest.raises(ScheduleError) as err:
                check(sched, 4)
            assert (err.value.finding.code, err.value.finding.op_index) == ("RPS108", 3)


class TestTwoErrorsAtOneStep:
    """When one step holds two errors, both engines name the lowest code,
    and the end-state error ranks after every step error."""

    SHAPES = {"A": (3, 3), "C": (3, 3)}

    @staticmethod
    def _both_raise(sched, capacity):
        verdicts = set()
        for check in (validate_schedule, walk_schedule):
            with pytest.raises(ScheduleError) as err:
                check(sched, capacity)
            verdicts.add((err.value.finding.code, err.value.finding.op_index))
        [verdict] = verdicts
        return verdict

    def test_end_state_ranks_after_an_error_at_the_last_step(self):
        sched = _tiny(
            [
                LoadStep(_region("A", [0])),
                EvictStep(_region("A", [0]), writeback=False),
                LoadStep(_region("C", [2])),
                EvictStep(_region("A", [12]), writeback=False),
            ],
            self.SHAPES,
        )
        assert self._both_raise(sched, 4) == ("RPS108", 3)

    def test_lowest_code_at_one_step(self):
        # The second load names a resident element and one outside A.
        sched = _tiny(
            [LoadStep(_region("A", [0])), LoadStep(_region("A", [0, 12]))],
            self.SHAPES,
        )
        errors = [(f.code, f.op_index) for f in certify_schedule(sched, 4).findings
                  if f.severity == "error"]
        assert ("RPS102", 1) in errors and ("RPS108", 1) in errors
        assert self._both_raise(sched, 4) == ("RPS102", 1)


# --------------------------------------------------------------------- #
# race detector specifics
# --------------------------------------------------------------------- #
class TestRaces:
    def test_partitioned_kernels_are_race_free(self, cases):
        for kernel in KERNELS:
            graph = DependencyGraph.from_trace(cases[kernel].trace)
            for part in ("level-greedy", "locality", "owner-computes"):
                owner = partition_graph(graph, 4, part)
                assert not has_errors(check_races(graph, owner)), (kernel, part)

    def test_dropped_transfer_is_a_raw_race(self, cases):
        graph = DependencyGraph.from_trace(cases["chol"].trace)
        owner = partition_graph(graph, 2, "level-greedy")
        cut_raw = [
            (u, v)
            for u, v, kinds in graph.cut_edges(owner, kinds=frozenset({"raw"}))
        ]
        assert cut_raw, "partition cuts no RAW edges"
        # shipping every transfer: clean; shipping none: every cut RAW races
        full = cut_raw + [
            (u, v)
            for u, v, k in graph.cut_edges(owner, kinds=frozenset({"reduction"}))
        ]
        assert not has_errors(check_races(graph, owner, transfers=full))
        findings = check_races(graph, owner, transfers=[])
        raw_races = {(f.context["pred"], f.op_index)
                     for f in findings if f.code == "RPR102"}
        assert raw_races  # at least the directly-unprotected edges surface

    def test_owner_length_mismatch(self, cases):
        graph = DependencyGraph.from_trace(cases["tbs"].trace)
        with pytest.raises(ValueError, match="owner has"):
            check_races(graph, [0])


# --------------------------------------------------------------------- #
# conservation checks against real executor summaries
# --------------------------------------------------------------------- #
class TestConservation:
    def test_executor_summary_audits_clean(self, cases):
        case = cases["tbs"]
        for part in ("level-greedy", "owner-computes"):
            summary = execute_graph(case.schedule, 4, S, partitioner=part)
            graph = DependencyGraph.from_trace(case.trace)
            assert not check_summary(graph, summary), part

    def test_multi_writer_violation(self, cases):
        graph = DependencyGraph.from_trace(cases["tbs"].trace)
        owner = list(partition_graph(graph, 4, "owner-computes"))
        writer = next(i for i, n in enumerate(graph.nodes) if n.write_keys)
        owner[writer] = (owner[writer] + 1) % 4
        findings = check_conservation(graph, owner, exclusive_writer=True)
        assert any(f.code == "RPC103" for f in findings)

    def test_receive_floor(self, cases):
        graph = DependencyGraph.from_trace(cases["tbs"].trace)
        owner = partition_graph(graph, 2, "level-greedy")
        findings = check_conservation(graph, owner, recv=[0, 10**9])
        assert any(
            f.code == "RPC102" and f.context["shard"] == 0 for f in findings
        )


# --------------------------------------------------------------------- #
# validator diagnostics (satellite: Finding-carrying ScheduleError)
# --------------------------------------------------------------------- #
class TestValidatorFindings:
    def test_finding_carries_op_index_and_code(self):
        steps = [
            LoadStep(_region("A", [0])),
            LoadStep(_region("A", [0])),
        ]
        with pytest.raises(ScheduleError) as err:
            validate_schedule(_tiny(steps), 4)
        finding = err.value.finding
        assert finding.code == "RPS102"
        assert finding.op_index == 1
        assert str(finding.op_index) in str(err.value)

    def test_plain_schedule_errors_have_no_finding(self):
        assert ScheduleError("boom").finding is None

    def test_unknown_step_type_rejected(self):
        region = _region("A", [1])
        bogus = _tiny([LoadStep(region), "bogus", EvictStep(region, writeback=False)])
        for check in (certify_schedule, validate_schedule, walk_schedule):
            with pytest.raises(ScheduleError, match="step 1: unknown step type str"):
                check(bogus, 4)

    def test_first_error_in_op_then_code_order(self):
        """Several errors at one step: the lowest code is raised."""
        steps = [
            LoadStep(_region("A", [0, 1])),
            LoadStep(_region("A", [1, 2, 3])),  # redundant *and* over capacity
        ]
        expected = _validator_verdict(_tiny(steps), 3)
        assert (expected.code, expected.op_index) == ("RPS102", 1)
        codes = [(f.code, f.op_index) for f in certify_schedule(_tiny(steps), 3).findings]
        assert ("RPS104", 1) in codes


# --------------------------------------------------------------------- #
# observability + CLI
# --------------------------------------------------------------------- #
def write_v1_container(path) -> None:
    """A schedule container in the retired version-1 format."""
    write_columns(
        path,
        {"kind": "schedule", "version": 1, "shapes": {"A": [N, M]}, "steps": []},
        {"index_data": np.arange(2, dtype=np.int64)},
    )


class TestCheckSurface:
    def test_probe_counters(self, cases):
        case = cases["tbs"]
        graph = DependencyGraph.from_trace(case.trace)
        with probe_scope() as probe:
            certify_schedule(case.schedule, case.capacity)
            check_races(graph, [0] * len(graph))
        assert probe.counters["check.certify.runs"] == 1
        assert probe.counters["check.certify.steps"] == len(case.schedule.steps)
        assert probe.counters["check.races.runs"] == 1
        assert probe.timers["check.certify"]["calls"] == 1

    def test_certificate_is_reusable(self, cases):
        cert = certify_schedule(cases["tbs"].schedule, S)
        assert isinstance(cert, Certificate)
        assert cert.stats["n_steps"] == len(cases["tbs"].schedule.steps)

    def test_cli_kernel_mode(self, capsys):
        from repro.__main__ import main

        rc = main(["check", "--kernel", "tbs", "--n", "16", "--m", "4",
                   "--s", "15", "--p", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "OK: 0 finding(s)" in out

    def test_cli_unknown_kernel_is_a_usage_error(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["check", "--kernel", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_cli_artifact_mode(self, tmp_path, cases, capsys):
        from repro.__main__ import main
        from repro.trace.io import save_schedule

        path = str(tmp_path / "sched.npz")
        save_schedule(cases["tbs"].schedule, path)
        assert main(["check", path, "--capacity", str(S)]) == 0
        assert main(["check", path, "--capacity", str(S - 1),
                     "--format", "json"]) == 1
        out = capsys.readouterr().out
        assert '"RPS104"' in out

    @pytest.mark.parametrize("kind, reason, says", [
        ("missing", "missing", "is missing"),
        ("not-a-container", "unreadable", "is unreadable"),
        ("stale", "stale", "older container format"),
        ("trace", "unreadable", "found 'trace'"),
    ], ids=["missing", "not-a-container", "stale", "trace"])
    def test_cli_artifact_that_cannot_be_read_is_rps107(
        self, tmp_path, cases, capsys, kind, reason, says
    ):
        """A bad artifact is one RPS107 finding naming its reason (exit 1),
        with or without --capacity, and never a traceback."""
        import json

        from repro.__main__ import main
        from repro.trace.io import save_trace

        path = str(tmp_path / "artifact.npz")
        if kind == "not-a-container":
            with open(path, "wb") as fh:
                fh.write(b"not a container")
        elif kind == "stale":
            write_v1_container(path)
        elif kind == "trace":
            save_trace(cases["tbs"].trace, path)
        for capacity in (("--capacity", str(S)), ()):
            assert main(["check", path, *capacity, "--format", "json"]) == 1
            doc = json.loads(capsys.readouterr().out)
            assert doc["mode"] == "artifact" and not doc["ok"]
            [finding] = doc["findings"]
            assert (finding["code"], finding["context"]["reason"]) == ("RPS107", reason)
            assert says in finding["message"]

    def test_cli_store_mode(self, tmp_path, cases, capsys):
        from repro.__main__ import main
        from repro.serve.store import ScheduleKey, ScheduleStore

        store = ScheduleStore(str(tmp_path / "store"))
        key = ScheduleKey("tbs", N, M, S)
        store.put(key, cases["tbs"].schedule)
        assert main(["check", "--store", store.root, "--all"]) == 0
        assert main(["check", "--store", store.root,
                     "--digest", key.digest()]) == 0
        capsys.readouterr()

    def test_cli_store_mode_refuses_a_root_that_is_not_a_store(self, tmp_path, capsys):
        """A mistyped root fails as a usage error and creates nothing."""
        from repro.__main__ import main

        root = tmp_path / "no-such-store"
        assert main(["check", "--store", str(root), "--all"]) == 2
        assert "not a schedule store" in capsys.readouterr().out
        assert not root.exists()

    def test_cli_store_check_leaves_the_manifest_alone(self, tmp_path, cases, capsys):
        from repro.__main__ import main
        from repro.serve.store import ScheduleKey, ScheduleStore

        store = ScheduleStore(str(tmp_path / "store"))
        for kernel in ("tbs", "chol"):
            store.put(ScheduleKey(kernel, N, M, S), cases[kernel].schedule)
        manifest = tmp_path / "store" / "manifest.json"
        before = (manifest.read_bytes(), manifest.stat().st_mtime_ns)
        for _ in range(2):
            assert main(["check", "--store", store.root, "--all"]) == 0
        assert (manifest.read_bytes(), manifest.stat().st_mtime_ns) == before
        capsys.readouterr()

    @staticmethod
    def _check_store_json(capsys, *argv):
        import json

        from repro.__main__ import main

        code = main(["check", "--store", *argv, "--format", "json"])
        return code, json.loads(capsys.readouterr().out)

    def test_cli_store_names_missing_stale_and_unreadable(self, tmp_path, cases, capsys):
        """Each object that cannot be certified says why, in its own words."""
        from repro.serve.store import ScheduleKey, ScheduleStore

        store = ScheduleStore(str(tmp_path / "store"))
        stale, broken = ScheduleKey("tbs", N, M, S), ScheduleKey("chol", N, M, S)
        for key in (stale, broken):
            store.put(key, cases[key.kernel].schedule)
        write_v1_container(store.object_path(stale))
        with open(store.object_path(broken), "wb") as fh:
            fh.write(b"not a container")
        code, doc = self._check_store_json(capsys, store.root, "--all")
        assert code == 1 and doc["stats"]["objects"] == 0
        reasons = {f["context"]["digest"]: f["context"]["reason"] for f in doc["findings"]}
        assert reasons == {stale.digest(): "stale", broken.digest(): "unreadable"}
        messages = {f["context"]["reason"]: f["message"] for f in doc["findings"]}
        assert "older container format" in messages["stale"]
        assert "unreadable" in messages["unreadable"]

        # A mistyped digest is missing whether or not --capacity is given.
        missing = "0" * 64
        for capacity in (("--capacity", str(S)), ()):
            code, doc = self._check_store_json(
                capsys, store.root, "--digest", missing, *capacity
            )
            assert code == 1
            [finding] = doc["findings"]
            assert (finding["code"], finding["context"]["reason"]) == ("RPS107", "missing")
            assert "is missing" in finding["message"]

    def test_cli_store_certifies_an_orphan_given_a_capacity(self, tmp_path, cases, capsys):
        """An object with no manifest entry is read and certified, not
        reported as unreadable."""
        from repro.__main__ import main
        from repro.serve.store import ScheduleKey, ScheduleStore
        from repro.trace.io import save_schedule

        store = ScheduleStore(str(tmp_path / "store"))
        key = ScheduleKey("tbs", N, M, S)
        path = store.object_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        save_schedule(cases["tbs"].schedule, path)  # on disk, never put
        assert key not in store.keys()
        code, doc = self._check_store_json(
            capsys, store.root, "--digest", key.digest(), "--capacity", str(S)
        )
        assert code == 0 and doc["ok"]
        assert doc["stats"]["objects"] == 1 and doc["findings"] == []
        code, doc = self._check_store_json(
            capsys, store.root, "--digest", key.digest(), "--capacity", str(S - 1)
        )
        assert code == 1
        assert [f["code"] for f in doc["findings"]] == ["RPS104"]
        # With no manifest entry, the capacity must come from the caller.
        assert main(["check", "--store", store.root, "--digest", key.digest()]) == 2
        assert "give its --capacity" in capsys.readouterr().out
