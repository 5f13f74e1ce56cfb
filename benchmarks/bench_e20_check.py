"""E20 — static certification throughput vs the validated replay.

Records the E13 configuration (TBS SYRK, ``m = 6``, ``S = 8N``) per N and
puts the same schedule through two pipelines:

* the **validated replay** — what a rewrite/search pipeline pays to get a
  schedule's cache counters and legality: compile the trace IR
  (:func:`repro.trace.compiled.compile_trace`), count the op order's LRU
  loads (:func:`repro.trace.replay.lru_replay_trace`) and validate the
  explicit stream (:func:`repro.sched.validate.validate_schedule`, the
  certifier raising its first error);
* the **static certifier** alone (:func:`repro.check.certify.certify_schedule`)
  — one sorted event table over the whole stream, no simulation, the
  ``repro check`` CI gate's engine.

Claims asserted:

* the certificate and the validated pipeline agree on every schedule:
  zero findings and bit-identical (loads, stores, peak occupancy);
* mutated schedules fail closed: dropping a load flips both verdicts;
* at N >= 512 certification is >= 10x faster than the validated replay,
  which makes certifying every store object before upload affordable.

Results land in a BENCH JSON (``benchmarks/out/bench_e20_check.json`` or
``$BENCH_E20_JSON``).  Run with ``--smoke`` for CI sizes (agreement stays
asserted; the absolute-speedup claim is skipped).
"""

import time

import numpy as np
import pytest

from repro import TwoLevelMachine
from repro.check.certify import certify_schedule
from repro.core.tbs import tbs_syrk
from repro.errors import ScheduleError
from repro.sched.schedule import LoadStep, Schedule, record_schedule
from repro.sched.validate import validate_schedule
from repro.trace.compiled import compile_trace
from repro.trace.replay import lru_replay_trace
from repro.utils.fmt import Table, format_int

M_COLS = 6
SPEEDUP_FLOOR = 10.0  # asserted at N >= ASSERT_N, full mode only
ASSERT_N = 512


def record_case(n: int):
    s = 8 * n
    m = TwoLevelMachine(s, numerics=False)
    m.add_matrix("A", np.zeros((n, M_COLS)))
    m.add_matrix("C", np.zeros((n, n)))
    sched = record_schedule(
        m, lambda: tbs_syrk(m, "A", "C", range(n), range(M_COLS))
    )
    return sched, s


def best_of(fn, rounds=3):
    best = float("inf")
    out = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def measure_one(n: int):
    sched, s = record_case(n)

    def replay_path():
        trace = compile_trace(sched)
        lru_replay_trace(trace, s)
        return validate_schedule(sched, s)

    replayed, t_replay = best_of(replay_path)
    cert, t_certify = best_of(lambda: certify_schedule(sched, s))

    assert cert.ok and not cert.findings, (n, cert.findings[:3])
    for key in ("loads", "stores", "peak_occupancy"):
        assert cert.stats[key] == replayed[key], (n, key)

    # fail-closed: the same mutation trips both checkers
    i = next(i for i, st in enumerate(sched.steps) if isinstance(st, LoadStep))
    bad = Schedule(
        steps=[st for j, st in enumerate(sched.steps) if j != i],
        shapes=sched.shapes,
    )
    with pytest.raises(ScheduleError):
        validate_schedule(bad, s)
    assert not certify_schedule(bad, s).ok, n

    return {
        "n": n,
        "m": M_COLS,
        "s": s,
        "n_steps": len(sched.steps),
        "loads": cert.stats["loads"],
        "stores": cert.stats["stores"],
        "peak_occupancy": cert.stats["peak_occupancy"],
        "replay_sec": t_replay,
        "certify_sec": t_certify,
        "replay_steps_per_sec": len(sched.steps) / t_replay,
        "certify_steps_per_sec": len(sched.steps) / t_certify,
        "certify_speedup": t_replay / t_certify,
    }


def write_bench_json(rows):
    from common import write_bench_json as write_common

    return write_common(
        "e20_check_certify_throughput", rows,
        env_var="BENCH_E20_JSON", default_name="bench_e20_check.json",
    )


@pytest.mark.benchmark(group="e20")
def test_e20_certify_vs_validated_replay(once, smoke):
    ns = [48, 96] if smoke else [128, 256, 512]
    rows = once(lambda: [measure_one(n) for n in ns])

    t = Table(
        ["N", "S", "steps", "replay st/s", "certify st/s", "certify x"],
        title=(
            f"E20 static certification vs validated replay "
            f"(compile + LRU replay + validate), TBS SYRK m={M_COLS}, S=8N"
        ),
    )
    for row in rows:
        t.add_row(
            [row["n"], row["s"], format_int(row["n_steps"]),
             format_int(int(row["replay_steps_per_sec"])),
             format_int(int(row["certify_steps_per_sec"])),
             f"{row['certify_speedup']:.1f}"]
        )
    print()
    print(t.render())
    path = write_bench_json(rows)
    print(f"\nBENCH JSON written to {path}")

    for row in rows:
        assert row["certify_speedup"] > 1.0, row["n"]
    if not smoke:
        big = [row for row in rows if row["n"] >= ASSERT_N]
        assert big, "sweep must include the acceptance size"
        for row in big:
            assert row["certify_speedup"] >= SPEEDUP_FLOOR, row
