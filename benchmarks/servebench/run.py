"""Standing serve-path benchmark: one client, three workloads, per-layer trace.

Drives the real serve path, ``ScheduleService.get_schedule`` over a
``ScheduleStore`` and a ``ScheduleCache``, and prints one JSON object as
its last line of output.  Run it from the root of a checkout::

    python3 benchmarks/servebench/run.py --workload cold-heuristic \\
        --seed 1 --seconds 12 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs the same passes untraced, then again with every layer
wrapped (``layers.py``), and reports the per-layer metrics.  It also
writes the spans to ``benchmarks/out/servebench_<workload>_<seed>.json``,
which Perfetto opens.  A run reads and writes only inside the checkout.

Every timing is taken on the wall clock and scaled to the host's
uncontended speed by the reference loop of ``hostspeed.py``, which runs
on the same CPU for the whole run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: Start of this process's own work; a set-up child reports its span from here.
STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
OUT = ROOT / "benchmarks" / "out"

#: Set-up runs in fresh interpreters, because imports happen once per
#: process.  Each times itself, so interpreter start-up and teardown are
#: left out; ``setup_s`` is the median of this many.
SETUP_REPEATS = 5


def setup(workload_name: str, store_root: str) -> None:
    """What a fresh serving process does before its first request."""
    from workloads import CACHE_CAPACITY, WORKLOADS as DEFS, import_serve_path

    from repro.serve import ScheduleCache, ScheduleService, ScheduleStore, warm_store

    import_serve_path()
    store = ScheduleStore(store_root)
    ScheduleService(store, ScheduleCache(CACHE_CAPACITY), workers=0).close()
    workload = DEFS[workload_name]
    if workload.warm:
        warm_store(store, workload.keys, jobs=1)


def timed_setups(workload_name: str, work: Path) -> tuple[list[tuple[float, float]], Path]:
    """The (start, end) span each fresh set-up process reports, and the
    store the first one filled."""
    spans, roots = [], []
    for i in range(SETUP_REPEATS):
        root = work / f"setup-{i}"
        child = subprocess.run(
            [sys.executable, __file__, "--setup-only", str(root), "--workload", workload_name],
            check=True, capture_output=True, text=True, timeout=120,
        )
        start, end = map(float, child.stdout.split()[-2:])
        spans.append((start, end))
        roots.append(root)
    for extra in roots[1:]:
        shutil.rmtree(extra)
    return spans, roots[0]


def run_passes(streams, work: Path, warm_root: Path | None, check):
    """One pass per stream, over ``warm_root`` or else a fresh empty store."""
    from workloads import run_pass

    results = []
    for i, stream in enumerate(streams):
        root = warm_root or Path(tempfile.mkdtemp(prefix=f"pass-{i}-", dir=work))
        results.append(run_pass(str(root), stream, check))
        if warm_root is None:
            shutil.rmtree(root)
    return results


def scaled_latencies(result, speed) -> list[float]:
    """Each request's latency in seconds at the host's uncontended speed."""
    return [speed.seconds(t, t + lat) for t, lat in zip(result.starts, result.latencies)]


def scaled_fills(results, speed) -> list[float]:
    """Scaled latencies of the requests the memory cache could not answer."""
    return [t for r in results for tier, t in zip(r.tiers, scaled_latencies(r, speed))
            if tier != "memory"]


def end_to_end(results, setup_spans, check, speed) -> dict:
    """The metrics of BENCHMARK.json's ``end_to_end`` list, untraced."""
    return {
        "setup_s": (statistics.median(speed.seconds(*span) for span in setup_spans), "s"),
        "wall_s": (statistics.median(sum(scaled_latencies(r, speed)) for r in results), "s"),
        "fill_p50_s": (statistics.median(scaled_fills(results, speed)), "s"),
        "io_over_bound": (check.io_over_bound(), "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="STORE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"servebench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS as DEFS, OutputCheck, import_serve_path

    if args.workload not in DEFS:
        parser.error(f"--workload must be one of {', '.join(DEFS)}")
    if args.setup_only:
        setup(args.workload, args.setup_only)
        print(STARTED, time.perf_counter())
        return 0

    from hostspeed import HostSpeed

    workload = DEFS[args.workload]
    streams = workload.pass_streams(args.seed, args.seconds)
    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="servebench-", dir=OUT))
    speed = HostSpeed()
    try:
        check = OutputCheck()
        if args.trace:
            from layers import Tracer

            tracer = Tracer()
            with speed:
                import_serve_path()
                warm_root = None
                if workload.warm:
                    warm_root = work / "store"
                    with tracer.installed():
                        setup(args.workload, str(warm_root))
                gc.collect()
                untraced = run_passes(streams, work, warm_root, check)
                tracer.phase = "measure"
                with tracer.installed():
                    traced = run_passes(streams, work, warm_root, check)
            results = untraced + traced
            scaled_wall = [sum(sum(scaled_latencies(r, speed)) for r in rs)
                           for rs in (untraced, traced)]
            metrics = tracer.layer_metrics(traced, scaled_wall[1] / scaled_wall[0] - 1.0)
            # The provenance stamp asks git for the SHA; keep git from
            # reading a repository that encloses the checkout.
            os.environ.setdefault("GIT_CEILING_DIRECTORIES", str(ROOT.parent))
            tracer.write_chrome_trace(
                OUT / f"servebench_{args.workload}_{args.seed}.json",
                {"workload": args.workload, "seed": args.seed, "passes": len(streams),
                 "metrics": {name: value for name, (value, _unit) in metrics.items()}},
            )
        else:
            with speed:
                setup_spans, warm_root = timed_setups(args.workload, work)
                import_serve_path()
                gc.collect()
                results = run_passes(streams, work, warm_root if workload.warm else None, check)
            metrics = end_to_end(results, setup_spans, check, speed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(r.latencies) for r in results)
    failed = sum(r.failed for r in results)
    for error in [e for r in results for e in r.errors][:5]:
        print(error, file=sys.stderr)
    tiers = [t for r in results for t in r.tiers]
    print(f"{args.workload}: {len(results)} passes, {attempted} requests "
          f"({tiers.count('memory')} memory, {tiers.count('disk')} disk, "
          f"{tiers.count('miss')} miss), {failed} failed")
    scaled = sum(sum(scaled_latencies(r, speed)) for r in results)
    fills = scaled_fills(results, speed)
    print(f"  wall-clock time per pass {[round(r.wall_s, 3) for r in results]} s; "
          f"scaled / wall-clock {scaled / sum(r.wall_s for r in results):.3f}; "
          f"{len(fills)} fills, scaled p90 {statistics.quantiles(fills, n=10)[8]:.4g} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
