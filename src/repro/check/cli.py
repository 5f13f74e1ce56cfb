"""``python -m repro check`` — the static analysis entry point.

Three modes, one finding model:

* **artifact mode** — certify a saved ``.npz`` schedule (``check path.npz
  --capacity S``), a store object (``--store ROOT --digest HEX``), every
  store object (``--store ROOT --all``), or a freshly recorded kernel
  (``--kernel tbs --n 40 --m 6 --s 15``).  With ``--p`` the kernel mode
  additionally partitions the dependence DAG and runs the cross-shard
  race detector plus the conservation checks.
* **lint mode** — ``check --lint src [more paths]`` runs the repo-invariant
  lint pass; any finding fails the run (the CI gate).
* ``--format json`` emits one machine-readable document instead of tables.

Exit status: 0 when no error-severity finding was produced (lint mode is
stricter: any finding at all fails), 1 otherwise, and 2 on usage errors:
an unknown ``--kernel``, a ``--store`` root with no ``objects/``
directory (reported without creating anything there), an artifact path
without ``--capacity``, or an orphan object (one with no manifest entry)
named without ``--capacity``.  A file that cannot be certified is RPS107
(exit 1), with or without ``--capacity``, naming its reason: a missing
artifact path or ``--digest``, a stale (older container format) object,
or an unreadable file, which includes a trace container given as an
artifact.
"""

from __future__ import annotations

import json
import os
from typing import Any

from ..utils.fmt import Table, banner
from .certify import Certificate, certify_schedule
from .conservation import check_conservation
from .findings import CODES, Finding, has_errors, sort_findings
from .races import check_races


def add_check_parser(sub) -> None:
    """Register the ``check`` subparser on the CLI's subparsers object."""
    from ..graph.compare import CASES
    from ..parallel.executor import PARTITIONERS

    p = sub.add_parser(
        "check",
        help="static analysis: schedule certifier, race detector, repo lints",
    )
    p.add_argument("artifact", nargs="?", default=None,
                   help="a saved .npz schedule to certify")
    p.add_argument("--capacity", type=int, default=None,
                   help="fast-memory capacity S to certify against "
                        "(required for artifact paths; store objects "
                        "default to their key's S)")
    p.add_argument("--store", default=None, metavar="ROOT",
                   help="certify objects of a serve store")
    p.add_argument("--digest", default=None, metavar="HEX",
                   help="one store object (with --store)")
    p.add_argument("--all", action="store_true",
                   help="every keyed store object (with --store)")
    p.add_argument("--kernel", default=None, choices=sorted(CASES),
                   help="record + certify a kernel case")
    p.add_argument("--n", type=int, default=40)
    p.add_argument("--m", type=int, default=6)
    p.add_argument("--s", type=int, default=15)
    p.add_argument("--p", type=int, default=1,
                   help="with --kernel: also partition across p shards and "
                        "run the race detector + conservation checks")
    p.add_argument("--partitioner", default="owner-computes",
                   choices=PARTITIONERS)
    p.add_argument("--relax", action="store_true",
                   help="treat commuting reductions as reorderable "
                        "(race-checks the relaxed happens-before)")
    p.add_argument("--lint", nargs="+", default=None, metavar="PATH",
                   help="lint mode: check .py files under PATH(s)")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.add_argument("--report", default=None, metavar="PATH",
                   help="write the run report (check.* counters) as JSON")


def _emit(mode: str, findings: list[Finding], stats: dict[str, Any],
          fmt: str, ok: bool) -> None:
    if fmt == "json":
        print(json.dumps({
            "mode": mode,
            "ok": ok,
            "findings": [f.as_dict() for f in findings],
            "stats": stats,
        }, indent=2))
        return
    if findings:
        t = Table(["code", "severity", "where", "message"])
        for f in findings:
            t.add_row([f.code, f.severity, f.where, f.message])
        print(t.render())
    summary = ", ".join(f"{k}={v}" for k, v in stats.items())
    verdict = "OK" if ok else "FAIL"
    print(f"{verdict}: {len(findings)} finding(s)" + (f" [{summary}]" if summary else ""))


def _cert_rows(label: str, cert: Certificate) -> dict[str, Any]:
    stats = dict(cert.stats)
    stats["target"] = label
    return stats


def _read_object(path: str):
    """``(schedule, None)`` for a schedule file that loads, else ``(None,
    (reason, detail))`` with reason ``missing``, ``stale`` or ``unreadable``
    (a trace container, or no container at all, is unreadable).

    Store mode reads each object through it directly rather than through
    ``ScheduleStore.get``, which answers ``None`` for every failure alike
    and needs the object's key, so an orphan (an object with no manifest
    entry) is certified too; artifact mode reads its path the same way.
    """
    from ..errors import StaleFormatError
    from ..trace.io import load_schedule

    if not os.path.exists(path):
        return None, ("missing", "is missing")
    try:
        return load_schedule(path), None
    except StaleFormatError:
        return None, ("stale", "is in an older container format")
    except Exception as exc:
        return None, ("unreadable", f"is unreadable: {exc}")


def cmd_check(args) -> int:
    fmt = args.format

    # ---- lint mode ----------------------------------------------------
    if args.lint is not None:
        from .lint import lint_paths

        findings = lint_paths(args.lint)
        _emit("lint", findings, {"paths": len(args.lint)}, fmt,
              ok=not findings)
        return 1 if findings else 0

    findings: list[Finding] = []
    stats: dict[str, Any] = {}

    # ---- store mode ---------------------------------------------------
    if args.store is not None:
        from ..serve.store import ScheduleStore

        if not os.path.isdir(os.path.join(args.store, "objects")):
            print(f"check --store: {args.store} is not a schedule store "
                  f"(no objects/ directory)")
            return 2
        store = ScheduleStore(args.store)
        by_digest = {key.digest(): key for key in store.keys()}
        if args.digest:
            targets = [args.digest]
        elif args.all:
            targets = sorted(by_digest)
        else:
            print("check --store needs --digest or --all")
            return 2
        certified = 0
        for digest in targets:
            schedule, problem = _read_object(store.object_path(digest))
            if schedule is None:
                reason, detail = problem
                if reason == "stale":
                    detail += "; the next put rewrites it"
                findings.append(Finding(
                    code="RPS107", message=f"store object {digest[:12]} {detail}",
                    context={"digest": digest, "reason": reason},
                ))
                continue
            key = by_digest.get(digest)
            capacity = args.capacity if args.capacity else (key.s if key else None)
            if capacity is None:
                # Only --digest names an object with no manifest entry.
                print(f"check --store: {digest[:12]} has no key in the "
                      f"manifest; give its --capacity")
                return 2
            cert = certify_schedule(schedule, capacity)
            findings.extend(
                Finding(code=f.code, message=f"[{digest[:12]}] {f.message}",
                        severity=f.severity, op_index=f.op_index,
                        context=dict(f.context, digest=digest))
                for f in cert.findings
            )
            certified += 1
        stats = {"objects": certified}
        ok = not has_errors(findings)
        if fmt == "table":
            print(banner(f"check store: {args.store} ({certified} object(s))"))
        _emit("store", sort_findings(findings), stats, fmt, ok)
        return 0 if ok else 1

    # ---- artifact mode ------------------------------------------------
    if args.artifact is not None:
        schedule, problem = _read_object(args.artifact)
        if schedule is None:
            reason, detail = problem
            finding = Finding(
                code="RPS107", message=f"{args.artifact} {detail}",
                context={"path": args.artifact, "reason": reason},
            )
            _emit("artifact", [finding], {"target": args.artifact}, fmt, ok=False)
            return 1
        if args.capacity is None:
            print("check ARTIFACT needs --capacity S")
            return 2
        cert = certify_schedule(schedule, args.capacity)
        if fmt == "table":
            print(banner(f"check schedule: {args.artifact} (S={args.capacity})"))
        _emit("artifact", cert.findings, _cert_rows(args.artifact, cert),
              fmt, cert.ok)
        return 0 if cert.ok else 1

    # ---- kernel mode --------------------------------------------------
    if args.kernel is None:
        print("check needs an artifact path, --store, --kernel or --lint "
              "(see python -m repro check --help)")
        return 2

    from ..graph.compare import record_case
    from ..graph.dependency import DependencyGraph

    case = record_case(args.kernel, args.n, args.m, args.s)
    cert = certify_schedule(case.schedule, case.capacity)
    findings = list(cert.findings)
    stats = _cert_rows(f"{args.kernel} n={args.n}", cert)

    if args.p > 1:
        from ..parallel.executor import partition_graph

        graph = DependencyGraph.from_trace(case.trace)
        owner = partition_graph(graph, args.p, args.partitioner)
        findings.extend(check_races(
            graph, owner, relax_reductions=args.relax))
        findings.extend(check_conservation(
            graph, owner,
            exclusive_writer=args.partitioner == "owner-computes"))
        stats["p"] = args.p
        stats["partitioner"] = args.partitioner

    ok = not has_errors(findings)
    if fmt == "table":
        mode = f"{args.kernel} n={args.n} m={args.m} s={args.s}"
        if args.p > 1:
            mode += f" p={args.p} ({args.partitioner})"
        print(banner(f"check kernel: {mode}"))
    _emit("kernel", sort_findings(findings), stats, fmt, ok)
    return 0 if ok else 1


def describe_codes() -> Table:
    """The finding-code catalog as a rendered table (used by docs)."""
    t = Table(["code", "severity", "meaning"])
    for code, (severity, title) in sorted(CODES.items()):
        t.add_row([code, severity, title])
    return t
