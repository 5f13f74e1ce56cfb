"""The shared finding model every static check reports through.

A :class:`Finding` is one diagnostic: a stable flake8-style code, a
severity, a location (either an ``op_index`` into a schedule/op order, or
a ``file``/``line`` pair for codebase lints), a human-readable message and
a small ``context`` mapping with the machine-readable details (element
counts, example keys, shard ids, ...).

The module is deliberately dependency-free — ``sched.validate``,
``parallel.executor`` and ``serve.store`` all attach findings to their
errors, so nothing here may import back into the engine layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

ERROR = "error"
WARNING = "warning"

#: code -> (severity, short title).  The catalog is the documentation
#: contract: docs/CHECKS.md lists exactly these codes, and the CLI prints
#: the title next to each finding.
CODES: dict[str, tuple[str, str]] = {
    # stream / memory certifier (sched-level)
    "RPS101": (ERROR, "use of a non-resident element"),
    "RPS102": (ERROR, "redundant load of a resident element"),
    "RPS103": (ERROR, "evict of a non-resident element"),
    "RPS104": (ERROR, "peak residency exceeds capacity"),
    "RPS105": (ERROR, "fast memory not empty at end of schedule"),
    "RPS106": (ERROR, "step references an unknown matrix"),
    "RPS107": (ERROR, "artifact unreadable or missing"),
    "RPS108": (ERROR, "element outside its matrix"),
    "RPS201": (WARNING, "dead evict (loaded but never touched)"),
    "RPS202": (WARNING, "store of a clean element (writeback without write)"),
    # cross-shard race detector (graph-level)
    "RPR101": (ERROR, "execution order violates a dependence edge"),
    "RPR102": (ERROR, "cross-shard RAW pair left unordered"),
    "RPR103": (WARNING, "cross-shard WAR pair left unordered"),
    "RPR104": (WARNING, "cross-shard WAW pair left unordered"),
    "RPR105": (ERROR, "commuting reduction class split across shards unordered"),
    # conservation checks (partition-level)
    "RPC101": (ERROR, "transfer accounting asymmetric"),
    "RPC102": (ERROR, "receives below the distinct-footprint floor"),
    "RPC103": (ERROR, "exclusive-writer violation"),
    # codebase lints (repo-level)
    "RPL100": (ERROR, "file does not parse"),
    "RPL101": (ERROR, "raw artifact write outside the atomic io layer"),
    "RPL102": (ERROR, "probe counter name missing from the taxonomy"),
    "RPL103": (ERROR, "unseeded RNG construction outside utils/rng.py"),
    "RPL104": (ERROR, "time.perf_counter outside obs/ and benchmarks/"),
}


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a static check."""

    code: str
    message: str
    severity: str = ""
    op_index: int | None = None
    file: str | None = None
    line: int | None = None
    context: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.severity:
            sev = CODES.get(self.code, (ERROR, ""))[0]
            object.__setattr__(self, "severity", sev)

    @property
    def title(self) -> str:
        """The catalog title for this finding's code."""
        return CODES.get(self.code, (ERROR, "unknown code"))[1]

    @property
    def where(self) -> str:
        """Human-readable location: ``op 42``, ``path.py:17`` or ``-``."""
        if self.file is not None:
            return f"{self.file}:{self.line}" if self.line is not None else self.file
        if self.op_index is not None:
            return f"op {self.op_index}"
        return "-"

    def as_dict(self) -> dict[str, Any]:
        """A JSON-ready representation (used by ``--format json``)."""
        out: dict[str, Any] = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
        }
        if self.op_index is not None:
            out["op_index"] = self.op_index
        if self.file is not None:
            out["file"] = self.file
        if self.line is not None:
            out["line"] = self.line
        if self.context:
            out["context"] = dict(self.context)
        return out

    def __str__(self) -> str:
        return f"{self.code} [{self.severity}] {self.where}: {self.message}"


def has_errors(findings: Iterable[Finding]) -> bool:
    """True iff any finding in the iterable is error-severity."""
    return any(f.severity == ERROR for f in findings)


def sort_findings(findings: Iterable[Finding]) -> list[Finding]:
    """Stable order for reporting: by location, then code."""

    def keyfn(f: Finding) -> tuple:
        return (
            f.file or "",
            f.line if f.line is not None else -1,
            f.op_index if f.op_index is not None else 1 << 60,
            f.code,
        )

    return sorted(findings, key=keyfn)
