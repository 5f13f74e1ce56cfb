"""Repo-invariant lints: ``ast``-based, flake8-style codes.

Each rule encodes an invariant the repository has already paid a bug (or
a whole PR) for:

* **RPL101** — no raw artifact writes (``open(..., "w"/"wb"/...)``,
  ``np.savez*``) outside the atomic io layer.  PR 9's consistency story
  is temp-sibling + ``os.replace`` everywhere; a raw write reintroduces
  the torn-file class.  A write is exempt only when its enclosing
  function also calls ``os.replace`` (i.e. it *is* an atomic writer, as
  ``repro.utils.atomic.atomic_write_bytes`` is); the containers of
  ``trace/io.py`` go through that writer too.
* **RPL102** — literal probe counter names must appear in the
  OBSERVABILITY.md taxonomy.  Undocumented counters silently rot the
  report format.  Dynamically built names (f-strings, variables) are
  skipped — only string literals are checked.
* **RPL103** — no unseeded RNG construction (``default_rng()``,
  ``random.Random()``) and no global-state RNG calls
  (``np.random.rand`` etc.) outside ``utils/rng.py``.  Reproducibility
  is a tier-1 test invariant.
* **RPL104** — no ``time.perf_counter`` outside ``obs/`` and
  ``benchmarks/``.  Ad-hoc timing belongs behind the probe layer
  (``repro.obs.timed``), which records iff a probe listens.

``lint_paths`` walks ``.py`` files and returns :class:`Finding`\\ s with
``file``/``line`` locations; ``python -m repro check --lint src`` is the
CI entry point.
"""

from __future__ import annotations

import ast
import os
import re
from pathlib import Path
from typing import Iterable, Sequence

from ..obs.probe import get_probe, timed
from .findings import Finding, sort_findings

_WRITE_MODE = re.compile(r"[wax+]")
_COUNTER_NAME = re.compile(r"^[a-z][a-z0-9_]*(?:\.[a-z][a-z0-9_]*)+$")
_TAXONOMY_TOKEN = re.compile(
    r"\b[a-z][a-z0-9_]*(?:\.(?:\{[^{}.]+\}|<[a-z_]+>|[a-z][a-z0-9_]*))+"
)

#: numpy.random / random module-level functions that mutate global RNG state.
_GLOBAL_NP_RANDOM = {
    "rand", "randn", "randint", "random", "random_sample", "choice",
    "shuffle", "permutation", "normal", "standard_normal", "uniform", "seed",
}
_GLOBAL_RANDOM = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "seed",
}


def parse_taxonomy(text: str) -> list[tuple[str, ...]]:
    """Extract counter-name patterns from OBSERVABILITY.md prose.

    A pattern is a tuple of segments; a segment is a literal, ``*`` (from a
    ``<placeholder>``) or expanded from a ``{a,b,c}`` alternative group.
    """
    patterns: set[tuple[str, ...]] = set()
    for token in _TAXONOMY_TOKEN.findall(text):
        segment_choices: list[list[str]] = []
        for seg in token.split("."):
            if seg.startswith("{") and seg.endswith("}"):
                segment_choices.append([s.strip() for s in seg[1:-1].split(",")])
            elif seg.startswith("<") and seg.endswith(">"):
                segment_choices.append(["*"])
            else:
                segment_choices.append([seg])
        combos: list[tuple[str, ...]] = [()]
        for choices in segment_choices:
            combos = [c + (s,) for c in combos for s in choices]
        patterns.update(combos)
    return sorted(patterns)


def counter_documented(name: str, patterns: Sequence[tuple[str, ...]]) -> bool:
    """Does ``name`` match any taxonomy pattern (``*`` = one segment)?"""
    segs = tuple(name.split("."))
    for pat in patterns:
        if len(pat) == len(segs) and all(
            p == "*" or p == s for p, s in zip(pat, segs)
        ):
            return True
    return False


def find_taxonomy(start: "Path | str") -> Path | None:
    """Walk upward from ``start`` for ``docs/OBSERVABILITY.md``."""
    node = Path(start).resolve()
    if node.is_file():
        node = node.parent
    for parent in [node, *node.parents]:
        candidate = parent / "docs" / "OBSERVABILITY.md"
        if candidate.is_file():
            return candidate
    return None


class _FileLint(ast.NodeVisitor):
    def __init__(self, filename: str, parts: tuple[str, ...], counters) -> None:
        self.filename = filename
        self.parts = parts
        self.counters = counters
        self.findings: list[Finding] = []
        self._func_stack: list[ast.AST] = []
        self._atomic_cache: dict[int, bool] = {}
        self._perf_aliases: set[str] = set()
        self._rng_aliases: set[str] = set()
        self.in_rng_module = filename.replace(os.sep, "/").endswith("utils/rng.py")
        self.timing_exempt = bool({"obs", "benchmarks"} & set(parts))

    # -- helpers ---------------------------------------------------------
    def _flag(self, code: str, line: int, message: str, **context) -> None:
        self.findings.append(
            Finding(code=code, message=message, file=self.filename, line=line,
                    context=context)
        )

    def _enclosing_is_atomic(self) -> bool:
        """Does any enclosing function also call ``os.replace``?"""
        for fn in self._func_stack:
            key = id(fn)
            if key not in self._atomic_cache:
                self._atomic_cache[key] = any(
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "replace"
                    and isinstance(sub.func.value, ast.Name)
                    and sub.func.value.id == "os"
                    for sub in ast.walk(fn)
                )
            if self._atomic_cache[key]:
                return True
        return False

    # -- structure -------------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._func_stack.append(node)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name
            if node.module == "time" and alias.name.startswith("perf_counter"):
                self._perf_aliases.add(bound)
            if node.module in ("numpy.random", "random") and alias.name in (
                "default_rng", "Random", "RandomState"
            ):
                self._rng_aliases.add(bound)
        self.generic_visit(node)

    # -- rules -----------------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            not self.timing_exempt
            and node.attr.startswith("perf_counter")
            and isinstance(node.value, ast.Name)
            and node.value.id == "time"
        ):
            self._flag(
                "RPL104", node.lineno,
                "time.perf_counter outside obs/ and benchmarks/ — "
                "use repro.obs.timed",
            )
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if not self.timing_exempt and node.id in self._perf_aliases:
            self._flag(
                "RPL104", node.lineno,
                "time.perf_counter outside obs/ and benchmarks/ — "
                "use repro.obs.timed",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self._check_raw_write(node)
        self._check_counter_name(node)
        if not self.in_rng_module:
            self._check_rng(node)
        self.generic_visit(node)

    def _check_raw_write(self, node: ast.Call) -> None:
        fn = node.func
        is_savez = (
            isinstance(fn, ast.Attribute)
            and fn.attr in ("savez", "savez_compressed")
            and isinstance(fn.value, ast.Name)
            and fn.value.id in ("np", "numpy")
        )
        is_write_open = False
        if (isinstance(fn, ast.Name) and fn.id == "open") or (
            isinstance(fn, ast.Attribute) and fn.attr == "open"
        ):
            mode = None
            if len(node.args) >= 2:
                mode = node.args[1]
            for kw in node.keywords:
                if kw.arg == "mode":
                    mode = kw.value
            if (
                isinstance(mode, ast.Constant)
                and isinstance(mode.value, str)
                and _WRITE_MODE.search(mode.value)
            ):
                is_write_open = True
        if not (is_savez or is_write_open):
            return
        if self._enclosing_is_atomic():
            return
        what = "np.savez" if is_savez else "open(..., write mode)"
        self._flag(
            "RPL101", node.lineno,
            f"raw artifact write via {what} — "
            f"use the atomic temp+os.replace writers of repro.utils.atomic",
        )

    def _check_counter_name(self, node: ast.Call) -> None:
        if self.counters is None:
            return
        fn = node.func
        if not (isinstance(fn, ast.Attribute) and fn.attr == "count"):
            return
        if "probe" not in ast.unparse(fn.value).lower():
            return
        if not node.args:
            return
        arg = node.args[0]
        if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
            return  # dynamically built names are out of scope
        name = arg.value
        if not _COUNTER_NAME.match(name):
            return
        if not counter_documented(name, self.counters):
            self._flag(
                "RPL102", node.lineno,
                f"probe counter {name!r} is not in the OBSERVABILITY.md "
                f"taxonomy",
                counter=name,
            )

    def _check_rng(self, node: ast.Call) -> None:
        fn = node.func
        line = node.lineno
        if isinstance(fn, ast.Attribute):
            if fn.attr == "default_rng" and not node.args and not node.keywords:
                self._flag(
                    "RPL103", line,
                    "unseeded default_rng() outside utils/rng.py",
                )
                return
            if (
                fn.attr in ("Random", "RandomState")
                and not node.args
                and not node.keywords
            ):
                self._flag(
                    "RPL103", line,
                    f"unseeded {fn.attr}() outside utils/rng.py",
                )
                return
            # Global-state RNG: np.random.<fn>(...) / random.<fn>(...)
            value = fn.value
            if (
                isinstance(value, ast.Attribute)
                and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in ("np", "numpy")
                and fn.attr in _GLOBAL_NP_RANDOM
            ):
                self._flag(
                    "RPL103", line,
                    f"global np.random.{fn.attr} outside utils/rng.py",
                )
            elif (
                isinstance(value, ast.Name)
                and value.id == "random"
                and fn.attr in _GLOBAL_RANDOM
            ):
                self._flag(
                    "RPL103", line,
                    f"global random.{fn.attr} outside utils/rng.py",
                )
        elif isinstance(fn, ast.Name) and fn.id in self._rng_aliases:
            if not node.args and not node.keywords:
                self._flag(
                    "RPL103", line,
                    f"unseeded {fn.id}() outside utils/rng.py",
                )


def lint_source(
    source: str,
    filename: str,
    *,
    counters: Sequence[tuple[str, ...]] | None = None,
) -> list[Finding]:
    """Lint one module's source text (unit-test entry point)."""
    norm = filename.replace(os.sep, "/")
    parts = tuple(norm.split("/"))
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        return [
            Finding(
                code="RPL100",
                severity="error",
                message=f"syntax error: {exc.msg}",
                file=filename,
                line=exc.lineno or 1,
            )
        ]
    visitor = _FileLint(filename, parts, counters)
    visitor.visit(tree)
    return visitor.findings


def iter_python_files(paths: Iterable[str | os.PathLike]) -> list[Path]:
    """All ``.py`` files under ``paths`` (skipping caches), sorted."""
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_file() and path.suffix == ".py":
            files.append(path)
        elif path.is_dir():
            files.extend(
                f
                for f in path.rglob("*.py")
                if "__pycache__" not in f.parts
                and not any(part.startswith(".") for part in f.parts)
            )
    return sorted(set(files))


def lint_paths(
    paths: Iterable[str | os.PathLike],
    *,
    taxonomy_path: str | os.PathLike | None = None,
) -> list[Finding]:
    """Lint every ``.py`` file under ``paths``; returns all findings."""
    files = iter_python_files(paths)
    counters = None
    taxonomy = Path(taxonomy_path) if taxonomy_path else (
        find_taxonomy(files[0]) if files else None
    )
    if taxonomy is not None and taxonomy.is_file():
        counters = parse_taxonomy(taxonomy.read_text(encoding="utf-8"))
    findings: list[Finding] = []
    with timed("check.lint"):
        for path in files:
            rel = os.path.relpath(path)
            findings.extend(
                lint_source(path.read_text(encoding="utf-8"), rel, counters=counters)
            )
    probe = get_probe()
    if probe.enabled:
        probe.count("check.lint.files", len(files))
        probe.count("check.lint.findings", len(findings))
    return sort_findings(findings)
