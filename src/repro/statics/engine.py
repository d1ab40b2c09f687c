"""The rule engine behind ``repro lint``.

A :class:`Rule` inspects one parsed module at a time and yields
:class:`Finding` records.  The engine owns everything rule-agnostic:
discovering files, parsing, building parent links, scoping a rule to
part of the ``repro`` package, ``# repro: noqa[RPL0xx]`` suppression,
and the text report.  The rules themselves are the ``RULES`` tuple in
:mod:`repro.statics.rules`.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

#: ``# repro: noqa`` or ``# repro: noqa[RPL001]`` / ``[RPL001,RPL005]``.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Z0-9,\s]+)\])?", re.IGNORECASE)

#: Path fragments never linted.
EXCLUDE = ("/.git/", "/.repro-cache/", "/build/")


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    code: str
    name: str
    message: str
    path: str
    line: int
    col: int

    def format(self) -> str:
        """The one-line text form: ``path:line:col: CODE [name] message``."""
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.code} [{self.name}] {self.message}")


class ModuleInfo:
    """One parsed source file plus the lookups rules need."""

    def __init__(self, path: str, source: str):
        self.path = path
        # ``repro/<path inside the package>``, found by the src layout of
        # pyproject.toml, or None for a file outside the package (tests,
        # perf/, or a checkout that is merely named ``repro``).
        _, package, inside = ("/" + path.replace("\\", "/")).rpartition(
            "/src/repro/")
        self.package_path = "repro/" + inside if package else None
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None

    @property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        """Child-to-parent node map, built lazily on first use."""
        if self._parents is None:
            parents: Dict[ast.AST, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from ``node``'s parent up to the module node."""
        parents = self.parents
        current = parents.get(node)
        while current is not None:
            yield current
            current = parents.get(current)

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        """The nearest enclosing function/async-function, if any."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def in_scope(self, prefixes: Sequence[str]) -> bool:
        """Whether the file's path in the package starts with a prefix.

        Prefixes read ``"repro/engine/"``, or ``"repro/"`` for the whole
        package: ``src/repro/engine/wal.py`` is in scope of both, and
        ``tests/engine/test_wal.py`` of neither, wherever the checkout
        lives.
        """
        return (self.package_path is not None
                and self.package_path.startswith(tuple(prefixes)))


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render a ``Name``/``Attribute`` chain as ``a.b.c``, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class Rule:
    """Base class: one invariant, one stable code.

    Subclasses set :attr:`code`, :attr:`name`, :attr:`description`, and
    the :attr:`paths` scope (empty = every linted file), then
    implement :meth:`check`.
    """

    code: str = ""
    name: str = ""
    description: str = ""
    #: Package path prefixes this rule applies to (see
    #: :meth:`ModuleInfo.in_scope`).
    paths: Sequence[str] = ()

    def applies_to(self, module: ModuleInfo) -> bool:
        """Whether :meth:`check` should run on ``module``."""
        return not self.paths or module.in_scope(self.paths)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        """Yield findings for one module."""
        raise NotImplementedError

    def finding(self, module: ModuleInfo, node: ast.AST,
                message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(code=self.code, name=self.name, message=message,
                       path=module.path, line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0) + 1)


def noqa_codes(lines: Sequence[str]) -> Dict[int, Optional[Set[str]]]:
    """Per-line suppressions: line number -> codes (None = all codes)."""
    out: Dict[int, Optional[Set[str]]] = {}
    for number, text in enumerate(lines, start=1):
        if "noqa" not in text:
            continue
        match = _NOQA_RE.search(text)
        if not match:
            continue
        codes = match.group("codes")
        if codes is None:
            out[number] = None
        else:
            out[number] = {c.strip().upper() for c in codes.split(",")
                           if c.strip()}
    return out


def _suppressed(finding: Finding,
                suppressions: Dict[int, Optional[Set[str]]]) -> bool:
    if finding.line not in suppressions:
        return False
    codes = suppressions[finding.line]
    return codes is None or finding.code in codes


@dataclasses.dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding] = dataclasses.field(default_factory=list)
    files: int = 0
    suppressed: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """0 clean, 1 findings, 2 broken input (parse/read errors)."""
        if self.errors:
            return 2
        return 1 if self.findings else 0


def _iter_files(paths: Iterable[str]) -> List[str]:
    out: List[str] = []
    for entry in paths:
        path = Path(entry)
        found = (sorted(str(p) for p in path.rglob("*.py"))
                 if path.is_dir() else [str(path)])
        out.extend(name for name in found
                   if not any(fragment in "/" + name.replace("\\", "/")
                              for fragment in EXCLUDE))
    return out


def _lint(path: str, source: str, result: LintResult) -> None:
    """Run every rule in scope over one file's source."""
    # rules.py builds on this module, so it is imported at first use.
    from repro.statics.rules import RULES
    try:
        module = ModuleInfo(path, source)
    except SyntaxError as exc:
        result.errors.append(f"{path}: syntax error: {exc.msg} "
                             f"(line {exc.lineno})")
        return
    result.files += 1
    suppressions = noqa_codes(module.lines)
    for rule_obj in RULES:
        if not rule_obj.applies_to(module):
            continue
        for finding in rule_obj.check(module):
            if _suppressed(finding, suppressions):
                result.suppressed += 1
            else:
                result.findings.append(finding)
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))


def check_paths(paths: Iterable[str]) -> LintResult:
    """Lint files and directories; directories are walked for ``*.py``."""
    result = LintResult()
    for name in _iter_files(paths):
        try:
            source = Path(name).read_text(encoding="utf-8")
        except OSError as exc:
            result.errors.append(f"{name}: {exc}")
            continue
        _lint(name, source, result)
    return result


def check_source(source: str, path: str = "<string>") -> LintResult:
    """Lint one in-memory source string (the fixture-test entry point)."""
    result = LintResult()
    _lint(path, source, result)
    return result


def format_findings_text(result: LintResult) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [finding.format() for finding in result.findings]
    lines.extend(f"error: {message}" for message in result.errors)
    noun = "finding" if len(result.findings) == 1 else "findings"
    lines.append(f"{len(result.findings)} {noun} in {result.files} files "
                 f"({result.suppressed} suppressed)")
    return "\n".join(lines)
