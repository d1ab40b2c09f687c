"""The rule engine behind ``repro lint``.

A :class:`Rule` inspects one parsed module at a time (with an optional
cross-module *collect* pass first) and yields :class:`Finding` records.
The engine owns everything rule-agnostic: discovering files, parsing,
building parent links, ``# repro: noqa[RPL0xx]`` suppression, rule
selection from ``pyproject.toml``, and the text/JSON output formats.

Rules register themselves via the :func:`rule` class decorator; the
registry is keyed by the stable ``RPL0xx`` code so configuration and
suppressions survive renames.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import re
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

#: JSON output schema version (bump on breaking changes to the format).
JSON_SCHEMA_VERSION = 1

#: ``# repro: noqa`` or ``# repro: noqa[RPL001]`` / ``[RPL001,RPL005]``.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Z0-9,\s]+)\])?", re.IGNORECASE)

_CODE_RE = re.compile(r"^RPL\d{3}$")


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    code: str
    name: str
    message: str
    path: str
    line: int
    col: int

    def to_dict(self) -> Dict[str, object]:
        """The JSON-output row for this finding."""
        return {"code": self.code, "name": self.name,
                "message": self.message, "path": self.path,
                "line": self.line, "col": self.col}

    def format(self) -> str:
        """The one-line text form: ``path:line:col: CODE [name] message``."""
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.code} [{self.name}] {self.message}")


class ModuleInfo:
    """One parsed source file plus the lookups rules need."""

    def __init__(self, path: str, source: str):
        self.path = path
        #: Forward-slash path, for rule scoping regardless of platform.
        self.posix = path.replace("\\", "/")
        self.source = source
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
        """Whether this module falls under any of the path ``prefixes``.

        A prefix like ``"repro/engine/"`` matches as a path segment
        sequence anywhere in the file's path, so both
        ``src/repro/engine/wal.py`` and a test fixture named
        ``fixtures/repro/engine/x.py`` are in scope.  A prefix ending in
        ``.py`` matches as a path suffix.
        """
        padded = "/" + self.posix
        for prefix in prefixes:
            if prefix.endswith(".py"):
                if padded.endswith("/" + prefix.lstrip("/")):
                    return True
            elif "/" + prefix.lstrip("/") in padded:
                return True
        return False


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


# ----------------------------------------------------------------------
# Rules and the registry
# ----------------------------------------------------------------------

class Rule:
    """Base class: one invariant, one stable code.

    Subclasses set :attr:`code`, :attr:`name`, :attr:`description`, and
    the :attr:`paths` scope (empty = every linted file), then
    implement :meth:`check`.  Rules needing cross-module context (e.g.
    subclass closures) also implement :meth:`collect`, which the engine
    calls for *every* module before any :meth:`check` call.
    """

    code: str = ""
    name: str = ""
    description: str = ""
    #: Path prefixes this rule applies to (see :meth:`ModuleInfo.in_scope`).
    paths: Sequence[str] = ()

    def applies_to(self, module: ModuleInfo) -> bool:
        """Whether :meth:`check` should run on ``module``."""
        if not self.paths:
            return True
        return module.in_scope(self.paths)

    def collect(self, module: ModuleInfo) -> None:
        """Cross-module pre-pass (called for every module, in order)."""

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        """Yield findings for one module."""
        raise NotImplementedError

    def finding(self, module: ModuleInfo, node: ast.AST,
                message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(code=self.code, name=self.name, message=message,
                       path=module.path, line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0) + 1)


_REGISTRY: Dict[str, Type[Rule]] = {}


def rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator registering a rule under its ``RPL0xx`` code."""
    if not _CODE_RE.match(cls.code):
        raise ValueError(f"rule {cls.__name__} has invalid code "
                         f"{cls.code!r} (want RPL0xx)")
    if cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    _REGISTRY[cls.code] = cls
    return cls


def all_rules() -> Dict[str, Type[Rule]]:
    """The registry, importing the built-in rules on first use."""
    import repro.statics.rules  # noqa: F401  (registration side effect)
    return dict(_REGISTRY)


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------

@dataclasses.dataclass
class LintConfig:
    """Effective lint configuration (defaults + ``pyproject.toml``).

    ``select`` limits the run to the listed codes (None = all
    registered); ``ignore`` then removes codes; ``exclude`` drops files
    whose path contains any of the given fragments.  A rule's scope and
    settings are its own class attributes.
    """

    select: Optional[Tuple[str, ...]] = None
    ignore: Tuple[str, ...] = ()
    exclude: Tuple[str, ...] = ("/.git/", "/.repro-cache/", "/build/")

    def enabled_codes(self) -> List[str]:
        """The codes this configuration runs, in code order."""
        codes = sorted(all_rules())
        if self.select is not None:
            wanted = set(self.select)
            codes = [code for code in codes if code in wanted]
        ignored = set(self.ignore)
        return [code for code in codes if code not in ignored]

    def excludes(self, path: str) -> bool:
        """Whether ``path`` is excluded from linting entirely."""
        padded = "/" + path.replace("\\", "/")
        return any(fragment in padded for fragment in self.exclude)

    def build_rules(self) -> List[Rule]:
        """Instantiate the enabled rules."""
        registry = all_rules()
        return [registry[code]() for code in self.enabled_codes()]


def load_config(root: Optional[Path] = None) -> LintConfig:
    """Read ``[tool.repro.lint]`` from ``pyproject.toml`` if possible.

    Falls back to the built-in defaults when the file (or ``tomllib``,
    absent before Python 3.11) is unavailable — the committed pyproject
    block sets nothing, so older interpreters lint identically.
    """
    config = LintConfig()
    if root is None:
        root = Path.cwd()
    pyproject = Path(root) / "pyproject.toml"
    if not pyproject.is_file():
        return config
    try:
        import tomllib
    except ImportError:  # Python < 3.11
        return config
    try:
        with open(pyproject, "rb") as handle:
            data = tomllib.load(handle)
    except (OSError, ValueError):
        return config
    table = data.get("tool", {}).get("repro", {}).get("lint", {})
    if not isinstance(table, dict):
        return config
    if "select" in table:
        config.select = tuple(str(c) for c in table["select"])
    if "ignore" in table:
        config.ignore = tuple(str(c) for c in table["ignore"])
    if "exclude" in table:
        config.exclude = tuple(str(c) for c in table["exclude"])
    return config


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------

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


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------

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


def _iter_files(paths: Iterable[str], config: LintConfig) -> List[str]:
    out: List[str] = []
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            found = sorted(str(p) for p in path.rglob("*.py"))
        else:
            found = [str(path)]
        for name in found:
            if not config.excludes(name):
                out.append(name)
    return out


def _run_rules(modules: List[ModuleInfo], config: LintConfig,
               result: LintResult) -> None:
    rules = config.build_rules()
    for module in modules:
        for rule_obj in rules:
            rule_obj.collect(module)
    for module in modules:
        suppressions = noqa_codes(module.lines)
        for rule_obj in rules:
            if not rule_obj.applies_to(module):
                continue
            for finding in rule_obj.check(module):
                if _suppressed(finding, suppressions):
                    result.suppressed += 1
                else:
                    result.findings.append(finding)
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))


def check_paths(paths: Iterable[str],
                config: Optional[LintConfig] = None) -> LintResult:
    """Lint files and directories; directories are walked for ``*.py``."""
    config = config if config is not None else load_config()
    result = LintResult()
    modules: List[ModuleInfo] = []
    for name in _iter_files(paths, config):
        try:
            source = Path(name).read_text(encoding="utf-8")
            modules.append(ModuleInfo(name, source))
        except OSError as exc:
            result.errors.append(f"{name}: {exc}")
            continue
        except SyntaxError as exc:
            result.errors.append(f"{name}: syntax error: {exc.msg} "
                                 f"(line {exc.lineno})")
            continue
        result.files += 1
    _run_rules(modules, config, result)
    return result


def check_source(source: str, path: str = "<string>",
                 config: Optional[LintConfig] = None) -> LintResult:
    """Lint one in-memory source string (the fixture-test entry point)."""
    config = config if config is not None else LintConfig()
    result = LintResult()
    try:
        modules = [ModuleInfo(path, source)]
    except SyntaxError as exc:
        result.errors.append(f"{path}: syntax error: {exc.msg} "
                             f"(line {exc.lineno})")
        return result
    result.files = 1
    _run_rules(modules, config, result)
    return result


# ----------------------------------------------------------------------
# Output formats
# ----------------------------------------------------------------------

def format_findings_text(result: LintResult) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [finding.format() for finding in result.findings]
    lines.extend(f"error: {message}" for message in result.errors)
    noun = "finding" if len(result.findings) == 1 else "findings"
    lines.append(f"{len(result.findings)} {noun} in {result.files} files "
                 f"({result.suppressed} suppressed)")
    return "\n".join(lines)


def format_findings_json(result: LintResult) -> str:
    """Machine-readable report (schema pinned by JSON_SCHEMA_VERSION)."""
    by_code: Dict[str, int] = {}
    for finding in result.findings:
        by_code[finding.code] = by_code.get(finding.code, 0) + 1
    doc = {
        "version": JSON_SCHEMA_VERSION,
        "findings": [finding.to_dict() for finding in result.findings],
        "errors": list(result.errors),
        "summary": {
            "files": result.files,
            "findings": len(result.findings),
            "suppressed": result.suppressed,
            "by_code": by_code,
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True)
