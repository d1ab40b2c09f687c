"""Every code name the prose docs cite in backticks still exists.

Three shapes are checked in README.md, DESIGN.md, EXPERIMENTS.md and
CONTRIBUTING.md:

* ``Class.member`` — a class of ``repro`` whose member is defined on it
  or a base class: an attribute, a dataclass field, or a ``self.member``
  its methods assign;
* ``repro.module[.name]`` — the longest importable module, then
  attributes;
* ``path.py[:name]`` or ``path.py::name`` — a file of the repo (a bare
  file name is looked up anywhere in it), then a dotted name defined
  in that file, or a line number it has.

A trailing call, ``f(args)``, is dropped before resolving.  A rename
or a deletion that leaves a doc behind fails here, in the change that
made it.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from functools import lru_cache
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[2]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "CONTRIBUTING.md")
#: Where a bare file name or a path relative to the package may live.
PATH_BASES = (ROOT, ROOT / "src", ROOT / "src" / "repro")
TREES = ("src", "tests", "perf", "tools", "benchmarks", "examples")

BACKTICKED = re.compile(r"`([^`\n]+)`")
CALL = re.compile(r"\(.*\)$")
CLASS_MEMBER = re.compile(r"_?[A-Z]\w*[a-z]\w*\.\w+")
MODULE_NAME = re.compile(r"repro(\.\w+)+")
PATH_NAME = re.compile(r"(?:python )?([\w./-]+\.py)(?:::?([\w.:]+))?(?: .*)?")


def references(text):
    """``(kind, reference)`` for each backticked code name in ``text``."""
    for token in BACKTICKED.findall(text):
        name = CALL.sub("", token.strip())
        for kind, shape in (("class", CLASS_MEMBER),
                            ("module", MODULE_NAME), ("path", PATH_NAME)):
            if shape.fullmatch(name):
                yield kind, name
                break


@lru_cache(maxsize=None)
def classes():
    """Class name -> the classes of that name defined in ``repro``."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue                # importing it runs the command line
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if (inspect.isclass(value)
                    and value.__module__ == info.name):
                found.setdefault(value.__name__, []).append(value)
    return found


def _assigned_on_self(cls):
    """Names ``self.<name> = ...`` sets anywhere in ``cls``'s body."""
    try:
        tree = ast.parse(inspect.getsource(cls).lstrip())
    except (OSError, TypeError):
        return set()
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"}


def _has_member(cls, member):
    if hasattr(cls, member) or member in getattr(
            cls, "__dataclass_fields__", {}):
        return True
    return any(member in _assigned_on_self(base)
               for base in cls.__mro__
               if base.__module__.startswith("repro"))


def _resolves_class(name):
    owner, member = name.split(".")
    return any(_has_member(cls, member) for cls in classes().get(owner, ()))


def _resolves_module(name):
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            value = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(value, attr):
                return False
            value = getattr(value, attr)
        return True
    return False


def _files(path):
    if "/" not in path:
        return [found for tree in TREES
                for found in (ROOT / tree).rglob(path)]
    return [base / path for base in PATH_BASES if (base / path).is_file()]


def _defines(tree, dotted):
    """Whether the module ``tree`` defines ``dotted`` (``A.b``, ``A::b``)."""
    body = tree.body
    for part in re.split(r"::|\.", dotted):
        named = [node for node in body if part in _names(node)]
        if not named:
            return False
        body = getattr(named[0], "body", [])
    return True


def _names(node):
    if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                         ast.AsyncFunctionDef)):
        return {node.name}
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign)
               else [])
    return {target.id for target in targets if isinstance(target, ast.Name)}


def _resolves_path(name):
    path, inner = PATH_NAME.fullmatch(name).groups()
    files = _files(path)
    if not files or inner is None:
        return bool(files)
    text = files[0].read_text()
    if inner.isdigit():
        return 1 <= int(inner) <= text.count("\n") + 1
    return _defines(ast.parse(text), inner)


RESOLVERS = {"class": _resolves_class, "module": _resolves_module,
             "path": _resolves_path}


def stale(text):
    """The references in ``text`` that resolve to nothing."""
    return sorted({name for kind, name in references(text)
                   if not RESOLVERS[kind](name)})


@pytest.mark.parametrize("doc", DOCS)
def test_every_cited_name_resolves(doc):
    text = (ROOT / doc).read_text()
    assert len(list(references(text))) > 0
    assert stale(text) == []


def test_a_stale_name_of_each_shape_fails():
    seeded = ("`Device.submit` is inherited and `Ssd._finish` too; "
              "`SsdManagerBase._disk_write`, `DeviceBase.read(address)`, "
              "`repro.storage.request.IoKind.of`, `repro.storage.gone`, "
              "`core/ssd_manager.py:_disk_write`, `core/missing.py`, "
              "`tests/engine/test_retry_pins.py::TestGone`, "
              "`repro.core.ssd_manager.SsdManagerBase._ssd_io`, "
              "`tests/engine/test_retry_pins.py::TestSsdResubmits`, "
              "`SsdRead.request` and `RunSpec.kind` resolve.")
    assert stale(seeded) == [
        "DeviceBase.read", "SsdManagerBase._disk_write",
        "core/missing.py", "core/ssd_manager.py:_disk_write",
        "repro.storage.gone", "repro.storage.request.IoKind.of",
        "tests/engine/test_retry_pins.py::TestGone"]
