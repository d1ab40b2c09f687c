"""The report a source check fails with: one ``path:line: CODE message``
line per finding, so a violation seeded anywhere in ``src/repro`` names
its file and line."""

import re
import textwrap

import pytest

from tests.statics.checks import CHECKS, parse_package, report

#: code → (file inside the package, the line flagged, one violation
#: of the check).
SEEDED = {
    "RPL001": ("engine/x.py", 3, """
        def f(tracer, page):
            tracer.record("pin", page)
        """),
    "RPL003": ("workloads/x.py", 4, """
        import random
        def f():
            return random.random()
        """),
    "RPL004": ("core/x.py", 3, """
        def f(self):
            yield self.device.read(0, 1)
        """),
    "RPL005": ("faults/x.py", 5, """
        def f():
            try:
                g()
            except Exception:
                pass
        """),
    "RPL007": ("sim/x.py", 3, """
        def start(env, worker):
            env.process(worker(env))
        """),
    "RPL008": ("engine/x.py", 3, """
        def wave(env, gens):
            yield env.all_of(
                [env.process(g()) for g in gens])
        """),
    "RPL009": ("harness/x.py", 4, """
        def tick(env, interval):
            while True:
                yield env.timeout(interval)
        """),
}

#: ``path:line: CODE message``, as :func:`report` writes.
FINDING_LINE = re.compile(
    r"^(?P<path>.+):(?P<line>\d+): (?P<code>RPL\d{3}) (?P<message>.+)$")


def seed(tmp_path, code):
    """A checkout holding ``code``'s seeded violation; its repo path."""
    inside, _, source = SEEDED[code]
    path = tmp_path / "src" / "repro" / inside
    path.parent.mkdir(parents=True)
    path.write_text(textwrap.dedent(source))
    return f"src/repro/{inside}"


class TestTextFormat:
    def test_every_check_is_seeded(self):
        assert sorted(SEEDED) == sorted(CHECKS)

    @pytest.mark.parametrize("code", sorted(SEEDED))
    def test_seeded_violation_names_file_and_line(self, tmp_path, code):
        path = seed(tmp_path, code)
        (line,) = report(code, parse_package(tmp_path / "src" / "repro"))
        assert line.startswith(f"{path}:{SEEDED[code][1]}: {code} ")


class TestJsonFormat:
    """The fields the removed JSON report carried, read off a report
    line."""

    def test_schema(self, tmp_path):
        path = seed(tmp_path, "RPL001")
        (line,) = report("RPL001", parse_package(tmp_path / "src" / "repro"))
        fields = FINDING_LINE.match(line).groupdict()
        assert set(fields) == {"path", "line", "code", "message"}
        assert (fields["path"], fields["line"], fields["code"]) == (
            path, "3", "RPL001")
        assert "tracer.enabled" in fields["message"]

    def test_parse_error_reported(self, tmp_path):
        broken = tmp_path / "src" / "repro" / "engine" / "x.py"
        broken.parent.mkdir(parents=True)
        broken.write_text("def f(:\n")
        with pytest.raises(SyntaxError) as exc:
            parse_package(tmp_path / "src" / "repro")
        assert (exc.value.filename, exc.value.lineno) == (str(broken), 1)
