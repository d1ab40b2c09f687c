"""The text report: one line per finding or error, then a summary."""

import re
import textwrap

from repro.statics import Finding, check_source, format_findings_text

DIRTY = textwrap.dedent("""
    def f(tracer):
        tracer.record("x")
    """)
PATH = "src/repro/engine/x.py"


class TestTextFormat:
    def test_one_line_per_finding_plus_summary(self):
        result = check_source(DIRTY, path=PATH)
        text = format_findings_text(result)
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith(f"{PATH}:3:")
        assert "RPL001" in lines[0]
        assert lines[1] == "1 finding in 1 files (0 suppressed)"

    def test_clean_summary(self):
        result = check_source("x = 1\n", path=PATH)
        assert format_findings_text(result) == (
            "0 findings in 1 files (0 suppressed)")


#: ``path:line:col: CODE [name] message``, as :meth:`Finding.format` writes.
FINDING_LINE = re.compile(
    r"^(?P<path>.+):(?P<line>\d+):(?P<col>\d+): "
    r"(?P<code>RPL\d{3}) \[(?P<name>[^\]]+)\] (?P<message>.+)$")
SUMMARY_LINE = re.compile(
    r"^(?P<findings>\d+) findings? in (?P<files>\d+) files "
    r"\((?P<suppressed>\d+) suppressed\)$")


def parse_finding(line):
    match = FINDING_LINE.match(line)
    assert match, line
    fields = match.groupdict()
    return Finding(**{**fields, "line": int(fields["line"]),
                      "col": int(fields["col"])})


class TestJsonFormat:
    """What the removed JSON report carried, read off the text report."""

    def test_schema(self):
        result = check_source(DIRTY, path=PATH)
        *finding_lines, summary = format_findings_text(result).splitlines()
        (line,) = finding_lines
        fields = FINDING_LINE.match(line).groupdict()
        assert set(fields) == {"code", "name", "message", "path", "line",
                               "col"}
        assert fields["code"] == "RPL001"
        assert fields["path"] == PATH
        assert int(fields["line"]) == 3
        assert int(fields["col"]) >= 1
        counts = SUMMARY_LINE.match(summary).groupdict()
        assert counts == {"findings": "1", "files": "1", "suppressed": "0"}

    def test_round_trips_through_json(self):
        # Every field of every finding survives the text form.
        source = DIRTY + textwrap.dedent("""
            def g(tracer):
                tracer.instant("y")
            """)
        result = check_source(source, path=PATH)
        assert len(result.findings) == 2
        lines = format_findings_text(result).splitlines()[:-1]
        assert [parse_finding(line) for line in lines] == result.findings

    def test_parse_error_reported(self):
        result = check_source("def f(:\n", path=PATH)
        assert result.exit_code == 2
        assert result.findings == []
        error, summary = format_findings_text(result).splitlines()
        assert error.startswith(f"error: {PATH}: syntax error:")
        assert summary == "0 findings in 0 files (0 suppressed)"
