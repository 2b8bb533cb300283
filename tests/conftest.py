"""Shared pytest hooks.

The acceptance tests double as a release gate, so their outcomes are echoed
as one line per criterion in the terminal summary regardless of verbosity,
each with the figure its test printed (``criterion 10: 100/100 ...``), so a
narrowing margin shows under ``-q`` too.
"""
import re

CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")


def _figure(report, number: int) -> str:
    """The text after ``criterion <number>:`` in the test's captured stdout, or ''."""
    line = re.search(rf"^criterion {number}: (.*)$", report.capstdout, re.MULTILINE)
    return f" ({line.group(1)})" if line else ""


def pytest_terminal_summary(terminalreporter):
    seen = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, ()):
            match = CRITERION.search(getattr(report, "nodeid", ""))
            if match:
                number = int(match.group(1))
                label = match.group(2)
                verdict = "PASS" if status == "passed" else "FAIL"
                seen[number] = (label, verdict + _figure(report, number))
    if not seen:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(seen):
        label, verdict = seen[number]
        terminalreporter.write_line(f"criterion {number:2d} {label}: {verdict}")
