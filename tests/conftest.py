import re
from pathlib import Path

import pytest

CRITERIA = {
    1: "flow-count fidelity vs brute-force oracle",
    2: "TCP lifecycle bug-fix conformance",
    3: "conservation and cluster invariants",
    4: "labelling oracle equivalence",
    5: "end-to-end determinism",
    6: "feature-contract checks",
    7: "UNSW-NB15 day-2 reproduction (optional)",
}

_PATTERN = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")

_TESTS = Path(__file__).parent

# Any warning fails the test that raised it: a ResourceWarning (a file left
# open, closed by the garbage collector) or a DeprecationWarning as much as
# an error. The filter is a mark, so it holds for this directory only. One
# third-party warning is let through: Hypothesis, reporting a failing
# example, imports libcst, which subclasses the deprecated
# mypy_extensions.TypedDict where both are installed; as an error, it would
# end the session and lose the example.
_WARNINGS_FAIL = pytest.mark.filterwarnings(
    "error", r"ignore:mypy_extensions\.TypedDict is deprecated:DeprecationWarning:libcst")


def pytest_collection_modifyitems(items):
    for item in items:
        if _TESTS in item.path.parents:
            item.add_marker(_WARNINGS_FAIL)


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion."""
    results: dict[int, str] = {}
    for outcome in ("passed", "failed", "error", "skipped"):
        for report in terminalreporter.stats.get(outcome, []):
            match = _PATTERN.search(getattr(report, "nodeid", ""))
            if not match:
                continue
            num = int(match.group(1))
            verdict = {"passed": "PASS", "skipped": "SKIP"}.get(outcome, "FAIL")
            # A criterion split over several tests fails if any part fails.
            if results.get(num) != "FAIL":
                results[num] = verdict
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(CRITERIA):
        verdict = results.get(num, "NOT RUN")
        terminalreporter.write_line(f"criterion {num} ({CRITERIA[num]}): {verdict}")
