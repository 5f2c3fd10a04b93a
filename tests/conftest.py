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

# A file left open (and so closed by the garbage collector) fails the test
# that left it; the filters are marks, so they hold for this directory only.
_UNCLOSED_FILES_FAIL = (
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
)


def pytest_collection_modifyitems(items):
    for item in items:
        if _TESTS in item.path.parents:
            for mark in _UNCLOSED_FILES_FAIL:
                item.add_marker(mark)


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
