"""Acceptance gate: every criterion at its stated tolerance and budget.

One pass/fail line prints per criterion (run with ``pytest -s`` to see
them); criterion functions live in gramclust.acceptance so the CLI
selftest exercises exactly the same checks.
"""

import pytest

from gramclust.acceptance import ALL_CRITERIA, CriterionResult, Shared


@pytest.fixture(scope="module")
def shared():
    return Shared()


@pytest.mark.parametrize("criterion", ALL_CRITERIA, ids=lambda fn: fn.__name__)
def test_criterion(criterion, shared):
    result = criterion(shared)
    print(result.summary())
    for warning in result.warnings:
        print(f"  warning: {warning}")
    failing = [row for row in result.rows if not row.get("ok")]
    assert result.passed, (
        f"{result.name}: {len(failing)} failing checks; first: "
        f"{failing[0] if failing else 'budget exceeded'}"
    )


@pytest.mark.parametrize(
    "oks, elapsed, passed",
    [((True, True), 1.0, True), ((True, False), 1.0, False),
     ((True, True), 30.5, False), ((), 30.0, True)],
)
def test_passed_needs_every_row_and_the_budget(oks, elapsed, passed):
    rows = [{"check": str(i), "measured": 0, "expected": 0, "ok": ok}
            for i, ok in enumerate(oks)]
    assert CriterionResult("c", elapsed, 30, rows).passed is passed
