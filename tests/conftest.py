import _criteria
import pytest


@pytest.fixture(autouse=True)
def _no_cached_oracle_solves():
    """Each test solves its own problems: no unit-free solve is cached from an earlier test."""
    from mrspec import oracle

    oracle._solve_unit_free.cache_clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criteria.RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_criteria.RESULTS):
        ok, detail = _criteria.RESULTS[num]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[criterion {num}] {verdict} - {detail}")
