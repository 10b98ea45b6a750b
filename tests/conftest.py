"""Shared test plumbing: the hypothesis profile and the acceptance-criteria
summary block.

Property tests draw their examples from a fixed seed and keep no example
database, so every run of the suite tries the same inputs. Acceptance
tests report one line per criterion through record_criterion; the lines
are printed after the run so they are visible without -s.
"""
from __future__ import annotations

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

_ACCEPTANCE: dict[int, tuple[bool, str]] = {}


def record_criterion(number: int, passed: bool, detail: str) -> None:
    _ACCEPTANCE[number] = (passed, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE):
        passed, detail = _ACCEPTANCE[number]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {status} - {detail}")
