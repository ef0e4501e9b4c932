"""Shared test plumbing: a derandomized hypothesis profile, so every run
of the property tests tries the same examples, and a recorder that prints
one PASS/FAIL line per acceptance criterion in the terminal summary."""

from hypothesis import settings

settings.register_profile("spnn", derandomize=True, deadline=None)
settings.load_profile("spnn")

_CRITERION_LINES: list[tuple[int, str]] = []


def record_criterion(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    _CRITERION_LINES.append((number, f"CRITERION {number}: {status} — {detail}"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for _, line in sorted(_CRITERION_LINES):
        terminalreporter.write_line(line)
