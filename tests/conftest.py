import os
import sys

sys.path.insert(0, os.path.dirname(__file__))


def pytest_terminal_summary(terminalreporter):
    """Print the acceptance criteria's verdict lines, which output capture
    would otherwise swallow."""
    acceptance = sys.modules.get("test_acceptance")
    verdicts = getattr(acceptance, "VERDICTS", None)
    if verdicts:
        terminalreporter.section("acceptance criteria")
        for line in verdicts:
            terminalreporter.write_line(line)
