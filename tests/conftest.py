"""Shared fixtures. Session generation is deterministic, so scope=session
fixtures only amortize compute; they never couple test outcomes."""

import numpy as np
import pytest

from myotorque.preprocess import Joint
from myotorque.synthgen import default_session_spec, generate_session


@pytest.fixture(scope="session")
def knee_session():
    return generate_session(default_session_spec(Joint.KNEE))


@pytest.fixture(scope="session")
def ankle_session():
    return generate_session(default_session_spec(Joint.ANKLE))


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


# The acceptance tests append one [PASS]/[FAIL] line each; echoing them in
# the terminal summary keeps them visible despite output capture.
_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log():
    return _ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
