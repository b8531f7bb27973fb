"""Shared test configuration.

Registers a hypothesis profile without per-example deadlines: several
property tests build whole simulated universes per example, and their
wall-clock time varies with machine load, not with input size.

Also registers the ``--update-golden`` flag used by the golden-file
regression suite in ``tests/golden/`` and by the scheduler's golden
journals (``tests/netsim/test_sched_golden.py``): run
``pytest tests/golden --update-golden`` to rewrite the pinned JSON
files after an intentional behaviour change, then commit the diff.
"""

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the golden files in tests/golden/ and "
        "tests/netsim/sched_golden.json from the current code instead of "
        "asserting against them",
    )


@pytest.fixture
def update_golden(request):
    """True when the run should rewrite golden files rather than
    compare against them."""
    return request.config.getoption("--update-golden")
