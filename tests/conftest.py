import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import gelkit as gk

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


class PropertyReports:
    """The reports of each test of the property file in this session, by
    test id; empty when the session did not collect the file.  Criterion 11
    reads them."""

    FILE = "test_properties.py"

    def __init__(self):
        self.by_id: dict[str, list] = {}

    def pytest_collection_finish(self, session):
        items = [item for item in session.items if item.path.name == self.FILE]
        self.by_id = {item.nodeid: [] for item in items}

    def pytest_runtest_logreport(self, report):
        if report.nodeid in self.by_id:
            self.by_id[report.nodeid].append(report)


def pytest_configure(config):
    config.pluginmanager.register(PropertyReports(), "property-reports")


def pytest_collection_modifyitems(config, items):
    # criterion 11 reads the property file's outcomes, so it runs after them
    last = [item for item in items if item.name == "test_criterion_11_invariant_suites"]
    items[:] = [item for item in items if item not in last] + last


@pytest.fixture
def property_reports(request):
    """The in-session reports of the property file, or None when this
    session did not collect it."""
    return request.config.pluginmanager.get_plugin("property-reports").by_id or None


@pytest.fixture(scope="session")
def mult():
    return gk.multiplicative()


@pytest.fixture(scope="session")
def bidi():
    return gk.bidisperse()


@pytest.fixture(scope="session")
def kac():
    return gk.kinetic_gas()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    import sys as _sys

    mod = _sys.modules.get("test_acceptance") or _sys.modules.get(
        "tests.test_acceptance"
    )
    lines = getattr(mod, "RESULTS", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)


def assert_close(actual, expected, tol, label=""):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    err = float(np.max(np.abs(actual - expected)))
    assert err <= tol, f"{label}: |{actual} - {expected}| = {err} > {tol}"
