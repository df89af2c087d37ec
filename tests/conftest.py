"""Session fixtures: one run of the reachability traffic, and the
``banter verify`` run it makes.

``test_reachability.py`` reads the code the traffic entered. The verify
tests read its verify run, so the 12 checks run once per session.
"""

import pytest

import traffic as traffic_runs


@pytest.fixture(scope="session")
def traffic(tmp_path_factory):
    """``traffic.py``'s document for every run, made in a fresh process."""
    return traffic_runs.launch(tmp_path_factory.mktemp("traffic"))


@pytest.fixture(scope="session")
def pristine(traffic):
    """``banter verify`` on the clean build, made under the traffic's call
    hook: its exit ``code``, printed ``listing`` and ``seconds``."""
    return traffic["verify"]
