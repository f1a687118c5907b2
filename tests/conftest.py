from __future__ import annotations

import pytest

from genboot.automata import dfg_to_dfa
from genboot.formats import bundled_path, read_dfg, read_log


@pytest.fixture(scope="session")
def model_dfg():
    return read_dfg(bundled_path("model.dfg"))


@pytest.fixture(scope="session")
def system_dfg():
    return read_dfg(bundled_path("system.dfg"))


@pytest.fixture(scope="session")
def observed_log():
    return read_log(bundled_path("observed.log"))


@pytest.fixture(scope="session")
def model_dfa(model_dfg):
    return dfg_to_dfa(model_dfg)


@pytest.fixture(scope="session")
def system_dfa(system_dfg):
    return dfg_to_dfa(system_dfg)
