"""Fixtures shared by the test modules."""

import pytest

from beckring import dsl, graphs
from beckring.graphs import HeldTable


@pytest.fixture
def empty_factor_table(monkeypatch):
    """An empty table of held factors (`dsl.held_factor`) for one test, so
    that every factor it meets is built and solved within it; the process's
    own table comes back afterwards."""
    table = HeldTable()
    monkeypatch.setattr(dsl, "_factors", table)
    return table


@pytest.fixture(autouse=True)
def empty_core_table(monkeypatch):
    """An empty table of cores (`graphs._cores`) for every test, as a fresh
    process starts with, so that each core a test builds is searched within
    it; the process's own table comes back afterwards."""
    table = HeldTable()
    monkeypatch.setattr(graphs, "_cores", table)
    return table
