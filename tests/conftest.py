"""Fixtures shared by the test modules."""

import pytest

from beckring import dsl


@pytest.fixture
def empty_factor_table(monkeypatch):
    """An empty table of held factors (`dsl.held_factor`) for one test, so
    that every factor it meets is built and solved within it; the process's
    own table comes back afterwards."""
    table = {}
    monkeypatch.setattr(dsl, "_factors", table)
    return table
