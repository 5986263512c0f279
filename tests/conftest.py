"""Fixtures shared by every test module."""

import pytest


@pytest.fixture(autouse=True)
def empty_oracle_memo(monkeypatch):
    """Give each test an empty memo of block oracle values, so a value kept
    by an earlier test, or planted by a faulty oracle, never reaches it."""
    import topoinv.invariants

    monkeypatch.setattr(topoinv.invariants, "_ORACLE_OF_SHAPE", {})
