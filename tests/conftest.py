"""Fixtures every test uses."""

import pytest

import modbalance.oracle


@pytest.fixture(autouse=True)
def empty_oracle_stage():
    """Start each test with no oracle stage held, so a test that replaces
    ``halfspace_scores`` sees its own scorer run, not scores an earlier test
    left in the slot."""
    modbalance.oracle._held = None
