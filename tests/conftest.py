"""Shared fixtures.

The session-scoped cache dict is threaded through the table builders and
verification suites so the expensive optimizer cells (joint 2-/3-bit runs,
Table I rows, the joint cells of Table V's Newton solves) are computed once
per test session no matter how many modules touch them.
"""

import pytest


@pytest.fixture(scope="session")
def cell_cache():
    return {}
