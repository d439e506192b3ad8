"""Fixtures shared by the test modules."""

from math import fsum

import pytest

import spmvlab.exact


@pytest.fixture
def fsum_calls(monkeypatch):
    """Count the kernels' ``fsum`` fallbacks."""
    calls = []

    def counting(terms):
        calls.append(1)
        return fsum(terms)
    monkeypatch.setattr(spmvlab.exact, "fsum", counting)
    return calls
