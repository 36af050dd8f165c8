"""Run the docstring examples of the modules that carry them."""

from __future__ import annotations

import doctest

import pytest

import knnlab.geom
import knnlab.sim


@pytest.mark.parametrize("module", [knnlab.sim, knnlab.geom],
                         ids=lambda m: m.__name__)
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
