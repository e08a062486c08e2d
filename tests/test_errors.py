"""The one gate rule: errors.gate raises by passes and names the value and
the tolerance."""

import math

import pytest

from cocyclelab.errors import NotUnit, gate


def test_gate_passes_at_the_tolerance():
    gate(1e-6, 1e-6, NotUnit, "residual")
    gate(0.0, 1e-6, NotUnit, "residual")


@pytest.mark.parametrize("value", [math.nextafter(1e-6, 1.0), math.nan, math.inf])
def test_gate_raises_the_given_class_and_names_value_and_tolerance(value):
    with pytest.raises(NotUnit) as info:
        gate(value, 1e-6, NotUnit, "some residual", " at t=1.0000")
    assert str(info.value) == f"some residual {value:.3e} exceeds 1.0e-06 at t=1.0000"
