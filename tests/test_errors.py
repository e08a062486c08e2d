"""The one gate rule: errors.gate raises by passes and names the value and
the tolerance; and json_number, the rule of every number field of a file or
config."""

import math

import numpy as np
import pytest

from cocyclelab.errors import NotUnit, gate, json_number


def test_gate_passes_at_the_tolerance():
    gate(1e-6, 1e-6, NotUnit, "residual")
    gate(0.0, 1e-6, NotUnit, "residual")


@pytest.mark.parametrize("value", [math.nextafter(1e-6, 1.0), math.nan, math.inf])
def test_gate_raises_the_given_class_and_names_value_and_tolerance(value):
    with pytest.raises(NotUnit) as info:
        gate(value, 1e-6, NotUnit, "some residual", " at t=1.0000")
    assert str(info.value) == f"some residual {value:.3e} exceeds 1.0e-06 at t=1.0000"


@pytest.mark.parametrize("value", [True, "1", "1.5", None, [1.0]])
def test_json_number_refuses_what_float_would_read(value):
    with pytest.raises(ValueError, match="lx must be a JSON number"):
        json_number(value, "lx")


def test_json_number_reads_finite_numbers_as_floats():
    for value in (2, 0.5, np.float64(0.25), -0.0):
        got = json_number(value, "lx")
        assert type(got) is float and got == value
    assert math.copysign(1.0, json_number(-0.0, "lx")) == -1.0
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="non-finite lx"):
            json_number(value, "lx")
