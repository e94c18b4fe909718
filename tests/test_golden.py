"""Kernels against the 40-digit references in golden/kernels.json.

The file is written once by golden/generate.py with mpmath; this module
reads only the JSON.
"""

import json
from decimal import Decimal
from pathlib import Path

import pytest

import conicrect
from test_kernel_bits import amplitude_map

GOLDEN = json.loads((Path(__file__).parent / "golden" / "kernels.json").read_text())

# worst relative error allowed over every case of the op
BOUNDS = {
    "complete_K": 1e-15,
    "complete_E": 5e-15,
    "incomplete_F": 5e-15,
    "incomplete_E": 5e-15,
    "amplitude_map": 1e-15,
}


@pytest.mark.parametrize("op", sorted(BOUNDS))
def test_relative_error(op):
    # amplitude_map, the walk's one amplitude step, lives test-side
    fn = amplitude_map if op == "amplitude_map" else getattr(conicrect, op)
    cases = [case for case in GOLDEN["cases"] if case["op"] == op]
    assert len(cases) >= 64
    errors = []
    for case in cases:
        ref = Decimal(case["ref"])
        err = float(abs(Decimal(fn(*case["args"])) - ref) / ref)
        errors.append((err, case["args"]))
    worst, args = max(errors)
    assert worst <= BOUNDS[op], f"{op}{tuple(args)} is {worst:.3g} off"
