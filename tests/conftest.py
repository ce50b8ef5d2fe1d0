import numpy as np
import pytest

from randx import catalog
from randx.devicemodel import Device, make_device
from randx.matcore import dagger, haar_unitary


def haar_rotated(d: Device, rng: np.random.Generator) -> Device:
    """A dense copy of a device without block structure: its state,
    projectors and unitaries conjugated by one Haar unitary V."""
    v = haar_unitary(d.dim, rng)

    def rot(m):
        return v @ m @ dagger(v)

    return make_device(
        d.kind, d.dims, rot(d.state),
        {a: {x: rot(p) for x, p in outs.items()} for a, outs in d.measurements.items()},
        unitaries={a: rot(u) for a, u in d.unitaries.items()},
        input_alphabet=d.input_alphabet, output_alphabet=d.output_alphabet,
    )


@pytest.fixture(scope="session")
def combined_and_rotated():
    """Magic-square ``combined`` (88 blocks) and a Haar-rotated copy (one dense block)."""
    d = catalog.magic_square().devices["combined"]
    return d, haar_rotated(d, np.random.default_rng(2024))
