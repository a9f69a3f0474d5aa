"""Drift guard for the live characterization surfaces.

Every delay, leakage and energy figure the simulator uses comes out of
:func:`repro.bus.characterization.characterize_bus`.  This test pins, to the
last bit, every table the stock experiments can ask for: the five standard
PVT corners plus the two regulator-floor corners that ``DVSBusSystem`` probes,
the three bus widths the encoder set produces (32 signal wires, 33 for
bus-invert, 36 for bus-invert/8) and the coupling multipliers of the Section 6
modified-bus sweep.  Any change to the circuit, interconnect or repeater
models that moves one of those floats changes the digest.

The digest was recorded against the surfaces of the characterization
database artifact this test replaced (``chardb/paper.chardb``), which held
the same 105 tables bit for bit.
"""

import hashlib

import numpy as np

from repro.bus import BusDesign
from repro.bus.characterization import characterize_bus, default_voltage_grid
from repro.circuit.pvt import STANDARD_CORNERS, PVTCorner, ProcessCorner
from repro.encoding.analysis import design_for_width

CORNERS = tuple(corner for _, corner in sorted(STANDARD_CORNERS.items())) + (
    PVTCorner(ProcessCorner.TYPICAL, 100.0, 0.10),
    PVTCorner(ProcessCorner.FAST, 100.0, 0.10),
)
WIDTHS = (32, 33, 36)
COUPLING_SCALES = (1.0, 1.25, 1.5, 1.95, 2.5)

GOLDEN_DIGEST = "a6949d3165e21c81aa4006085162628d92095b6bf2dfa5e378dd4c1850c930d0"


def _design(n_bits: int, coupling_scale: float) -> BusDesign:
    """The design a sweep point denotes, built the way the runtime tasks build it."""
    design = design_for_width(BusDesign.paper_bus(), n_bits)
    if coupling_scale != 1.0:
        design = design.with_modified_coupling(coupling_scale)
    return design


def _update(digest, *floats: float) -> None:
    digest.update(" ".join(float(value).hex() for value in floats).encode("ascii") + b"\n")


def characterization_digest() -> str:
    """SHA-256 over every table of the grid, in a fixed order."""
    digest = hashlib.sha256()
    for n_bits in WIDTHS:
        for coupling_scale in COUPLING_SCALES:
            design = _design(n_bits, coupling_scale)
            chain = design.repeaters
            digest.update(f"{n_bits} {coupling_scale} {chain.n_segments}\n".encode("ascii"))
            _update(digest, chain.size, chain.receiver_capacitance)
            grid = default_voltage_grid(design)
            for corner in CORNERS:
                table = characterize_bus(design, corner, grid)
                digest.update(f"{corner.label}\n".encode("ascii"))
                _update(digest, grid.v_min, grid.v_max, grid.step)
                for surface in (table.base_delay, table.coupling_delay, table.leakage_power):
                    digest.update(np.ascontiguousarray(surface, dtype="<f8").tobytes())
                _update(
                    digest,
                    table.self_capacitance_per_wire,
                    table.coupling_capacitance_per_pair,
                )
    return digest.hexdigest()


def test_live_surfaces_match_golden_digest():
    assert characterization_digest() == GOLDEN_DIGEST
