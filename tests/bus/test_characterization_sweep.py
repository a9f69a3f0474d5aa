"""Invariants of every live characterization table the experiments use.

:mod:`tests.bus.test_characterization_golden` pins the same sweep (seven
corners, widths 32/33/36, five coupling multipliers) to the last bit.  These
tests state what must hold of those tables whatever their exact values: a
deliberate model change that moves the digest still has to keep them.
"""

import numpy as np
import pytest

from repro.bus import BusDesign, CharacterizedBus
from repro.bus.characterization import characterize_bus, default_voltage_grid
from repro.circuit.lookup_table import VoltageGrid
from repro.circuit.pvt import STANDARD_CORNERS, PVTCorner
from repro.core.dvs_system import DVSBusSystem

from .test_characterization_golden import CORNERS, COUPLING_SCALES, WIDTHS, _design

DESIGNS = [
    (n_bits, coupling_scale) for n_bits in WIDTHS for coupling_scale in COUPLING_SCALES
]


def _corner_id(corner: PVTCorner) -> str:
    return corner.label


def _tables(corner: PVTCorner):
    """``(n_bits, coupling_scale, design, table)`` for every design at ``corner``."""
    for n_bits, coupling_scale in DESIGNS:
        design = _design(n_bits, coupling_scale)
        yield n_bits, coupling_scale, design, characterize_bus(design, corner)


def _worst_delay(table, design: BusDesign) -> np.ndarray:
    return table.base_delay + design.topology.max_coupling_factor * table.coupling_delay


class TestEveryCorner:
    @pytest.mark.parametrize("corner", CORNERS, ids=_corner_id)
    def test_characterization_is_deterministic(self, corner):
        for n_bits, coupling_scale, design, table in _tables(corner):
            again = characterize_bus(design, corner)
            where = (n_bits, coupling_scale)
            assert np.array_equal(table.base_delay, again.base_delay), where
            assert np.array_equal(table.coupling_delay, again.coupling_delay), where
            assert np.array_equal(table.leakage_power, again.leakage_power), where
            assert table.self_capacitance_per_wire == again.self_capacitance_per_wire, where
            assert (
                table.coupling_capacitance_per_pair == again.coupling_capacitance_per_pair
            ), where
            assert table.metadata == again.metadata, where

    @pytest.mark.parametrize("corner", CORNERS, ids=_corner_id)
    def test_surfaces_are_finite_and_positive(self, corner):
        for n_bits, coupling_scale, _, table in _tables(corner):
            for surface in (table.base_delay, table.coupling_delay, table.leakage_power):
                assert np.all(np.isfinite(surface)), (n_bits, coupling_scale)
                assert np.all(surface > 0.0), (n_bits, coupling_scale)

    @pytest.mark.parametrize("corner", CORNERS, ids=_corner_id)
    def test_worst_case_delay_falls_as_supply_rises(self, corner):
        for n_bits, coupling_scale, design, table in _tables(corner):
            assert np.all(np.diff(_worst_delay(table, design)) < 0.0), (n_bits, coupling_scale)

    @pytest.mark.parametrize("corner", CORNERS, ids=_corner_id)
    def test_leakage_rises_with_supply(self, corner):
        for n_bits, coupling_scale, _, table in _tables(corner):
            assert np.all(np.diff(table.leakage_power) > 0.0), (n_bits, coupling_scale)

    @pytest.mark.parametrize("corner", CORNERS, ids=_corner_id)
    def test_characterized_bus_holds_the_live_table(self, corner):
        design = BusDesign.paper_bus()
        bus = CharacterizedBus(design, corner)
        live = characterize_bus(design, corner, default_voltage_grid(design))
        assert bus.grid == live.grid
        assert np.array_equal(bus.table.base_delay, live.base_delay)
        assert np.array_equal(bus.table.coupling_delay, live.coupling_delay)
        assert np.array_equal(bus.table.leakage_power, live.leakage_power)
        assert bus.zero_error_voltage() == live.min_voltage_meeting(
            design.clocking.main_deadline, design.topology.max_coupling_factor
        )


class TestModifiedCoupling:
    """Section 6: a higher Cc/Cg at constant worst-case load, repeaters unchanged."""

    @pytest.mark.parametrize("coupling_scale", [s for s in COUPLING_SCALES if s != 1.0])
    def test_worst_case_delay_and_leakage_are_unchanged(self, coupling_scale):
        for n_bits in WIDTHS:
            baseline = _design(n_bits, 1.0)
            modified = _design(n_bits, coupling_scale)
            for corner in CORNERS:
                reference = characterize_bus(baseline, corner)
                table = characterize_bus(modified, corner)
                np.testing.assert_allclose(
                    _worst_delay(table, modified),
                    _worst_delay(reference, baseline),
                    rtol=1e-12,
                    err_msg=f"{n_bits} bits at {corner.label}",
                )
                assert np.array_equal(table.leakage_power, reference.leakage_power)

    def test_higher_multiplier_moves_delay_and_energy_into_coupling(self):
        for n_bits in WIDTHS:
            for corner in CORNERS:
                tables = [
                    characterize_bus(_design(n_bits, scale), corner) for scale in COUPLING_SCALES
                ]
                for lower, higher in zip(tables, tables[1:]):
                    where = (n_bits, corner.label)
                    assert np.all(higher.coupling_delay > lower.coupling_delay), where
                    assert np.all(higher.base_delay < lower.base_delay), where
                    assert (
                        higher.coupling_capacitance_per_pair
                        > lower.coupling_capacitance_per_pair
                    ), where
                    assert higher.self_capacitance_per_wire < lower.self_capacitance_per_wire, where


def test_energy_capacitances_do_not_depend_on_the_corner():
    for n_bits, coupling_scale in DESIGNS:
        design = _design(n_bits, coupling_scale)
        for corner in CORNERS:
            table = characterize_bus(design, corner)
            assert table.self_capacitance_per_wire == design.wire_self_capacitance()
            assert table.coupling_capacitance_per_pair == design.pair_coupling_capacitance()


class TestSuppliedTable:
    def test_table_on_the_bus_grid_is_used_as_is(self, typical_corner_bus):
        design = typical_corner_bus.design
        bus = CharacterizedBus(design, typical_corner_bus.corner, table=typical_corner_bus.table)
        assert bus.table is typical_corner_bus.table

    def test_table_on_another_grid_is_rejected(self, typical_corner_bus):
        design = typical_corner_bus.design
        coarse = VoltageGrid(v_min=0.6, v_max=design.nominal_vdd, step=0.04)
        table = characterize_bus(design, typical_corner_bus.corner, coarse)
        with pytest.raises(ValueError, match="not the bus grid"):
            CharacterizedBus(design, typical_corner_bus.corner, table=table)


@pytest.mark.parametrize("index", sorted(STANDARD_CORNERS))
def test_regulator_floor_is_characterized_live_at_the_assumed_corner(index):
    """The floor assumes worst-case temperature and IR drop for the bus's process."""
    corner = STANDARD_CORNERS[index]
    design = BusDesign.paper_bus()
    bus = CharacterizedBus(design, corner)
    system = DVSBusSystem(bus, window_cycles=1000, ramp_delay_cycles=300)
    assumed = PVTCorner(corner.process, 100.0, 0.10)
    floor = characterize_bus(design, assumed, bus.grid).min_voltage_meeting(
        design.clocking.shadow_deadline, design.topology.max_coupling_factor
    )
    assert system.v_floor == bus.grid.snap(max(floor, bus.grid.v_min))
    assert system.v_floor >= bus.minimum_safe_voltage()
