"""Bus characterisation: the HSPICE-tabulation substitute.

The paper tabulates delay, dynamic energy and leakage of the bus with HSPICE
"for individual supply voltages (in increments of 20 mV) over a range of
supply voltages and also for different combinations of process corner and
temperature".  :func:`characterize_bus` performs the same step with the
analytical models of :mod:`repro.circuit` and :mod:`repro.interconnect`,
producing a :class:`~repro.circuit.lookup_table.DelayEnergyTable` per corner.
"""

from __future__ import annotations


import numpy as np

from repro.bus.bus_design import BusDesign
from repro.circuit.lookup_table import DEFAULT_VOLTAGE_STEP, DelayEnergyTable, VoltageGrid
from repro.circuit.pvt import PVTCorner

#: Default lowest tabulated supply voltage (well below any useful operating point).
DEFAULT_MIN_VOLTAGE = 0.60


def default_voltage_grid(design: BusDesign, v_min: float = DEFAULT_MIN_VOLTAGE) -> VoltageGrid:
    """The 20 mV grid from ``v_min`` up to the technology's nominal supply."""
    return VoltageGrid(v_min=v_min, v_max=design.nominal_vdd, step=DEFAULT_VOLTAGE_STEP)


def characterize_bus(
    design: BusDesign,
    corner: PVTCorner,
    grid: VoltageGrid | None = None,
) -> DelayEnergyTable:
    """Tabulate bus delay coefficients, leakage and energy data for one corner.

    Parameters
    ----------
    design:
        The bus to characterise (including its sized repeaters).
    corner:
        The PVT corner to characterise at.  The corner's IR droop is applied
        to the repeater supply when computing delay and leakage, exactly as
        the paper does for its "10 % IR drop" corners.
    grid:
        Supply-voltage grid; defaults to 20 mV steps from 0.6 V to nominal.

    Returns
    -------
    DelayEnergyTable
        Per-voltage affine delay coefficients (``d0``, ``d1``), leakage power,
        and the energy capacitances of the bus.
    """
    if grid is None:
        grid = default_voltage_grid(design)

    driver_model = design.driver_model()
    segment = design.segment_parasitics
    voltages = grid.voltages

    base_delay = np.empty_like(voltages)
    coupling_delay = np.empty_like(voltages)
    leakage_power = np.empty_like(voltages)

    total_repeater_size = design.total_repeater_size()
    for index, vdd in enumerate(voltages):
        coefficients = design.repeaters.delay_coefficients(
            float(vdd), corner, segment, driver_model
        )
        base_delay[index] = coefficients.base
        coupling_delay[index] = coefficients.per_coupling
        leakage_current = driver_model.leakage_current(float(vdd), corner, total_repeater_size)
        leakage_power[index] = leakage_current * float(vdd)

    return DelayEnergyTable(
        grid=grid,
        corner=corner,
        base_delay=base_delay,
        coupling_delay=coupling_delay,
        leakage_power=leakage_power,
        self_capacitance_per_wire=design.wire_self_capacitance(),
        coupling_capacitance_per_pair=design.pair_coupling_capacitance(),
        metadata={
            "technology": design.technology.name,
            "repeater_size": design.repeaters.size,
            "n_segments": design.n_segments,
            "corner": corner.label,
        },
    )

