"""``CharacterizedBus.analyze``: one entry point, bit-identical to the reference.

``analyze`` takes a :class:`BusTrace` or a 0/1 array and classifies it with
the integer-lane block kernels, falling back to the scalar kernels for buses
wider than 64 wires.  Either way its statistics must equal the scalar
reference (``transitions_from_values`` followed by the three ``crosstalk``
kernels) exactly, for every width, shield topology and engine.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bus import CharacterizedBus
from repro.bus.engine import ENGINES
from repro.circuit.pvt import TYPICAL_CORNER
from repro.interconnect.crosstalk import (
    coupling_energy_weights,
    grouped_shield_topology,
    toggle_counts,
    transitions_from_values,
    worst_coupling_factor_per_cycle,
)
from repro.trace.trace import BusTrace


def _bus(typical_corner_bus, n_bits: int, shield_group: int, secondary_weight: float):
    """A bus of any width and shielding; ``analyze`` reads only its topology."""
    topology = grouped_shield_topology(n_bits, shield_group, secondary_weight)
    design = replace(typical_corner_bus.design, n_bits=n_bits, topology=topology)
    return CharacterizedBus(design, TYPICAL_CORNER, table=typical_corner_bus.table)


def _assert_matches_reference(stats, values, topology):
    transitions = transitions_from_values(values)
    np.testing.assert_array_equal(
        stats.worst_coupling, worst_coupling_factor_per_cycle(transitions, topology)
    )
    np.testing.assert_array_equal(stats.toggles, toggle_counts(transitions))
    np.testing.assert_array_equal(
        stats.coupling_weights, coupling_energy_weights(transitions, topology)
    )


#: Widths 1-80 cross the 64-wire lane limit; a shield group wider than the
#: bus leaves only the edge shields, group 1 shields every wire.
bus_shapes = st.tuples(
    st.integers(min_value=1, max_value=80),
    st.integers(min_value=1, max_value=9),
    st.sampled_from((0.0, 0.15, 0.3)),
)
word_counts = st.integers(min_value=2, max_value=40)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _random_values(n_words: int, n_bits: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2, size=(n_words, n_bits), dtype=np.uint8)


@settings(max_examples=60, deadline=None)
@given(shape=bus_shapes, n_words=word_counts, seed=seeds)
@example(shape=(64, 4, 0.15), n_words=30, seed=1)
@example(shape=(65, 4, 0.15), n_words=30, seed=2)
@example(shape=(80, 80, 0.3), n_words=30, seed=3)
def test_analyze_array_equals_scalar_reference(typical_corner_bus, shape, n_words, seed):
    n_bits, shield_group, secondary_weight = shape
    bus = _bus(typical_corner_bus, n_bits, shield_group, secondary_weight)
    values = _random_values(n_words, n_bits, seed)
    _assert_matches_reference(bus.analyze(values), values, bus.design.topology)


@settings(max_examples=30, deadline=None)
@given(shape=bus_shapes, n_words=word_counts, seed=seeds)
def test_analyze_packed_trace_equals_scalar_reference_on_every_engine(
    typical_corner_bus, shape, n_words, seed
):
    n_bits, shield_group, secondary_weight = shape
    bus = _bus(typical_corner_bus, n_bits, shield_group, secondary_weight)
    values = _random_values(n_words, n_bits, seed)
    packed = BusTrace(values=values).pack()
    for engine in ENGINES:
        stats = bus.analyze(packed, engine=engine)
        _assert_matches_reference(stats, values, bus.design.topology)


def test_mean_toggle_rate_counts_switching_wires(typical_corner_bus, crafty_trace):
    stats = typical_corner_bus.analyze(crafty_trace)
    assert stats.mean_toggle_rate == stats.summarize().mean_toggle_rate
    # Switching wires per cycle, not a fraction of the word.
    assert stats.mean_toggle_rate > 1.0


@pytest.mark.parametrize("bad", [np.zeros((1, 32)), np.full((4, 32), 2)])
def test_analyze_rejects_malformed_arrays(typical_corner_bus, bad):
    with pytest.raises(ValueError):
        typical_corner_bus.analyze(bad)
