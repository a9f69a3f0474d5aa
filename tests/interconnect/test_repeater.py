"""Tests for Elmore coefficients, repeater sizing and technology scaling.

The sizer's Brent solvers are pure-Python ports of scipy's: golden sizes and
error paths need nothing beyond the package, and the differential tests hold
the ports to scipy bit for bit where scipy (a test-only dependency) is
installed.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bus import BusDesign
from repro.circuit.delay_model import DriverDelayModel
from repro.circuit.pvt import STANDARD_CORNERS, TYPICAL_CORNER, WORST_CASE_CORNER
from repro.clocking import PAPER_CLOCKING
from repro.interconnect import repeater
from repro.interconnect.elmore import bus_delay_coefficients, segment_delay_coefficients
from repro.interconnect.parasitics import extract_parasitics
from repro.interconnect.repeater import (
    MAX_REPEATER_SIZE,
    RepeaterChain,
    RepeaterSizingError,
    _brentq,
    _minimize_bounded,
    size_for_target_delay,
)
from repro.interconnect.scaling import (
    delay_spread_metric,
    delay_spread_trend,
    scale_technology,
    scaled_node_series,
)
from repro.interconnect.technology import TECH_130NM


@pytest.fixture(scope="module")
def segment():
    geometry = TECH_130NM.wire_geometry(6e-3)
    parasitics = extract_parasitics(geometry, TECH_130NM.resistivity, TECH_130NM.dielectric_constant)
    return parasitics.for_length(1.5e-3)


@pytest.fixture(scope="module")
def driver_model():
    return DriverDelayModel()


class TestElmoreCoefficients:
    def test_segment_base_and_coupling_positive(self, segment):
        coefficients = segment_delay_coefficients(200.0, segment, 50e-15, 60e-15)
        assert coefficients.base > 0.0
        assert coefficients.per_coupling > 0.0

    def test_bus_is_n_segments_of_stage(self, segment):
        single = segment_delay_coefficients(200.0, segment, 50e-15, 60e-15)
        bus = bus_delay_coefficients(200.0, segment, 4, 50e-15, 60e-15, 60e-15)
        assert bus.base == pytest.approx(4 * single.base)
        assert bus.per_coupling == pytest.approx(4 * single.per_coupling)

    def test_worst_case_is_four_couplings(self, segment):
        coefficients = segment_delay_coefficients(200.0, segment, 50e-15, 60e-15)
        assert coefficients.worst_case == pytest.approx(coefficients.delay(4.0))

    def test_invalid_segment_count_rejected(self, segment):
        with pytest.raises(ValueError):
            bus_delay_coefficients(200.0, segment, 0, 50e-15, 60e-15, 60e-15)


class TestRepeaterSizing:
    def test_sized_chain_meets_600ps_at_worst_corner(self, segment, driver_model):
        chain = size_for_target_delay(
            target_delay=PAPER_CLOCKING.main_deadline,
            vdd=1.2,
            corner=WORST_CASE_CORNER,
            segment=segment,
            driver_model=driver_model,
            n_segments=4,
        )
        delay = chain.worst_case_delay(1.2, WORST_CASE_CORNER, segment, driver_model)
        assert delay <= PAPER_CLOCKING.main_deadline
        assert delay >= 0.95 * PAPER_CLOCKING.main_deadline  # no gross over-design

    def test_smaller_target_needs_bigger_repeaters(self, segment, driver_model):
        relaxed = size_for_target_delay(700e-12, 1.2, WORST_CASE_CORNER, segment, driver_model, 4)
        tight = size_for_target_delay(620e-12, 1.2, WORST_CASE_CORNER, segment, driver_model, 4)
        assert tight.size > relaxed.size

    def test_impossible_target_raises(self, segment, driver_model):
        with pytest.raises(RepeaterSizingError, match="unreachable"):
            size_for_target_delay(50e-12, 1.2, WORST_CASE_CORNER, segment, driver_model, 4)

    def test_minimum_size_shortcut(self, segment, driver_model):
        minimum = RepeaterChain(n_segments=4, size=1.0)
        target = minimum.worst_case_delay(1.2, WORST_CASE_CORNER, segment, driver_model)
        chain = size_for_target_delay(target, 1.2, WORST_CASE_CORNER, segment, driver_model, 4)
        assert chain.size == 1.0

    def test_delay_improves_at_faster_corner(self, segment, driver_model):
        chain = size_for_target_delay(600e-12, 1.2, WORST_CASE_CORNER, segment, driver_model, 4)
        worst = chain.worst_case_delay(1.2, WORST_CASE_CORNER, segment, driver_model)
        typical = chain.worst_case_delay(1.2, TYPICAL_CORNER, segment, driver_model)
        assert typical < worst

    def test_delay_increases_as_supply_scales_down(self, segment, driver_model):
        chain = RepeaterChain(n_segments=4, size=30.0)
        nominal = chain.worst_case_delay(1.2, TYPICAL_CORNER, segment, driver_model)
        scaled = chain.worst_case_delay(1.0, TYPICAL_CORNER, segment, driver_model)
        assert scaled > nominal

    def test_total_repeater_size(self):
        chain = RepeaterChain(n_segments=4, size=25.0)
        assert chain.total_repeater_size(32) == pytest.approx(4 * 25.0 * 32)

    def test_invalid_chain_rejected(self):
        with pytest.raises(ValueError):
            RepeaterChain(n_segments=0, size=10.0)
        with pytest.raises(ValueError):
            RepeaterChain(n_segments=4, size=-1.0)


class TestGoldenSizes:
    """Repeater sizes pinned to the last bit; any solver drift changes a hex digit."""

    @pytest.mark.parametrize(
        ("kwargs", "size_hex"),
        [
            ({}, "0x1.bea526d49e1d8p+4"),
            ({"n_bits": 16, "shield_group": 2}, "0x1.4531a2aa0cfb7p+4"),
            ({"n_bits": 64, "shield_group": 8}, "0x1.cf8c31fb4f3ddp+4"),
        ],
    )
    def test_bus_design_repeater_size(self, kwargs, size_hex):
        assert BusDesign.paper_bus(**kwargs).repeaters.size.hex() == size_hex


class TestSolverErrorPaths:
    def test_brentq_rejects_unbracketed_root(self):
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_brentq_reports_non_convergence(self, monkeypatch):
        monkeypatch.setattr(repeater, "_BRENTQ_MAXITER", 1)
        with pytest.raises(RuntimeError, match="not converged"):
            _brentq(lambda x: x - 0.3, 0.0, 1.0)

    def test_brentq_exact_endpoint_root(self):
        assert _brentq(lambda x: x - 2.0, 2.0, 5.0) == 2.0
        assert _brentq(lambda x: x - 5.0, 2.0, 5.0) == 5.0


def _convex(a: float, c: float, d: float, e: float):
    """A convex function on x > 0: a quadratic bowl plus d/x plus a linear term."""

    def f(x: float) -> float:
        x = float(x)
        return a * (x - c) * (x - c) + d / x + e * x

    return f


class TestDifferentialAgainstScipy:
    """The ports must reproduce scipy's floats exactly, not approximately."""

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.floats(0.0, 50.0),
        c=st.floats(-10.0, 700.0),
        d=st.floats(0.0, 1e4),
        e=st.floats(-5.0, 5.0),
        lo=st.floats(0.01, 50.0),
        width=st.floats(1e-3, 800.0),
    )
    def test_minimize_bounded_matches_scipy(self, a, c, d, e, lo, width):
        optimize = pytest.importorskip("scipy.optimize")
        f = _convex(a, c, d, e)
        hi = lo + width
        reference = optimize.minimize_scalar(f, bounds=(lo, hi), method="bounded")
        x, fx = _minimize_bounded(f, lo, hi)
        assert (x.hex(), fx.hex()) == (float(reference.x).hex(), float(reference.fun).hex())

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.floats(1.0, 1e4),
        e=st.floats(1e-3, 10.0),
        fraction=st.floats(0.0, 1.0),
    )
    def test_brentq_matches_scipy(self, d, e, fraction):
        optimize = pytest.importorskip("scipy.optimize")
        # d/x + e*x decreases on [1, sqrt(d/e)]; pick a target between its ends.
        f = _convex(0.0, 0.0, d, e)
        upper = max(math.sqrt(d / e), 1.0 + 1e-6)
        target = f(upper) + fraction * (f(1.0) - f(upper))

        def g(x):
            return f(x) - target

        assume(g(1.0) * g(upper) <= 0.0)  # rounding can put both ends on one side
        assert _brentq(g, 1.0, upper).hex() == optimize.brentq(g, 1.0, upper).hex()

    @settings(max_examples=25, deadline=None)
    @given(
        target=st.floats(560e-12, 2e-9),
        corner=st.sampled_from(list(STANDARD_CORNERS.values())),
        max_coupling=st.floats(2.0, 4.5),
    )
    def test_sizer_matches_scipy_sizer(self, segment, driver_model, target, corner, max_coupling):
        """The full sizer against the scipy-based recipe it replaced."""
        optimize = pytest.importorskip("scipy.optimize")

        def worst_delay(size):
            chain = RepeaterChain(n_segments=4, size=size)
            return chain.worst_case_delay(1.2, corner, segment, driver_model, max_coupling)

        best = optimize.minimize_scalar(
            worst_delay, bounds=(1.0, MAX_REPEATER_SIZE), method="bounded"
        )
        if float(best.fun) > target:
            with pytest.raises(RepeaterSizingError):
                size_for_target_delay(
                    target, 1.2, corner, segment, driver_model, 4, max_coupling_factor=max_coupling
                )
            return
        if worst_delay(1.0) <= target:
            expected = 1.0
        else:
            root = float(
                optimize.brentq(lambda s: worst_delay(s) - target, 1.0, float(best.x))
            )
            expected = min(root * 1.002, float(best.x))
        chain = size_for_target_delay(
            target, 1.2, corner, segment, driver_model, 4, max_coupling_factor=max_coupling
        )
        assert chain.size.hex() == expected.hex()


class TestTechnologyScaling:
    def test_scaled_node_shrinks_wires(self):
        node = scale_technology(TECH_130NM, 65e-9)
        assert node.wire_width == pytest.approx(TECH_130NM.wire_width * 0.5)
        assert node.name == "65nm"

    def test_known_node_supplies(self):
        assert scale_technology(TECH_130NM, 90e-9).nominal_vdd == pytest.approx(1.1)
        assert scale_technology(TECH_130NM, 45e-9).nominal_vdd == pytest.approx(0.9)

    def test_series_contains_requested_nodes(self):
        nodes = scaled_node_series((130e-9, 65e-9))
        assert set(nodes) == {"130nm", "65nm"}

    def test_delay_spread_grows_with_scaling(self):
        trend = delay_spread_trend()
        values = list(trend.values())
        assert values[0] == pytest.approx(1.0)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_delay_spread_metric_positive(self):
        assert delay_spread_metric(TECH_130NM) > 0.0

    def test_minimum_pitch_property(self):
        assert TECH_130NM.minimum_pitch == pytest.approx(0.8e-6)
