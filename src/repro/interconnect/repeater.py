"""Repeater (buffer) modelling and sizing.

The paper's bus is divided into 1.5 mm segments by repeaters that are "sized
so that the maximum delay ... on the bus is 600 ps" at the worst-case PVT
corner and switching pattern.  :func:`size_for_target_delay` reproduces that
design step: it finds the smallest repeater size whose worst-case delay meets
the target, mirroring the typical design philosophy of spending no more
repeater area (and energy) than the constraint requires.

The two one-dimensional solvers it needs are private pure-Python ports of
Brent's methods (R. P. Brent, *Algorithms for Minimization Without
Derivatives*, 1973): :func:`_minimize_bounded` follows scipy 1.17's
``_minimize_scalar_bounded`` and :func:`_brentq` follows scipy's
``brentq.c``.  They perform the same IEEE-754 operations in the same order
as those implementations, so the repeater sizes -- and every result derived
from them -- are bit-identical to the scipy-based sizer they replace, without
paying scipy's import cost on every command.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass

from repro.circuit.delay_model import DriverDelayModel
from repro.circuit.pvt import PVTCorner
from repro.interconnect.elmore import BusDelayCoefficients, bus_delay_coefficients
from repro.interconnect.parasitics import SegmentParasitics
from repro.utils.validation import check_positive

#: Largest repeater size (in multiples of a minimum inverter) the sizer explores.
MAX_REPEATER_SIZE = 600.0


@dataclass(frozen=True)
class RepeaterChain:
    """A uniform chain of repeaters along one bus wire.

    Attributes
    ----------
    n_segments:
        Number of repeated wire segments (the paper uses 4 x 1.5 mm = 6 mm).
    size:
        Repeater drive strength as a multiple of the minimum inverter.
    receiver_capacitance:
        Input capacitance of the receiving flip-flop at the end of the wire.
    """

    n_segments: int
    size: float
    receiver_capacitance: float = 4.0e-15

    def __post_init__(self) -> None:
        if self.n_segments <= 0:
            raise ValueError(f"n_segments must be positive, got {self.n_segments}")
        check_positive("size", self.size)
        check_positive("receiver_capacitance", self.receiver_capacitance, strict=False)

    def delay_coefficients(
        self,
        vdd: float,
        corner: PVTCorner,
        segment: SegmentParasitics,
        driver_model: DriverDelayModel,
    ) -> BusDelayCoefficients:
        """Affine delay coefficients of the full wire at a supply and corner."""
        resistance = driver_model.driver_resistance(vdd, corner, self.size)
        if math.isinf(resistance):
            return BusDelayCoefficients(base=math.inf, per_coupling=0.0)
        return bus_delay_coefficients(
            driver_resistance=resistance,
            segment=segment,
            n_segments=self.n_segments,
            driver_self_capacitance=driver_model.drain_capacitance(self.size),
            repeater_gate_capacitance=driver_model.gate_capacitance(self.size),
            receiver_capacitance=self.receiver_capacitance,
        )

    def worst_case_delay(
        self,
        vdd: float,
        corner: PVTCorner,
        segment: SegmentParasitics,
        driver_model: DriverDelayModel,
        max_coupling_factor: float = 4.0,
    ) -> float:
        """Delay of the worst-case coupling pattern at a supply and corner."""
        return self.delay_coefficients(vdd, corner, segment, driver_model).delay(
            max_coupling_factor
        )

    def total_repeater_size(self, n_wires: int) -> float:
        """Summed repeater size over the whole bus (for leakage accounting)."""
        return self.size * self.n_segments * n_wires


class RepeaterSizingError(RuntimeError):
    """Raised when no repeater size can meet the requested worst-case delay."""


# scipy's defaults for both solvers; changing any of them changes the sizes.
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
_MINIMIZE_XATOL = 1e-5
_MINIMIZE_MAXFUN = 500
_BRENTQ_XTOL = 2e-12
_BRENTQ_RTOL = 4 * sys.float_info.epsilon
_BRENTQ_MAXITER = 100


def _minimize_bounded(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Brent's bounded scalar minimizer; returns ``(x, f(x))`` of the minimum.

    A line-for-line port of scipy's ``_minimize_scalar_bounded`` (golden
    section steps with parabolic interpolation).
    """
    a, b = lo, hi
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + _MINIMIZE_XATOL / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm - xf >= 0.0 else -tol1
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN_MEAN * e

        x = xf + (1.0 if rat >= 0.0 else -1.0) * max(abs(rat), tol1)
        fu = f(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + _MINIMIZE_XATOL / 3.0
        tol2 = 2.0 * tol1
        if num >= _MINIMIZE_MAXFUN:
            break
    return xf, fx


def _brentq(f: Callable[[float], float], a: float, b: float) -> float:
    """Brent's bracketed root finder for ``f`` on ``[a, b]``.

    A line-for-line port of scipy's ``brentq.c`` (inverse quadratic
    interpolation with bisection fallback).
    """
    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre = f(xpre)
    fcur = f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENTQ_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (_BRENTQ_XTOL + _BRENTQ_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"root not converged after {_BRENTQ_MAXITER} iterations")


def size_for_target_delay(
    target_delay: float,
    vdd: float,
    corner: PVTCorner,
    segment: SegmentParasitics,
    driver_model: DriverDelayModel,
    n_segments: int,
    receiver_capacitance: float = 4.0e-15,
    max_coupling_factor: float = 4.0,
) -> RepeaterChain:
    """Find the smallest repeater size meeting ``target_delay`` at the corner.

    The worst-case delay is monotonically decreasing in repeater size until
    self-loading takes over, so the smallest size meeting the target is found
    with a bracketed root search on the decreasing branch.  If even the
    delay-optimal size misses the target the bus cannot be built for this
    clock frequency and :class:`RepeaterSizingError` is raised.
    """
    check_positive("target_delay", target_delay)

    def worst_delay(size: float) -> float:
        chain = RepeaterChain(
            n_segments=n_segments, size=size, receiver_capacitance=receiver_capacitance
        )
        return chain.worst_case_delay(vdd, corner, segment, driver_model, max_coupling_factor)

    # Locate the delay-optimal size (the minimum of the convex delay curve).
    optimal_size, optimal_delay = _minimize_bounded(worst_delay, 1.0, MAX_REPEATER_SIZE)
    if optimal_delay > target_delay:
        raise RepeaterSizingError(
            f"target delay {target_delay * 1e12:.0f} ps unreachable at corner "
            f"{corner.label}: best achievable is {optimal_delay * 1e12:.0f} ps"
        )

    if worst_delay(1.0) <= target_delay:
        smallest = 1.0
    else:
        smallest = _brentq(lambda s: worst_delay(s) - target_delay, 1.0, optimal_size)
        # A sliver of margin keeps the design-corner worst case strictly inside
        # the deadline despite the root finder's finite tolerance, so the bus
        # is genuinely error-free at the design point.
        smallest = min(smallest * 1.002, optimal_size)
    return RepeaterChain(
        n_segments=n_segments, size=smallest, receiver_capacitance=receiver_capacitance
    )
