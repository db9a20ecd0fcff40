"""Transmit power versus supply current: the S-curve model and its fit.

Measured IoT transceivers do not spend supply current linearly in
transmit power. Near the radio's floor most of the current feeds the MCU
and peripherals; near the ceiling extra current buys almost no power. A
shifted sigmoid captures this:

    p_t(c) = alpha1 - alpha2 / (exp(alpha3 * (c - alpha4)) + 1)

with p_t in dBm and the supply current c in mA. System power is simply
v_cc * c (mW for V and mA). No vendor publishes the coefficients, so they
are fitted from register-sweep calibrations.
"""

import math
from collections.abc import Sequence

from .device import DeviceProfile, finite, record
from .errors import FitError
from .lsq import least_squares

# exp() overflows doubles near 710; beyond this the sigmoid term is ~0 anyway
_EXP_CLIP = 700.0
# dB of measurement noise by which calibration power may fall as current rises
MONOTONE_TOL_DB = 0.5


@record
class CalibrationPoint:
    """One calibration measurement: supply current (mA), transmit power (dBm)."""

    supply_current: float
    tx_power: float

    def __post_init__(self):
        finite("supply_current", self.supply_current, gt=0)
        finite("tx_power", self.tx_power)


@record
class SigmoidCoefficients:
    alpha1: float  # dBm
    alpha2: float  # dBm
    alpha3: float  # 1/mA
    alpha4: float  # mA


def tx_power_from_current(profile: DeviceProfile, supply_current_ma: float) -> float:
    """Transmit power (dBm) drawn from the fitted S-curve at a supply current."""
    finite("supply_current_ma", supply_current_ma, ge=0)
    a1, a2, a3, a4 = profile.sigmoid_coefficients()
    x = a3 * (supply_current_ma - a4)
    if x > _EXP_CLIP:
        return a1
    return a1 - a2 / (math.exp(x) + 1.0)


def current_from_tx_power(profile: DeviceProfile, tx_power_dbm: float) -> float:
    """Supply current (mA) required for a transmit power; closed-form inverse.

    The S-curve only spans the open interval (alpha1 - alpha2, alpha1);
    powers outside it are unattainable for the device, and so are powers
    near its floor that the curve maps to a negative current.
    """
    a1, a2, a3, a4 = profile.sigmoid_coefficients()
    if not (a1 - a2) < finite("tx_power_dbm", tx_power_dbm) < a1:
        raise ValueError(
            f"transmit power {tx_power_dbm} dBm outside the attainable open "
            f"interval ({a1 - a2}, {a1}) dBm")
    current = a4 + math.log(a2 / (a1 - tx_power_dbm) - 1.0) / a3
    return finite(f"supply current for {tx_power_dbm} dBm", current, ge=0)


def system_power(v_cc: float, supply_current_ma: float) -> float:
    """System power consumption in mW: supply voltage times supply current."""
    finite("v_cc", v_cc, ge=0)
    finite("supply_current_ma", supply_current_ma, ge=0)
    return v_cc * supply_current_ma


def fit_sigmoid(points: Sequence[CalibrationPoint]) -> SigmoidCoefficients:
    """Least-squares fit of the four S-curve coefficients to a calibration.

    Needs at least six points spanning the curve; the measured power must
    be nondecreasing with current up to ``MONOTONE_TOL_DB`` of noise.
    Returned alpha2 and alpha3 are strictly positive so the fitted curve
    is increasing.
    """
    if len(points) < 6:
        raise FitError(f"need at least 6 calibration points, got {len(points)}")
    pts = sorted(points, key=lambda p: p.supply_current)
    cs = [p.supply_current for p in pts]
    ps = [p.tx_power for p in pts]
    for c0, c1, p0, p1 in zip(cs, cs[1:], ps, ps[1:]):
        if p1 - p0 < -MONOTONE_TOL_DB:
            raise FitError(
                "calibration power is not monotone in current beyond the "
                f"{MONOTONE_TOL_DB} dB noise tolerance ({p0:.3g} dBm at "
                f"{c0:.3g} mA followed by {p1:.3g} dBm at {c1:.3g} mA)")
    p_min = min(ps)
    p_span = max(ps) - p_min
    if p_span == 0.0:
        raise FitError("degenerate calibration: all powers equal")

    # Seeds: asymptotes from the data range, midpoint from the half-power
    # crossing, slope from the first currents at 25 % and 75 % of the span
    # (2 ln 3 / alpha3 apart on an exact sigmoid; unit slope if one step
    # crosses both), a width that dense noisy points do not shrink.
    a1_0 = max(ps) + 0.05 * p_span
    a2_0 = 1.1 * p_span
    mid = p_min + 0.5 * p_span
    a4_0 = cs[min(range(len(ps)), key=lambda i: abs(ps[i] - mid))]
    c25, c75 = (next(c for c, p in zip(cs, ps) if p >= p_min + share * p_span)
                for share in (0.25, 0.75))
    a3_0 = 2.0 * math.log(3.0) / (c75 - c25) if c75 > c25 else 1.0

    def clipped(raw):
        # min before max, so that a nan exponent stays nan
        return max(min(raw, _EXP_CLIP), -_EXP_CLIP)

    # The exponents inside the clip, the common case, skip the call.
    def residual(params):
        a1, a2, a3, a4 = params
        return [a1 - a2 / (math.exp(x if -_EXP_CLIP < x < _EXP_CLIP
                                    else clipped(x)) + 1.0) - p
                for x, p in zip([a3 * (c - a4) for c in cs], ps)]

    def jacobian(params):
        a1, a2, a3, a4 = params
        qs, dxs = [], []
        for c in cs:
            raw = a3 * (c - a4)
            inside = -_EXP_CLIP < raw < _EXP_CLIP
            e = math.exp(raw if inside else clipped(raw))
            q = 1.0 / (e + 1.0)
            qs.append(-q)
            # d(residual)/d(exponent) = a2 e q^2, grouped so that e q <= 1
            # keeps it finite; zero where the clip holds the exponent fixed.
            dxs.append(a2 * (e * q) * q if inside else 0.0)
        return [[1.0] * len(cs), qs, [dx * (c - a4) for dx, c in zip(dxs, cs)],
                [-dx * a3 for dx in dxs]]

    return SigmoidCoefficients(*least_squares(
        residual, jacobian, [a1_0, a2_0, a3_0, a4_0],
        [-math.inf, 1e-9, 1e-9, -math.inf], what="sigmoid"))
