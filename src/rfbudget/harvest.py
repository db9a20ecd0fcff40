"""Supercapacitor charging model: predict, fit, and invert.

A harvester charging an energy storage component (ESC) behaves like an RC
circuit driven by the harvester's open-circuit voltage:

    v(t) = v_oc * (1 - exp(-t / (r_eq * C)))

Both v_oc and r_eq depend on the RF environment and on the capacitor
itself, so they are treated as per-trace fitted constants rather than
derived from circuit design. The open-circuit voltage of a harvester also
varies strongly with incident RF power; ``OcvTable`` interpolates measured
(incident dBm, open-circuit V) points.
"""

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

from .device import EscState, finite
from .errors import FitError, UnreachableVoltageError
from .lsq import least_squares

# Sanity ceiling for ESC voltages; small harvesters stay far below this.
MAX_PHYSICAL_VOC = 10.0


@dataclass(frozen=True)
class ChargeModel:
    """Fitted charging curve: open-circuit voltage (V), equivalent
    impedance (ohm), and capacitance (F)."""

    v_oc: float
    r_eq: float
    capacitance: float

    def __post_init__(self):
        finite("v_oc", self.v_oc, gt=0)
        finite("r_eq", self.r_eq, gt=0)
        finite("capacitance", self.capacitance, gt=0)
        finite("time constant r_eq * capacitance", self.tau, gt=0)

    @property
    def tau(self) -> float:
        """RC time constant in seconds."""
        return self.r_eq * self.capacitance


@dataclass(frozen=True)
class VoltageSample:
    """One ESC voltage measurement: time since charge start (s), volts."""

    t: float
    v: float

    def __post_init__(self):
        finite("sample time", self.t, ge=0)
        finite("sample voltage", self.v, ge=0)


class OcvTable:
    """Measured open-circuit voltage versus incident RF power.

    Points must be strictly increasing in both coordinates, and the step
    between neighbours must have a finite span and slope. Lookups
    interpolate linearly in the (dBm, V) plane and clamp to the end values
    outside the measured range; ``clamps`` reports whether a query falls
    outside.
    """

    def __init__(self, points: Iterable[tuple[float, float]]):
        # Each step is checked as its point arrives, so an error raised
        # while a file is read belongs to the line just read.
        pts = []
        for p1, v1 in points:
            p1, v1 = float(finite("p_dbm", p1)), float(finite("v_oc_v", v1))
            if pts:
                p0, v0 = pts[-1]
                if not (p1 > p0 and v1 > v0):
                    raise ValueError(
                        "OCV table points must be strictly increasing in "
                        "both coordinates; offending pair "
                        f"({p0}, {v0}) -> ({p1}, {v1})")
                # A finite span and slope keep every interpolated value finite.
                if not (math.isfinite(p1 - p0)
                        and math.isfinite((v1 - v0) / (p1 - p0))):
                    raise ValueError(
                        "OCV table step overflows a float; offending pair "
                        f"({p0}, {v0}) -> ({p1}, {v1})")
            pts.append((p1, v1))
        if not pts:
            raise ValueError("OCV table must contain at least one point")
        self.points = tuple(pts)

    @classmethod
    def p2110(cls) -> "OcvTable":
        """Measured table for the Powercast P2110 harvester."""
        return cls([(-14.0, 0.4), (-11.3, 0.9), (-8.5, 1.6), (-7.0, 2.0),
                    (-5.0, 2.6), (-3.0, 3.2), (-2.0, 4.0)])

    def voltage_at(self, p_dbm: float) -> float:
        # numpy.interp's arithmetic, so every result equals it bit for bit:
        # end values outside the range, the knot value on a knot, and
        # slope * (x - p0) + v0 in between.
        x = float(finite("p_dbm", p_dbm))
        pts = self.points
        j = bisect_right(pts, x, key=itemgetter(0)) - 1
        if j < 0:
            return pts[0][1]
        p0, v0 = pts[j]
        if j == len(pts) - 1 or p0 == x:
            return v0
        p1, v1 = pts[j + 1]
        return (v1 - v0) / (p1 - p0) * (x - p0) + v0

    def clamps(self, p_dbm: float) -> bool:
        """True when ``p_dbm`` falls outside the measured range."""
        finite("p_dbm", p_dbm)
        return bool(p_dbm < self.points[0][0] or p_dbm > self.points[-1][0])

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"OcvTable({list(self.points)!r})"


def charge_voltage(model: ChargeModel, t: float) -> float:
    """ESC voltage (V) after charging for ``t`` seconds from empty."""
    finite("t", t, ge=0)
    # -expm1 keeps precision for t << tau
    return -model.v_oc * math.expm1(-t / model.tau)


def stored_energy(state: EscState) -> float:
    """Energy held by the ESC in joules: C * V^2 / 2."""
    return 0.5 * state.capacitance * state.voltage ** 2


def time_to_voltage(model: ChargeModel, v_target: float) -> float:
    """Seconds of charging from empty until the ESC reaches ``v_target``.

    The target must lie strictly below the open-circuit voltage, which the
    charging curve only approaches asymptotically.
    """
    if finite("v_target", v_target, ge=0) >= model.v_oc:
        raise UnreachableVoltageError(
            f"target {v_target} V is not below the open-circuit voltage "
            f"{model.v_oc} V")
    return -model.tau * math.log1p(-v_target / model.v_oc)


def prediction_error(model: ChargeModel, samples: Sequence[VoltageSample]) -> float:
    """Mean absolute difference (V) between the model and the samples."""
    if not samples:
        raise ValueError("prediction_error needs at least one sample")
    return sum(abs(charge_voltage(model, s.t) - s.v) for s in samples) / len(samples)


def _r_through(t: float, v: float, v_oc: float, capacitance: float) -> float:
    """The r_eq whose charging curve passes through (t, v); inf where
    ``capacitance * log1p(-v / v_oc)`` underflows to zero."""
    denominator = capacitance * math.log1p(-v / v_oc)
    return -t / denominator if denominator else math.inf


def _seeded(r0: float, capacitance: float) -> float:
    """``r0`` when ``r0 * capacitance`` is a positive finite time constant."""
    tau = r0 * capacitance
    if not (math.isfinite(tau) and tau > 0.0):
        raise FitError(
            f"cannot seed the fit: r_eq {r0:g} ohm times capacitance "
            f"{capacitance:g} F gives the time constant {tau:g} s")
    return r0


def _r_floor(capacitance: float) -> float:
    """The fits' lower bound on r_eq: 1e-12 ohm, or higher where
    ``r_eq * capacitance`` would underflow to a zero time constant."""
    return max(1e-12, sys.float_info.min / capacitance)


def _off_floor(r_eq: float, capacitance: float) -> float:
    """A fitted ``r_eq``, unless the fit ended on its lower bound: the
    solver then stopped where clipping put it, not at a minimum."""
    floor = _r_floor(capacitance)
    if r_eq <= floor:
        raise FitError(
            f"the fit hit the lower bound {floor:g} ohm on r_eq; the trace "
            f"does not constrain it at capacitance {capacitance:g} F")
    return r_eq


def fit_charge_model(samples: Sequence[VoltageSample], capacitance: float) -> ChargeModel:
    """Least-squares fit of (v_oc, r_eq) to a charging trace.

    Needs at least three samples at two or more distinct times, with some
    voltage variation. Seeds v_oc slightly above the highest measured
    voltage and r_eq from a closed-form inversion of the earliest usable
    sample, then refines with a bounded Levenberg-Marquardt solve.

    Raises FitError when the trace cannot constrain the fit.
    """
    finite("capacitance", capacitance, gt=0)
    if len(samples) < 3:
        raise FitError(f"need at least 3 samples to fit, got {len(samples)}")
    ts = [s.t for s in samples]
    vs = [s.v for s in samples]
    if len(set(ts)) < 2:
        raise FitError("need samples at >= 2 distinct times")
    v_max = max(vs)
    if v_max == min(vs):
        raise FitError("degenerate trace: all voltages equal")
    if v_max > MAX_PHYSICAL_VOC:
        raise FitError(
            f"sample voltage {v_max} V exceeds the physical ceiling "
            f"{MAX_PHYSICAL_VOC} V; wrong units?")

    v_oc0 = 1.05 * v_max
    r0 = None
    for t, v in sorted(zip(ts, vs)):
        if t > 0 and 0 < v < v_oc0:
            r0 = _r_through(t, v, v_oc0, capacitance)
            break
    if r0 is None or not math.isfinite(r0) or r0 <= 0:
        r0 = (max(ts) or 1.0) / capacitance

    def residual(params):
        v_oc, r = params
        tau = r * capacitance
        return [v_oc * -math.expm1(-t / tau) - v for t, v in zip(ts, vs)]

    def jacobian(params):
        v_oc, r = params
        tau = r * capacitance
        us = [-t / tau for t in ts]
        return [[-math.expm1(u) for u in us],
                [v_oc * math.exp(u) * u / r for u in us]]

    v_oc, r_eq = least_squares(residual, jacobian,
                               [v_oc0, _seeded(r0, capacitance)],
                               [1e-12, _r_floor(capacitance)],
                               what="charge-model")
    return ChargeModel(v_oc=v_oc, r_eq=_off_floor(r_eq, capacitance),
                       capacitance=capacitance)


def fit_r_known_voc(samples: Sequence[VoltageSample], capacitance: float,
                    v_oc: float) -> ChargeModel:
    """Fit only the equivalent impedance when v_oc was measured directly.

    A single exact sample at t > 0 inverts the charging curve in closed
    form; several samples are reconciled by a one-dimensional least-squares
    refinement seeded with the median of the per-sample inversions.
    """
    finite("capacitance", capacitance, gt=0)
    finite("v_oc", v_oc, gt=0)
    if not samples:
        raise FitError("need at least one sample to fit r_eq")
    for s in samples:
        if s.v >= v_oc:
            raise FitError(
                f"sample voltage {s.v} V is not below v_oc {v_oc} V; "
                "the charging curve never reaches the open-circuit voltage")
    estimates = sorted(_r_through(s.t, s.v, v_oc, capacitance)
                       for s in samples if s.t > 0 and s.v > 0)
    if not estimates:
        raise FitError("no usable sample with t > 0 and v > 0")
    half = len(estimates) // 2
    r0 = _seeded(estimates[half] if len(estimates) % 2 else
                 (estimates[half - 1] + estimates[half]) / 2, capacitance)
    if len(samples) == 1:
        return ChargeModel(v_oc=v_oc, r_eq=r0, capacitance=capacitance)

    ts = [s.t for s in samples]
    vs = [s.v for s in samples]

    def residual(params):
        (r,) = params
        tau = r * capacitance
        return [v_oc * -math.expm1(-t / tau) - v for t, v in zip(ts, vs)]

    def jacobian(params):
        (r,) = params
        tau = r * capacitance
        return [[v_oc * math.exp(u) * u / r for u in (-t / tau for t in ts)]]

    (r_eq,) = least_squares(residual, jacobian, [r0],
                            [_r_floor(capacitance)], what="impedance")
    return ChargeModel(v_oc=v_oc, r_eq=_off_floor(r_eq, capacitance),
                       capacitance=capacitance)
