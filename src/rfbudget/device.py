"""Device, frame, store, and plan records, and the single-packet formulas
that read them.

All records are frozen dataclasses: construct once, share freely across
threads. Units follow datasheet conventions (times in ms, currents in mA,
capacitance in farads, voltages in volts, rates in bit/s), so (V, mA, ms)
multiply directly to microjoules and each formula is a one-line
transcription of the measured behaviour.

The three energy terms here (wake-up, sleep, transceiver off/on switch)
are lump sums evaluated at the supply voltage at the start of the
interval; the voltage droop within such a short interval is neglected.
"""

import math
import numbers
from dataclasses import dataclass


def finite(name: str, value, *, gt=None, ge=None):
    """``value`` if it is a finite real number, above ``gt`` and at least
    ``ge`` when those are given; otherwise a ValueError that names
    ``name``. Booleans, strings, None and integers too large for a float
    are not finite numbers here."""
    try:
        bad = ((type(value) is not float
                and (isinstance(value, bool)
                     or not isinstance(value, numbers.Real)))
               or not math.isfinite(value))
    except OverflowError:
        bad = True
    if bad:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if gt is not None and not value > gt:
        raise ValueError(f"{name} must be > {gt}, got {value}")
    if ge is not None and not value >= ge:
        raise ValueError(f"{name} must be >= {ge}, got {value}")
    return value


def count(name: str, value, *, ge=0) -> int:
    """``value`` if it is an integer (not a boolean) of at least ``ge``
    that a float can hold; otherwise a ValueError that names ``name``."""
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return finite(name, value, ge=ge)


@dataclass(frozen=True)
class DeviceProfile:
    """Per-device constants of the power model.

    The sigmoid coefficients ``alpha1..alpha4`` map supply current (mA) to
    transmit power (dBm): p_t = alpha1 - alpha2 / (exp(alpha3*(c - alpha4)) + 1).
    They are device specific and have no sensible universal default, so
    they stay unset until measured (see ``fit_sigmoid``) or configured.
    The remaining constants default to measured values for an
    ATmega256RFR2-class IEEE 802.15.4 node and can be overridden for other
    hardware.
    """

    alpha1: float | None = None      # dBm, asymptote scale
    alpha2: float | None = None      # dBm, sigmoid depth
    alpha3: float | None = None      # 1/mA, slope; > 0
    alpha4: float | None = None      # mA, midpoint current
    wake_slope: float = 0.004        # ms per payload octet
    wake_intercept: float = 1.395    # ms
    wake_current: float = 7.8        # mA, average draw while waking
    sleep_time: float = 0.45         # ms, data-transfer -> deep-sleep ramp
    txrx_off_current: float = 4.0    # mA, CPU-only draw, transceiver off
    txrx_on_time: float = 0.86       # ms to re-enable the transceiver
    txrx_off_time: float = 0.2       # ms to disable the transceiver
    txrx_on_current: float = 10.25   # mA while re-enabling

    def __post_init__(self):
        for name in ("wake_slope", "wake_intercept", "wake_current",
                     "sleep_time", "txrx_off_current", "txrx_on_time",
                     "txrx_off_time", "txrx_on_current"):
            finite(name, getattr(self, name), ge=0)
        alphas = (self.alpha1, self.alpha2, self.alpha3, self.alpha4)
        provided = [a is not None for a in alphas]
        for i, a in enumerate(alphas, start=1):
            if a is not None:
                finite(f"alpha{i}", a, gt=0 if i == 3 else None)
        if any(provided) and not all(provided):
            raise ValueError("sigmoid coefficients alpha1..alpha4 must be "
                             "provided together")

    @property
    def has_sigmoid(self) -> bool:
        return self.alpha1 is not None

    def sigmoid_coefficients(self) -> tuple[float, float, float, float]:
        """The four sigmoid coefficients; raises if the profile has none."""
        if not self.has_sigmoid:
            raise ValueError("device profile has no sigmoid coefficients "
                             "(alpha1..alpha4); fit or configure them first")
        return (self.alpha1, self.alpha2, self.alpha3, self.alpha4)


@dataclass(frozen=True)
class FrameLayout:
    """IEEE 802.15.4 frame segment lengths (octets) and the preamble rate.

    Defaults describe a frame with 6-octet addressing and a 10-octet
    auxiliary security header, leaving up to 106 octets of MSDU payload.
    The SHR+PHR preamble is always sent at 250 kbit/s; the rest of the
    frame goes out at the configured data rate.
    """

    shr_octets: int = 5
    phr_octets: int = 1
    mhr_octets: int = 19             # FCF 2 + SN 1 + addressing 6 + aux security 10
    fcs_octets: int = 2
    max_msdu_octets: int = 106
    preamble_rate: float = 250_000.0  # bit/s, fixed by the standard

    def __post_init__(self):
        for name in ("shr_octets", "phr_octets", "mhr_octets", "fcs_octets",
                     "max_msdu_octets"):
            count(name, getattr(self, name))
        finite("preamble_rate", self.preamble_rate, gt=0)

    @property
    def preamble_bits(self) -> int:
        """Bits sent at the preamble rate (SHR + PHR); 48 under defaults."""
        return 8 * (self.shr_octets + self.phr_octets)

    @property
    def overhead_psdu_octets(self) -> int:
        """PSDU octets that are protocol overhead (MHR + FCS); 21 under defaults."""
        return self.mhr_octets + self.fcs_octets

    def check_payload(self, name: str, msdu_octets) -> None:
        """A ValueError that names ``name`` unless ``msdu_octets`` is a
        count that fits one frame of this layout and leaves it some bits."""
        if count(name, msdu_octets) > self.max_msdu_octets:
            raise ValueError(f"{name} {msdu_octets} exceeds the layout "
                             f"maximum {self.max_msdu_octets}")
        if not self.frame_bits(msdu_octets):
            raise ValueError(f"{name} {msdu_octets} leaves a frame of no bits")

    def frame_bits(self, msdu_octets: int) -> int:
        """Total bits on air for a frame carrying ``msdu_octets`` of payload."""
        return self.preamble_bits + 8 * (self.mhr_octets + msdu_octets + self.fcs_octets)


@dataclass(frozen=True)
class PacketTiming:
    """Timing of one packet transmission. Times in ms.

    ``effective_fraction`` is the share of the airtime spent on payload
    bits: (8 * msdu / data_rate) / airtime.
    """

    airtime: float
    preamble_time: float
    effective_fraction: float


def wakeup_time(profile: DeviceProfile, msdu_octets: int) -> float:
    """Deep-sleep to data-transfer-mode time in ms; linear in the payload."""
    return (profile.wake_slope * count("msdu_octets", msdu_octets)
            + profile.wake_intercept)


def wakeup_energy(profile: DeviceProfile, v_cc: float, msdu_octets: int) -> float:
    """Energy (uJ) to wake the device: wake current * V_cc * wake time."""
    return (profile.wake_current * finite("v_cc", v_cc, ge=0)
            * wakeup_time(profile, msdu_octets))


def sleep_energy(profile: DeviceProfile, v_cc: float, supply_current_ma: float) -> float:
    """Energy (uJ) to return to deep sleep after the last packet.

    The ramp-down lasts ``sleep_time`` ms at roughly half the transmit
    current, independent of voltage and payload.
    """
    finite("v_cc", v_cc, ge=0)
    finite("supply_current_ma", supply_current_ma, ge=0)
    return 0.5 * profile.sleep_time * v_cc * supply_current_ma


def packet_airtime(layout: FrameLayout, msdu_octets: int, data_rate: float) -> PacketTiming:
    """Time on air for one frame.

    The SHR+PHR preamble always goes out at the layout's preamble rate
    (192 us under defaults); MHR, payload, and FCS follow at ``data_rate``.
    A payload that ``layout.check_payload`` refuses is a ValueError.
    """
    layout.check_payload("msdu_octets", msdu_octets)
    finite("data_rate", data_rate, gt=0)
    preamble_ms = layout.preamble_bits / layout.preamble_rate * 1e3
    psdu_bits = 8 * (layout.overhead_psdu_octets + msdu_octets)
    # a tiny rate overflows the time on air
    airtime_ms = finite(f"airtime at {data_rate} bit/s",
                        preamble_ms + psdu_bits / data_rate * 1e3)
    payload_ms = 8 * msdu_octets / data_rate * 1e3
    return PacketTiming(airtime=airtime_ms, preamble_time=preamble_ms,
                        effective_fraction=payload_ms / airtime_ms)


def interpacket_overhead(profile: DeviceProfile, v_end: float,
                         supply_current_ma: float) -> float:
    """Energy (uJ) spent between consecutive packets of one burst.

    The device never deep-sleeps inside a burst; it switches the
    transceiver off (current ramping from the transmit level down to the
    CPU-only draw, hence the average of the two) and back on (a fixed
    time/current product). Evaluated at the voltage at the end of the
    finished packet.
    """
    finite("v_end", v_end, ge=0)
    finite("supply_current_ma", supply_current_ma, ge=0)
    off = profile.txrx_off_time * v_end * (supply_current_ma + profile.txrx_off_current) / 2.0
    on = profile.txrx_on_time * profile.txrx_on_current * v_end
    return off + on


@dataclass(frozen=True)
class EscState:
    """Energy storage component state: capacitance (F) and voltage (V)."""

    capacitance: float
    voltage: float

    def __post_init__(self):
        finite("capacitance", self.capacitance, gt=0)
        finite("voltage", self.voltage, ge=0)


@dataclass(frozen=True)
class PacketPlan:
    """One packet of a burst: payload size, transmit power, data rate."""

    msdu_octets: int
    tx_power: float    # dBm
    data_rate: float   # bit/s

    def __post_init__(self):
        count("msdu_octets", self.msdu_octets)
        finite("tx_power", self.tx_power)
        finite("data_rate", self.data_rate, gt=0)
