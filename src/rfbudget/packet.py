"""Single-packet timing and the lump-sum overhead energies.

Formulas stay in datasheet units on purpose: ms times and mA currents
multiply with volts to give microjoules directly, so each function is a
one-line transcription of the measured behaviour.

The three energy terms here (wake-up, sleep, transceiver off/on switch)
are lump sums evaluated at the supply voltage at the start of the
interval; the voltage droop within such a short interval is neglected.
"""

from dataclasses import dataclass

from .device import DeviceProfile, FrameLayout, finite


@dataclass(frozen=True)
class PacketTiming:
    """Timing of one packet transmission. Times in ms.

    ``effective_fraction`` is the share of the airtime spent on payload
    bits: (8 * msdu / data_rate) / airtime.
    ``wake_time`` is 0.0 when the timing was computed without a device
    profile (airtime does not depend on one).
    """

    wake_time: float
    airtime: float
    preamble_time: float
    effective_fraction: float


def wakeup_time(profile: DeviceProfile, msdu_octets: int) -> float:
    """Deep-sleep to data-transfer-mode time in ms; linear in the payload."""
    if msdu_octets < 0:
        raise ValueError(f"msdu_octets must be >= 0, got {msdu_octets}")
    return profile.wake_slope * msdu_octets + profile.wake_intercept


def wakeup_energy(profile: DeviceProfile, v_cc: float, msdu_octets: int) -> float:
    """Energy (uJ) to wake the device: wake current * V_cc * wake time."""
    if v_cc < 0:
        raise ValueError(f"supply voltage must be >= 0 V, got {v_cc}")
    return profile.wake_current * v_cc * wakeup_time(profile, msdu_octets)


def sleep_energy(profile: DeviceProfile, v_cc: float, supply_current_ma: float) -> float:
    """Energy (uJ) to return to deep sleep after the last packet.

    The ramp-down lasts ``sleep_time`` ms at roughly half the transmit
    current, independent of voltage and payload.
    """
    if v_cc < 0:
        raise ValueError(f"supply voltage must be >= 0 V, got {v_cc}")
    if supply_current_ma < 0:
        raise ValueError(f"supply current must be >= 0 mA, got {supply_current_ma}")
    return 0.5 * profile.sleep_time * v_cc * supply_current_ma


def packet_airtime(layout: FrameLayout, msdu_octets: int, data_rate: float) -> PacketTiming:
    """Time on air for one frame.

    The SHR+PHR preamble always goes out at the layout's preamble rate
    (192 us under defaults); MHR, payload, and FCS follow at ``data_rate``.
    """
    if msdu_octets < 0:
        raise ValueError(f"msdu_octets must be >= 0, got {msdu_octets}")
    if not finite("data_rate", data_rate) > 0:
        raise ValueError(f"data_rate must be > 0 bit/s, got {data_rate}")
    preamble_ms = layout.preamble_bits / layout.preamble_rate * 1e3
    psdu_bits = 8 * (layout.overhead_psdu_octets + msdu_octets)
    airtime_ms = preamble_ms + psdu_bits / data_rate * 1e3
    payload_ms = 8 * msdu_octets / data_rate * 1e3
    return PacketTiming(wake_time=0.0, airtime=airtime_ms,
                        preamble_time=preamble_ms,
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
    if v_end < 0:
        raise ValueError(f"supply voltage must be >= 0 V, got {v_end}")
    if supply_current_ma < 0:
        raise ValueError(f"supply current must be >= 0 mA, got {supply_current_ma}")
    off = profile.txrx_off_time * v_end * (supply_current_ma + profile.txrx_off_current) / 2.0
    on = profile.txrx_on_time * profile.txrx_on_current * v_end
    return off + on
