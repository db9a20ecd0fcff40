"""Single-packet timing and the lump-sum overhead energies.

Formulas stay in datasheet units on purpose: ms times and mA currents
multiply with volts to give microjoules directly, so each function is a
one-line transcription of the measured behaviour.

The three energy terms here (wake-up, sleep, transceiver off/on switch)
are lump sums evaluated at the supply voltage at the start of the
interval; the voltage droop within such a short interval is neglected.
"""

from dataclasses import dataclass

from .device import DeviceProfile, FrameLayout, count, finite


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
    A payload larger than one frame of ``layout`` carries is a ValueError.
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
