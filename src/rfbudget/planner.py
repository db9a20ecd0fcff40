"""Feasibility planning on top of the harvest and burst models.

Answers two operational questions for a duty-cycled node: how many packets
fit into one active cycle before the store voltage hits a cutoff, and how
long the recharge phase takes to climb back. This is a feasibility search,
not a throughput-optimal scheduler.
"""

from .burst import BurstReport, burst_energy, DEFAULT_BROWNOUT_V, max_packets
from .device import (DeviceProfile, EscState, FrameLayout, PacketPlan, finite,
                     packet_airtime, record, wakeup_time)
from .harvest import ChargeModel, time_to_voltage


@record
class CyclePlan:
    """One duty cycle: burst of ``n_packets`` followed by a recharge.

    ``burst`` is None when not even a single packet fits; otherwise it is
    the burst's totals and ledger, without per-bit samples (its
    ``sample_rows()`` yields nothing). Its per-packet ledger is built when
    ``burst.packets`` is first read, so a caller that needs only the
    totals builds none. Times in seconds;
    duty_cycle = active_time / (active_time + recharge_time).
    """

    n_packets: int
    burst: BurstReport | None
    recharge_time: float
    duty_cycle: float
    active_time: float


def recharge_plan(model: ChargeModel, v_low: float, v_high: float) -> float:
    """Seconds needed to charge from ``v_low`` up to ``v_high``.

    Uses the time-shift property of the charging curve: the same fitted
    model is assumed to apply regardless of the starting voltage.
    """
    finite("v_low", v_low, ge=0)
    finite("v_high", v_high, ge=v_low)
    return time_to_voltage(model, v_high) - time_to_voltage(model, v_low)


def cycle_report(model: ChargeModel, initial: EscState, v_cutoff: float,
                 template: PacketPlan, profile: DeviceProfile,
                 layout: FrameLayout, cap_n: int, *,
                 include_final_gap: bool = True,
                 brownout_v: float | None = DEFAULT_BROWNOUT_V) -> CyclePlan:
    """Compose max_packets, the burst ledger, and the recharge time.

    Active time counts the wake-up, every frame's airtime, one transceiver
    off/on gap between consecutive packets, and the sleep ramp. The
    recharge phase runs from the post-burst voltage back to the initial
    voltage, so the initial voltage must be reachable under ``model``.
    """
    if brownout_v is not None:
        finite("brownout_v", brownout_v)
    n = max_packets(initial, v_cutoff, template, profile, layout, cap_n,
                    include_final_gap=include_final_gap)
    if n == 0:
        return CyclePlan(n_packets=0, burst=None, recharge_time=0.0,
                         duty_cycle=0.0, active_time=0.0)
    burst = burst_energy([template] * n, initial, profile, layout,
                         include_final_gap=include_final_gap,
                         brownout_v=brownout_v, record_samples=False)
    recharge_s = recharge_plan(model, burst.final_state.voltage, initial.voltage)
    timing = packet_airtime(layout, template.msdu_octets, template.data_rate)
    active_ms = (wakeup_time(profile, template.msdu_octets)
                 + n * timing.airtime
                 + (n - 1) * (profile.txrx_off_time + profile.txrx_on_time)
                 + profile.sleep_time)
    active_s = active_ms * 1e-3
    total = active_s + recharge_s
    duty = active_s / total if total > 0 else 0.0
    return CyclePlan(n_packets=n, burst=burst, recharge_time=recharge_s,
                     duty_cycle=duty, active_time=active_s)
