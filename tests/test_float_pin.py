"""Every float of a fixed set of planning answers and drains, pinned by
one SHA-256 over their ``repr``s.

The per-bit drain may be restructured for speed, but never by one ulp:
the same float operations must run in the same order. A digest over the
exact reprs catches any change in any digit, on every Python version the
test runs on. A change meant to keep the floats must keep this passing;
a change meant to move them must say which and why before it updates
the digest.
"""

import hashlib

from rfbudget import (ChargeModel, EscDepletedError, EscState, FrameLayout,
                      PacketPlan, burst_energy, cycle_report,
                      protocol_overhead, segment_energy)

# (capacitance F, v0, v_oc, r_ohm, cutoff V, msdu octets, tx dBm,
#  rate bit/s, cap_n, include_final_gap)
QUESTIONS = [
    # tests/test_cli_golden.py's plan-cycle, its csv variant without the
    # final gap, its cap-limited case, and its near-tie: the cutoff is the
    # 2-packet burst's own final voltage, so the planner walks.
    (0.12e-3, 2.5, 3.0, 800.0, 1.5, 40, 3.5, 250e3, 16, True),
    (0.12e-3, 2.5, 3.0, 800.0, 1.5, 40, 3.5, 250e3, 16, False),
    (0.12e-3, 2.5, 3.0, 800.0, 1.5, 40, 3.5, 250e3, 1, True),
    (0.12e-3, 2.5, 3.0, 800.0, 1.6933354069167803, 40, 3.5, 250e3, 16, True),
    # The runtime smoke questions: cap-limited at 8, then 116 packets.
    (2.2e-3, 3.3, 3.6, 800.0, 1.8, 20, 0.0, 250e3, 8, True),
    (2.2e-3, 3.3, 3.6, 800.0, 1.8, 20, 0.0, 250e3, 4096, True),
    (1e-3, 3.0, 3.4, 500.0, 2.0, 106, 3.5, 1e6, 64, False),
    (2e-3, 2.5, 3.0, 1200.0, 1.0, 0, -10.0, 2e6, 300, True),
    (22e-3, 3.6, 3.8, 90.0, 3.5, 50, 2.0, 250e3, 4096, True),
    (0.47e-3, 3.3, 3.5, 300.0, 0.9, 100, 1.0, 250e3, 64, False),
    # Not one packet fits: a store one frame nearly empties, and a cutoff
    # above the initial voltage.
    (5e-6, 2.5, 3.0, 800.0, 2.4, 106, 3.5, 250e3, 64, True),
    (0.12e-3, 2.5, 3.0, 800.0, 2.6, 40, 3.5, 250e3, 16, True),
]

GOLDEN_PLAN = [PacketPlan(106, 3.5, 250e3), PacketPlan(20, 0.0, 1e6)]

# (plans, capacitance F, v0, include_final_gap)
BURSTS = [
    (GOLDEN_PLAN, 0.12e-3, 2.5, True),
    (GOLDEN_PLAN * 3, 0.47e-3, 3.3, False),
    # Depletes at bit 707 = 44 * 16 + 3 of packet 1's MSDU.
    ([PacketPlan(106, 3.5, 250e3)] * 3, 3e-5, 2.5, True),
]

# (v_start, supply current mA, rate bit/s, n_bits, capacitance F)
SEGMENTS = [
    (2.5, 16.24, 250e3, 1016, 0.12e-3),
    (3.3, 16.0, 250e3, 1_000_003, 22e-3),
    (3.0, 20.0, 1e6, 13, 1e-6),
    (1.2, 5.0, 62.5e3, 4099, 2e-3),
]

DIGEST = "01d30de7fdd52dde13076aa1dc21ddb3cc66e1a4265e40467c362515bf99f7f5"


def answers(profile):
    layout = FrameLayout()
    for (cap, v0, v_oc, r_ohm, cutoff, msdu, tx, rate, cap_n,
         final_gap) in QUESTIONS:
        plan = cycle_report(ChargeModel(v_oc, r_ohm, cap), EscState(cap, v0),
                            cutoff, PacketPlan(msdu, tx, rate), profile,
                            layout, cap_n, include_final_gap=final_gap,
                            brownout_v=None)
        burst = plan.burst
        yield (plan.n_packets,
               burst and (burst.total_energy_uj, burst.final_state.voltage),
               plan.recharge_time, plan.duty_cycle, plan.active_time)
    for plans, cap, v0, final_gap in BURSTS:
        try:
            report = burst_energy(plans, EscState(cap, v0), profile, layout,
                                  include_final_gap=final_gap,
                                  brownout_v=None)
        except EscDepletedError as exc:
            yield str(exc), exc.packet, exc.segment, exc.bit
        else:
            yield (report.total_energy_uj, report.final_state.voltage,
                   report.packets, tuple(report.sample_rows()))
    for segment in SEGMENTS:
        yield segment_energy(*segment)
    yield protocol_overhead(layout, 106, 16.24, 250e3, 2.5, 0.12e-3)


def test_floats_equal_the_pinned_digest(sig_profile):
    text = "\n".join(map(repr, answers(sig_profile)))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST
