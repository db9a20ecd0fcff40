import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfbudget import (BrownoutWarning, ChargeModel, DeviceProfile,
                      EscDepletedError, EscState, FrameBreakdown, FrameLayout,
                      PacketLedger, PacketPlan,
                      bit_energy_closed_form, bit_energy_oracle, burst_energy,
                      current_from_tx_power, cycle_report, first_bit_energy,
                      interpacket_overhead, max_packets, packet_airtime,
                      protocol_overhead, segment_energy, sleep_energy,
                      wakeup_energy)
from rfbudget import burst as burst_module
from rfbudget.burst import _Drain
from conftest import (ALPHA1, ALPHA2, ALPHA3, ALPHA4, REF_CAP_F,
                      REF_CURRENT_MA, REF_RATE_BPS, REF_TX_DBM, REF_V0)


def ref_plan(msdu=106, rate=REF_RATE_BPS):
    return PacketPlan(msdu_octets=msdu, tx_power=REF_TX_DBM, data_rate=rate)


def common_difference_uj(current_ma, rate, cap):
    return (current_ma * 1e-3 / rate) ** 2 / cap * 1e6


def increments(values):
    return [b - a for a, b in zip(values, values[1:])]


# first_bit_energy / closed form ---------------------------------------------

def test_first_bit_energy_reference():
    e1 = first_bit_energy(REF_V0, REF_CURRENT_MA, REF_RATE_BPS)
    assert e1 == pytest.approx(0.1624, rel=1e-12)


def test_closed_form_first_bit_is_identity():
    assert bit_energy_closed_form(0.1624, 1, REF_CURRENT_MA, REF_RATE_BPS,
                                  REF_CAP_F) == 0.1624


def test_closed_form_single_step():
    step = common_difference_uj(REF_CURRENT_MA, REF_RATE_BPS, REF_CAP_F)
    assert step == pytest.approx(3.5165e-5, rel=1e-3)
    e2 = bit_energy_closed_form(0.1624, 2, REF_CURRENT_MA, REF_RATE_BPS,
                                REF_CAP_F)
    assert e2 == pytest.approx(0.1624 - step, rel=1e-12)
    assert e2 == pytest.approx(0.162365, abs=1e-6)


def test_closed_form_reference_decay():
    e1 = first_bit_energy(REF_V0, REF_CURRENT_MA, REF_RATE_BPS)
    e_last = bit_energy_closed_form(e1, 1016, REF_CURRENT_MA, REF_RATE_BPS,
                                    REF_CAP_F)
    assert e1 == pytest.approx(0.1624, rel=5e-3)
    assert e_last == pytest.approx(0.1267, rel=5e-3)


def test_closed_form_depletes():
    # progression hits zero after e1/step bits
    with pytest.raises(EscDepletedError):
        bit_energy_closed_form(0.1624, 10_000, REF_CURRENT_MA, REF_RATE_BPS,
                               1e-6)


def test_closed_form_common_difference_constant():
    e1 = first_bit_energy(REF_V0, REF_CURRENT_MA, REF_RATE_BPS)
    step = common_difference_uj(REF_CURRENT_MA, REF_RATE_BPS, REF_CAP_F)
    energies = [bit_energy_closed_form(e1, i, REF_CURRENT_MA, REF_RATE_BPS,
                                       REF_CAP_F) for i in range(1, 200)]
    diffs = np.diff(energies)
    assert np.allclose(diffs, -step, rtol=1e-9, atol=1e-18)


# bit_energy_oracle ----------------------------------------------------------

def test_oracle_single_bit():
    energies, v_end = bit_energy_oracle(REF_V0, REF_CURRENT_MA, REF_RATE_BPS,
                                        REF_CAP_F, 1)
    e = REF_V0 * REF_CURRENT_MA * 1e-3 / REF_RATE_BPS
    assert energies[0] == pytest.approx(e * 1e6, rel=1e-12)
    assert v_end == pytest.approx(math.sqrt(REF_V0 ** 2 - 2 * e / REF_CAP_F),
                                  rel=1e-12)


def test_oracle_reference_last_bit():
    energies, _ = bit_energy_oracle(REF_V0, REF_CURRENT_MA, REF_RATE_BPS,
                                    REF_CAP_F, 1016)
    assert energies[-1] == pytest.approx(0.1267, rel=1e-3)


def test_oracle_matches_closed_form_reference():
    energies, _ = bit_energy_oracle(REF_V0, REF_CURRENT_MA, REF_RATE_BPS,
                                    REF_CAP_F, 1016)
    e1 = first_bit_energy(REF_V0, REF_CURRENT_MA, REF_RATE_BPS)
    approx = [bit_energy_closed_form(e1, i, REF_CURRENT_MA, REF_RATE_BPS,
                                     REF_CAP_F) for i in range(1, 1017)]
    assert max(abs(a - e) / e
               for a, e in zip(approx, energies, strict=True)) <= 1e-3


def test_oracle_depletes_on_tiny_store():
    with pytest.raises(EscDepletedError) as excinfo:
        bit_energy_oracle(REF_V0, REF_CURRENT_MA, REF_RATE_BPS, 1e-6, 1016)
    assert excinfo.value.bit is not None
    assert excinfo.value.bit < 1016


def test_oracle_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bit_energy_oracle(REF_V0, REF_CURRENT_MA, REF_RATE_BPS, REF_CAP_F, 0)
    with pytest.raises(ValueError):
        bit_energy_oracle(0.0, REF_CURRENT_MA, REF_RATE_BPS, REF_CAP_F, 10)


# segment_energy -------------------------------------------------------------

def test_segment_single_bit():
    energy, v_end = segment_energy(REF_V0, REF_CURRENT_MA, REF_RATE_BPS, 1,
                                   REF_CAP_F)
    assert energy == pytest.approx(first_bit_energy(REF_V0, REF_CURRENT_MA,
                                                    REF_RATE_BPS), rel=1e-12)
    assert v_end < REF_V0


def test_segment_large_store_limit():
    energy, v_end = segment_energy(REF_V0, REF_CURRENT_MA, REF_RATE_BPS, 48,
                                   1.0)
    flat = 48 * first_bit_energy(REF_V0, REF_CURRENT_MA, REF_RATE_BPS)
    assert energy == pytest.approx(flat, rel=1e-6)
    assert v_end == pytest.approx(REF_V0, abs=1e-5)


def test_segment_reference_48_bits():
    energy, v_end = segment_energy(REF_V0, REF_CURRENT_MA, REF_RATE_BPS, 48,
                                   REF_CAP_F)
    oracle, v_oracle = bit_energy_oracle(REF_V0, REF_CURRENT_MA, REF_RATE_BPS,
                                         REF_CAP_F, 48)
    assert energy == pytest.approx(math.fsum(oracle), rel=1e-9)
    assert v_end == pytest.approx(v_oracle, rel=1e-9)
    # arithmetic-series view: 48 flat bits minus the drain correction
    assert energy == pytest.approx(7.795 - 0.040, abs=2e-3)
    assert energy == pytest.approx(7.7555, rel=1e-3)


def test_segment_zero_bits():
    energy, v_end = segment_energy(REF_V0, REF_CURRENT_MA, REF_RATE_BPS, 0,
                                   REF_CAP_F)
    assert energy == 0.0
    assert v_end == REF_V0


def test_segment_splitting_invariance():
    whole_e, whole_v = segment_energy(REF_V0, REF_CURRENT_MA, REF_RATE_BPS,
                                      1016, REF_CAP_F)
    for k in (1, 100, 508, 1015):
        e1, v_mid = segment_energy(REF_V0, REF_CURRENT_MA, REF_RATE_BPS, k,
                                   REF_CAP_F)
        e2, v_end = segment_energy(v_mid, REF_CURRENT_MA, REF_RATE_BPS,
                                   1016 - k, REF_CAP_F)
        assert e1 + e2 == pytest.approx(whole_e, rel=1e-9)
        assert v_end == pytest.approx(whole_v, rel=1e-9)


def test_segment_conservation():
    energy, v_end = segment_energy(REF_V0, REF_CURRENT_MA, REF_RATE_BPS, 1016,
                                   REF_CAP_F)
    recovered = math.sqrt(REF_V0 ** 2 - 2 * energy * 1e-6 / REF_CAP_F)
    assert v_end == pytest.approx(recovered, rel=1e-12)


# protocol_overhead ----------------------------------------------------------

@pytest.mark.parametrize("cap,rel", [(1.0, 2e-4), (1e4, 1e-6)])
def test_protocol_large_store_limit(layout, cap, rel):
    # droop scales as 1/C, so the constant-voltage values emerge in the limit
    frame = protocol_overhead(layout, 106, REF_CURRENT_MA, REF_RATE_BPS,
                              REF_V0, cap)
    per_bit_fast = first_bit_energy(REF_V0, REF_CURRENT_MA, REF_RATE_BPS)
    per_bit_preamble = REF_V0 * REF_CURRENT_MA * 1e-3 / layout.preamble_rate * 1e6
    assert frame.e_phy_uj == pytest.approx(48 * per_bit_preamble, rel=rel)
    assert frame.e_mhr_uj == pytest.approx(152 * per_bit_fast, rel=rel)
    assert frame.e_msdu_uj == pytest.approx(848 * per_bit_fast, rel=rel)
    assert frame.e_fcs_uj == pytest.approx(16 * per_bit_fast, rel=rel)


def test_protocol_reference_chain_matches_oracle(layout):
    frame = protocol_overhead(layout, 106, REF_CURRENT_MA, REF_RATE_BPS,
                              REF_V0, REF_CAP_F)
    # replay the four segments with the bit-by-bit reference recursion
    phy, v1 = bit_energy_oracle(REF_V0, REF_CURRENT_MA, layout.preamble_rate,
                                REF_CAP_F, 48)
    mhr, v2 = bit_energy_oracle(v1, REF_CURRENT_MA, REF_RATE_BPS, REF_CAP_F, 152)
    msdu, v3 = bit_energy_oracle(v2, REF_CURRENT_MA, REF_RATE_BPS, REF_CAP_F, 848)
    fcs, v4 = bit_energy_oracle(v3, REF_CURRENT_MA, REF_RATE_BPS, REF_CAP_F, 16)
    assert frame.e_phy_uj == pytest.approx(7.755, abs=2e-3)
    assert frame.e_phy_uj == pytest.approx(math.fsum(phy), rel=1e-9)
    assert frame.e_mhr_uj == pytest.approx(math.fsum(mhr), rel=1e-9)
    assert frame.e_msdu_uj == pytest.approx(math.fsum(msdu), rel=1e-9)
    assert frame.e_fcs_uj == pytest.approx(math.fsum(fcs), rel=1e-9)
    for got, want in ((frame.v_after_phy, v1), (frame.v_after_mhr, v2),
                      (frame.v_after_msdu, v3), (frame.v_after_fcs, v4)):
        assert got == pytest.approx(want, rel=1e-9)
    total = frame.total_energy_uj
    oracle_total = math.fsum(phy + mhr + msdu + fcs)
    assert total == pytest.approx(oracle_total, rel=1e-3)
    assert frame.protocol_energy_uj == pytest.approx(
        frame.e_phy_uj + frame.e_mhr_uj + frame.e_fcs_uj, rel=1e-12)


def test_protocol_voltages_strictly_decreasing(layout):
    frame = protocol_overhead(layout, 106, REF_CURRENT_MA, REF_RATE_BPS,
                              REF_V0, REF_CAP_F)
    chain = (REF_V0, frame.v_after_phy, frame.v_after_mhr, frame.v_after_msdu,
             frame.v_after_fcs)
    assert all(b < a for a, b in zip(chain, chain[1:]))


def test_protocol_empty_payload(layout):
    frame = protocol_overhead(layout, 0, REF_CURRENT_MA, REF_RATE_BPS, REF_V0,
                              REF_CAP_F)
    assert frame.e_msdu_uj == 0.0
    assert frame.v_after_msdu == frame.v_after_mhr


def test_protocol_rejects_oversized_payload(layout):
    with pytest.raises(ValueError):
        protocol_overhead(layout, 107, REF_CURRENT_MA, REF_RATE_BPS, REF_V0,
                          REF_CAP_F)


def test_protocol_depletion_names_segment(layout):
    with pytest.raises(EscDepletedError) as excinfo:
        protocol_overhead(layout, 106, REF_CURRENT_MA, REF_RATE_BPS, REF_V0,
                          2e-6)
    assert excinfo.value.segment in ("phy", "mhr", "msdu", "fcs")
    assert excinfo.value.bit is not None


# burst_energy ---------------------------------------------------------------

def test_burst_single_packet_large_store_decomposition(sig_profile, layout):
    # with a huge capacitor the burst decomposes into the constant-voltage
    # lump energies of the packet module
    initial = EscState(capacitance=1e4, voltage=REF_V0)
    report = burst_energy([ref_plan()], initial, sig_profile, layout)
    current = current_from_tx_power(sig_profile, REF_TX_DBM)
    assert current == pytest.approx(REF_CURRENT_MA, rel=1e-12)
    airtime_ms = packet_airtime(layout, 106, REF_RATE_BPS).airtime
    expected = (wakeup_energy(sig_profile, REF_V0, 106)
                + REF_V0 * current * airtime_ms
                + sleep_energy(sig_profile, REF_V0, current))
    assert report.total_energy_uj == pytest.approx(expected, rel=1e-5)
    assert report.packets[0].interpacket_energy_uj == 0.0


def test_burst_two_packets_matches_manual_replay(sig_profile, layout):
    initial = EscState(capacitance=REF_CAP_F, voltage=REF_V0)
    plans = [ref_plan(), ref_plan()]
    report = burst_energy(plans, initial, sig_profile, layout, brownout_v=None)

    # independent replay of the same withdrawal sequence
    current = current_from_tx_power(sig_profile, REF_TX_DBM)
    total = wakeup_energy(sig_profile, REF_V0, 106)  # uJ
    v = math.sqrt(REF_V0 ** 2 - 2 * total * 1e-6 / REF_CAP_F)
    for j in (1, 2):
        for bits, rate in ((48, layout.preamble_rate), (152, REF_RATE_BPS),
                           (848, REF_RATE_BPS), (16, REF_RATE_BPS)):
            energies, v = bit_energy_oracle(v, current, rate, REF_CAP_F, bits)
            total += math.fsum(energies)
        if j == 1:
            lump = interpacket_overhead(sig_profile, v, current)
        else:
            lump = sleep_energy(sig_profile, v, current)
        total += lump
        v = math.sqrt(v ** 2 - 2 * lump * 1e-6 / REF_CAP_F)

    assert report.total_energy_uj == pytest.approx(total, rel=1e-9)
    assert report.final_state.voltage == pytest.approx(v, rel=1e-9)


def test_burst_conservation_identity(sig_profile, layout):
    rng = np.random.default_rng(3)
    for _ in range(10):
        cap = float(rng.uniform(0.5e-3, 20e-3))
        v0 = float(rng.uniform(2.5, 4.0))
        n = int(rng.integers(1, 6))
        plans = [PacketPlan(msdu_octets=int(rng.integers(0, 107)),
                            tx_power=float(rng.uniform(-10.0, 3.8)),
                            data_rate=float(rng.choice([250e3, 1e6, 2e6])))
                 for _ in range(n)]
        report = burst_energy(plans, EscState(cap, v0), sig_profile, layout,
                              brownout_v=None)
        recovered = math.sqrt(v0 ** 2
                              - 2 * report.total_energy_uj * 1e-6 / cap)
        assert report.final_state.voltage == pytest.approx(recovered, rel=1e-9)


def test_burst_cumulative_shape(sig_profile, layout):
    initial = EscState(capacitance=1e-3, voltage=3.0)
    plans = [ref_plan(40), ref_plan(40), ref_plan(40)]
    report = burst_energy(plans, initial, sig_profile, layout, brownout_v=None)
    packets, bits, cum = zip(*report.sample_rows())
    frame_bits = layout.frame_bits(40)
    assert len(cum) == 3 * frame_bits
    # nondecreasing overall, strictly here
    assert all(inc > 0 for inc in increments(cum))
    # first sample already contains the wake-up lump
    assert cum[0] > wakeup_energy(sig_profile, 3.0, 40)
    # boundary jumps exceed neighbouring per-bit increments: a lump landed
    for j in (2, 3):
        boundary = packets.index(j)
        jump = cum[boundary] - cum[boundary - 1]
        per_bit = cum[boundary + 1] - cum[boundary]
        assert jump > 10 * per_bit
    # per-bit increments strictly decrease inside each constant-rate segment
    segment_starts = (0, 48, 48 + 152, 48 + 152 + 320)
    segment_ends = (48, 48 + 152, 48 + 152 + 320, frame_bits)
    for j in (1, 2, 3):
        base = packets.index(j)
        assert bits[base] == 1
        for lo, hi in zip(segment_starts, segment_ends):
            inc = increments(cum[base + lo:base + hi])
            assert all(b < a for a, b in zip(inc, inc[1:]))


def test_burst_gap_accounting_default_vs_reduced(sig_profile, layout):
    initial = EscState(capacitance=5e-3, voltage=3.0)
    plans = [ref_plan(20)] * 3
    full = burst_energy(plans, initial, sig_profile, layout)
    reduced = burst_energy(plans, initial, sig_profile, layout,
                           include_final_gap=False)
    assert [p.interpacket_energy_uj > 0 for p in full.packets] == \
        [True, True, False]
    assert [p.interpacket_energy_uj > 0 for p in reduced.packets] == \
        [True, False, False]
    assert reduced.total_energy_uj < full.total_energy_uj
    assert reduced.final_state.voltage > full.final_state.voltage
    # two packets under reduced accounting: no gap is charged at all
    two = burst_energy(plans[:2], initial, sig_profile, layout,
                       include_final_gap=False)
    assert all(p.interpacket_energy_uj == 0.0 for p in two.packets)


def test_burst_wake_and_sleep_assignment(sig_profile, layout):
    initial = EscState(capacitance=5e-3, voltage=3.0)
    report = burst_energy([ref_plan(20)] * 3, initial, sig_profile, layout)
    wake = [p.wake_energy_uj for p in report.packets]
    sleep = [p.sleep_energy_uj for p in report.packets]
    assert wake[0] > 0 and wake[1] == wake[2] == 0.0
    assert sleep[2] > 0 and sleep[0] == sleep[1] == 0.0
    assert wake[0] == pytest.approx(wakeup_energy(sig_profile, 3.0, 20),
                                    rel=1e-12)
    # sleep is evaluated at the last packet's end-of-frame voltage
    assert sleep[2] == pytest.approx(
        sleep_energy(sig_profile, report.packets[2].frame.v_after_fcs,
                     report.packets[2].supply_current_ma), rel=1e-12)


def test_burst_voltages_strictly_decreasing(sig_profile, layout):
    initial = EscState(capacitance=1e-3, voltage=3.0)
    report = burst_energy([ref_plan(30)] * 4, initial, sig_profile, layout,
                          brownout_v=None)
    chain = [initial.voltage]
    for p in report.packets:
        chain.extend((p.v_start, p.frame.v_after_phy, p.frame.v_after_mhr,
                      p.frame.v_after_msdu, p.frame.v_after_fcs))
    chain.append(report.final_state.voltage)
    assert all(b < a for a, b in zip(chain, chain[1:]))


def test_burst_rejects_empty_plan(sig_profile, layout):
    with pytest.raises(ValueError, match="plan must contain >= 1 packet"):
        burst_energy([], EscState(1e-3, 2.5), sig_profile, layout)


def test_burst_depletion_reports_location(sig_profile, layout):
    initial = EscState(capacitance=0.05e-3, voltage=2.2)
    with pytest.raises(EscDepletedError) as excinfo:
        burst_energy([ref_plan()] * 4, initial, sig_profile, layout,
                     brownout_v=None)
    assert excinfo.value.packet is not None
    assert excinfo.value.segment is not None


def test_burst_brownout_warning(sig_profile, layout):
    initial = EscState(capacitance=REF_CAP_F, voltage=REF_V0)
    with pytest.warns(BrownoutWarning):
        burst_energy([ref_plan(), ref_plan()], initial, sig_profile, layout)


def test_burst_no_warning_when_disabled_or_high(sig_profile, layout):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        burst_energy([ref_plan(), ref_plan()],
                     EscState(REF_CAP_F, REF_V0), sig_profile, layout,
                     brownout_v=None)
        burst_energy([ref_plan(10)], EscState(10e-3, 3.5), sig_profile, layout)


def test_burst_sample_recording_can_be_skipped(sig_profile, layout):
    initial = EscState(capacitance=1e-3, voltage=3.0)
    full = burst_energy([ref_plan(30)] * 2, initial, sig_profile, layout,
                        brownout_v=None)
    slim = burst_energy([ref_plan(30)] * 2, initial, sig_profile, layout,
                        brownout_v=None, record_samples=False)
    assert list(slim.sample_rows()) == []
    assert slim.total_energy_uj == full.total_energy_uj
    assert slim.final_state.voltage == full.final_state.voltage


def reference_samples(plans, initial, profile, layout, include_final_gap):
    """The (packet, bit, uJ) rows recorded while the burst drains: a
    CheckedDrain appends each running total to a list as it drains the
    four segments of every frame."""
    drain = CheckedDrain(initial.voltage, initial.capacitance)
    drain.withdraw(wakeup_energy(profile, drain.voltage,
                                 plans[0].msdu_octets) * 1e-6)
    rows = []
    for j, plan in enumerate(plans, 1):
        current_ma = current_from_tx_power(profile, plan.tx_power)
        cum = []
        for bits, rate in ((layout.preamble_bits, layout.preamble_rate),
                           (8 * layout.mhr_octets, plan.data_rate),
                           (8 * plan.msdu_octets, plan.data_rate),
                           (8 * layout.fcs_octets, plan.data_rate)):
            drain.drain_bits(bits, current_ma * 1e-3 / rate, out=cum)
        rows += [(j, bit, total * 1e6) for bit, total in enumerate(cum, 1)]
        if j < len(plans) and (include_final_gap or j < len(plans) - 1):
            drain.withdraw(interpacket_overhead(profile, drain.voltage,
                                                current_ma) * 1e-6)
    return rows


mixed_plans = st.lists(
    st.builds(PacketPlan, msdu_octets=st.integers(0, 106),
              tx_power=st.floats(-10.0, 3.5),
              data_rate=st.sampled_from([250e3, 1e6, 2e6])),
    min_size=1, max_size=6)


@settings(deadline=None)
@given(plans=mixed_plans, capacitance=st.floats(1e-3, 22e-3),
       v0=st.floats(2.5, 3.6), include_final_gap=st.booleans())
# The last frame ends with 0.09 % of the store's energy left, so the
# replay meets square-root arguments close to zero.
@example(plans=[PacketPlan(106, 3.5, 250e3)] * 6, capacitance=2e-4, v0=2.5,
         include_final_gap=True)
def test_burst_samples_equal_per_bit_reference(plans, capacitance, v0,
                                               include_final_gap):
    sig_profile = DeviceProfile(alpha1=ALPHA1, alpha2=ALPHA2, alpha3=ALPHA3,
                                alpha4=ALPHA4)
    layout = FrameLayout()
    initial = EscState(capacitance, v0)
    report = burst_energy(plans, initial, sig_profile, layout,
                          include_final_gap=include_final_gap,
                          brownout_v=None)
    rows = list(report.sample_rows())
    assert rows == reference_samples(plans, initial, sig_profile, layout,
                                     include_final_gap)
    assert all(type(packet) is int and type(bit) is int
               and type(value) is float for packet, bit, value in rows)
    # Every withdrawal is >= 0, so the voltage never rises along the burst.
    chain = [v0]
    for p in report.packets:
        chain += [p.v_start, p.frame.v_after_phy, p.frame.v_after_mhr,
                  p.frame.v_after_msdu, p.frame.v_after_fcs]
    chain.append(report.final_state.voltage)
    assert all(a >= b for a, b in zip(chain, chain[1:])), chain
    slim = burst_energy(plans, initial, sig_profile, layout,
                        include_final_gap=include_final_gap,
                        brownout_v=None, record_samples=False)
    assert list(slim.sample_rows()) == []


class CheckedDrain(_Drain):
    """The per-bit recursion with a depletion test after every bit: the
    reference that ``_Drain.drain_bits`` must equal float for float."""

    __slots__ = ()

    def drain_bits(self, n_bits, charge_per_bit, *, packet=None,
                   segment=None, out=None):
        start = total = self.total_joules
        for i in range(n_bits):
            total += charge_per_bit * math.sqrt(self._w0 - self._c2 * total)
            if self._w0 - self._c2 * total <= 0.0:
                self.total_joules = total
                where = f" in packet {packet}" if packet is not None else ""
                raise EscDepletedError(
                    f"energy store depleted at bit {i + 1} of the "
                    f"{segment or 'segment'}{where}",
                    packet=packet, segment=segment, bit=i + 1)
            if out is not None:
                out.append(total)
        self.total_joules = total
        return total - start


def run_on(drain_class, call):
    """``call()`` with ``burst._Drain`` replaced by ``drain_class``: its
    result, or the EscDepletedError it raised as (message, packet,
    segment, bit), and the withdrawal total its last drain holds."""
    drains = []

    class Recorded(drain_class):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            drains.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(burst_module, "_Drain", Recorded)
        try:
            result = call()
        except EscDepletedError as exc:
            result = (str(exc), exc.packet, exc.segment, exc.bit)
    return result, drains[-1].total_joules


small_stores = st.floats(-9.0, -2.0).map(lambda e: 10.0 ** e)


@settings(deadline=None, max_examples=150)
@given(plans=mixed_plans, capacitance=small_stores, v0=st.floats(0.5, 3.6),
       current_ma=st.floats(0.0, 30.0), n_bits=st.integers(0, 3000),
       include_final_gap=st.booleans())
@example(plans=[PacketPlan(106, 3.5, 250e3)], capacitance=1e-9, v0=3.0,
         current_ma=20.0, n_bits=1, include_final_gap=True)
@example(plans=[PacketPlan(106, 3.5, 250e3)] * 2, capacitance=1e-5, v0=3.0,
         current_ma=20.0, n_bits=1063, include_final_gap=True)
def test_drain_equals_the_checked_reference(plans, capacitance, v0,
                                            current_ma, n_bits,
                                            include_final_gap):
    profile = DeviceProfile(alpha1=ALPHA1, alpha2=ALPHA2, alpha3=ALPHA3,
                            alpha4=ALPHA4)
    layout = FrameLayout()
    calls = [
        lambda: segment_energy(v0, current_ma, 250e3, n_bits, capacitance),
        lambda: protocol_overhead(layout, plans[0].msdu_octets, current_ma,
                                  plans[0].data_rate, v0, capacitance),
        *(lambda record=record: burst_energy(
            plans, EscState(capacitance, v0), profile, layout,
            include_final_gap=include_final_gap, brownout_v=None,
            record_samples=record) for record in (True, False))]
    for call in calls:
        got, got_total = run_on(_Drain, call)
        expected, expected_total = run_on(CheckedDrain, call)
        assert got == expected
        assert got_total == expected_total


def assert_segment_matches_reference(v0, current_ma, n_bits, capacitance):
    call = lambda: segment_energy(v0, current_ma, 250e3, n_bits, capacitance)
    assert run_on(_Drain, call) == run_on(CheckedDrain, call)


def first_depleted_bit(v0, current_ma, capacitance, n_bits):
    drain = CheckedDrain(v0, capacitance)
    try:
        drain.drain_bits(n_bits, current_ma * 1e-3 / 250e3)
    except EscDepletedError as exc:
        return exc.bit
    return None


def depleting_store(bit, v0=2.5, current_ma=20.0):
    """A capacitance on which the checked drain first leaves a square-root
    argument <= 0 at ``bit``: bisected on log C, since a larger store
    depletes no earlier."""
    lo, hi = -12.0, -2.0
    for _ in range(200):
        mid = (lo + hi) / 2
        got = first_depleted_bit(v0, current_ma, 10.0 ** mid, bit + 1)
        if got == bit:
            return 10.0 ** mid
        if got is not None and got < bit:
            lo = mid
        else:
            hi = mid
    raise AssertionError(f"no store depletes at bit {bit}")


def test_drain_residue_equals_the_checked_reference():
    # Every remainder of the 16-statement body, on a store that does not
    # deplete.
    for n_bits in range(49):
        assert_segment_matches_reference(3.0, 20.0, n_bits, 1e-3)


@pytest.mark.parametrize("r", range(1, 17))
def test_drain_depletes_at_every_position_of_a_block(r):
    # Bit 32 + r lies in the third pass of the 16-statement body (80 bits
    # make five passes and no remainder).
    cap = depleting_store(32 + r)
    assert first_depleted_bit(2.5, 20.0, cap, 80) == 32 + r
    assert_segment_matches_reference(2.5, 20.0, 80, cap)
    if r < 16:
        # Bit 48 + r lies in the remainder loop of a 63-bit segment (three
        # passes, then 15 single bits); that loop holds at most 15 bits.
        cap = depleting_store(48 + r)
        assert first_depleted_bit(2.5, 20.0, cap, 63) == 48 + r
        assert_segment_matches_reference(2.5, 20.0, 63, cap)


@pytest.mark.parametrize("n_bits", [56, 64])
def test_drain_depletes_at_the_last_bit_of_a_segment(n_bits):
    # No later bit raises in math.sqrt: only the test after the segment
    # sees the depletion, at the end of an 8-bit remainder (a frame
    # segment's) or of a pass.
    cap = depleting_store(n_bits)
    assert_segment_matches_reference(2.5, 20.0, n_bits, cap)


def test_cycle_report_burst_equals_a_direct_burst(sig_profile, layout):
    initial = EscState(capacitance=2e-3, voltage=3.0)
    model = ChargeModel(v_oc=3.6, r_eq=800.0, capacitance=2e-3)
    template = ref_plan(40)
    plan = cycle_report(model, initial, 2.2, template, sig_profile, layout,
                        64, brownout_v=None)
    assert plan.n_packets > 1
    plans = [template] * plan.n_packets
    direct = burst_energy(plans, initial, sig_profile, layout, brownout_v=None)
    assert plan.burst.packets == direct.packets
    assert plan.burst.total_energy_uj == direct.total_energy_uj
    assert plan.burst.final_state == direct.final_state
    # The planned burst records no per-bit samples.
    assert list(plan.burst.sample_rows()) == []


def test_reports_and_plans_hash(sig_profile, layout):
    initial = EscState(capacitance=2e-3, voltage=3.0)
    plans = [ref_plan(30), ref_plan(106)]
    first, second = (burst_energy(plans, initial, sig_profile, layout,
                                  brownout_v=None) for _ in range(2))
    assert first == second and first is not second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    model = ChargeModel(v_oc=3.6, r_eq=800.0, capacitance=2e-3)
    cycle = cycle_report(model, initial, 2.2, ref_plan(40), sig_profile,
                         layout, 64, brownout_v=None)
    assert isinstance(hash(cycle), int)


def reference_ledger(plans, initial, profile, layout, include_final_gap):
    """The ledger built eagerly: every segment drained on a _Drain, with
    its energy and the voltage after it read at once."""
    drain = _Drain(initial.voltage, initial.capacitance)
    wake_uj = wakeup_energy(profile, drain.voltage, plans[0].msdu_octets)
    drain.withdraw(wake_uj * 1e-6)
    ledger = []
    for j, plan in enumerate(plans, 1):
        current_ma = current_from_tx_power(profile, plan.tx_power)
        v_start = drain.voltage
        energies, voltages = [], []
        for bits, rate in ((layout.preamble_bits, layout.preamble_rate),
                           (8 * layout.mhr_octets, plan.data_rate),
                           (8 * plan.msdu_octets, plan.data_rate),
                           (8 * layout.fcs_octets, plan.data_rate)):
            energies.append(
                drain.drain_bits(bits, current_ma * 1e-3 / rate) * 1e6)
            voltages.append(drain.voltage)
        gap_uj = sleep_uj = 0.0
        if j < len(plans):
            if include_final_gap or j < len(plans) - 1:
                gap_uj = interpacket_overhead(profile, drain.voltage, current_ma)
                drain.withdraw(gap_uj * 1e-6)
        else:
            sleep_uj = sleep_energy(profile, drain.voltage, current_ma)
            drain.withdraw(sleep_uj * 1e-6)
        ledger.append(PacketLedger(
            j, plan, current_ma, v_start, FrameBreakdown(*energies, *voltages),
            wake_uj if j == 1 else 0.0, gap_uj, sleep_uj))
    return tuple(ledger)


@settings(deadline=None)
@given(plans=mixed_plans, capacitance=st.floats(1e-3, 22e-3),
       v0=st.floats(2.5, 3.6), include_final_gap=st.booleans(),
       record_samples=st.booleans())
def test_lazy_ledger_equals_an_eager_ledger(plans, capacitance, v0,
                                            include_final_gap, record_samples):
    profile = DeviceProfile(alpha1=ALPHA1, alpha2=ALPHA2, alpha3=ALPHA3,
                            alpha4=ALPHA4)
    layout = FrameLayout()
    initial = EscState(capacitance, v0)
    report = burst_energy(plans, initial, profile, layout,
                          include_final_gap=include_final_gap,
                          brownout_v=None, record_samples=record_samples)
    expected = reference_ledger(plans, initial, profile, layout,
                                include_final_gap)
    assert report.packets == expected
    # repr tells -0.0 from 0.0, so every float is the same float.
    assert repr(report.packets) == repr(expected)


def test_cycle_report_builds_the_ledger_on_first_read(sig_profile, layout,
                                                      monkeypatch):
    made = []

    def counted(*args, **kwargs):
        made.append(1)
        return PacketLedger(*args, **kwargs)

    monkeypatch.setattr(burst_module, "PacketLedger", counted)
    model = ChargeModel(v_oc=3.6, r_eq=800.0, capacitance=2e-3)
    plan = cycle_report(model, EscState(2e-3, 3.0), 2.2, ref_plan(40),
                        sig_profile, layout, 64, brownout_v=None)
    assert plan.n_packets > 1
    assert "packets" not in vars(plan.burst)
    assert made == []
    ledger = plan.burst.packets
    assert len(ledger) == len(made) == plan.n_packets
    assert plan.burst.packets is ledger


def test_bursts_with_different_ledgers_compare_unequal(sig_profile, layout):
    plans = [ref_plan(30), ref_plan(0)]
    initial = EscState(2e-3, 3.2)
    report = burst_energy(plans, initial, sig_profile, layout, brownout_v=None,
                          record_samples=False)
    assert report == burst_energy(plans, initial, sig_profile, layout,
                                  brownout_v=None, record_samples=False)
    # Only the first packet's plan differs: every total and the final
    # state are the same, the ledgers are not.
    first, second = report._rows
    other = dataclasses.replace(report,
                                _rows=((ref_plan(31), *first[1:]), second))
    assert other.total_energy_uj == report.total_energy_uj
    assert other.final_state == report.final_state
    assert other.packets != report.packets
    assert other != report


def test_each_distinct_power_is_converted_once(sig_profile, layout,
                                               monkeypatch):
    powers = []

    def counted(profile, tx_power):
        powers.append(tx_power)
        return current_from_tx_power(profile, tx_power)

    monkeypatch.setattr(burst_module, "current_from_tx_power", counted)
    plans = [ref_plan(30), PacketPlan(10, -5.0, 250e3), ref_plan(0),
             PacketPlan(10, -5.0, 1e6)]
    report = burst_energy(plans, EscState(2e-3, 3.2), sig_profile, layout,
                          brownout_v=None)
    assert powers == [REF_TX_DBM, -5.0]
    assert [p.supply_current_ma for p in report.packets] == [
        current_from_tx_power(sig_profile, plan.tx_power) for plan in plans]
    # The first packet whose power is unattainable still names the error.
    negative = PacketPlan(10, -35.9, 250e3)
    too_high = PacketPlan(10, ALPHA1 + 1.0, 250e3)
    for bad, message in (([negative, too_high], r"-35\.9 dBm must be >= 0"),
                         ([too_high, negative], "outside the attainable")):
        with pytest.raises(ValueError, match=message):
            burst_energy([ref_plan(30), *bad], EscState(2e-3, 3.2),
                         sig_profile, layout)


def test_burst_rejects_oversized_payload(sig_profile, layout):
    plan = PacketPlan(msdu_octets=200, tx_power=0.0, data_rate=250e3)
    with pytest.raises(ValueError, match="exceeds"):
        burst_energy([plan], EscState(1e-3, 3.0), sig_profile, layout)


def test_power_that_needs_a_negative_current_is_rejected(sig_profile, layout):
    # Under the suite's S-curve, -35.9 dBm lies inside the attainable
    # interval but maps to about -4.48 mA, which would raise the voltage.
    initial = EscState(REF_CAP_F, REF_V0)
    plan = PacketPlan(msdu_octets=10, tx_power=-35.9, data_rate=REF_RATE_BPS)
    for call in (lambda: current_from_tx_power(sig_profile, -35.9),
                 lambda: burst_energy([plan], initial, sig_profile, layout),
                 lambda: max_packets(initial, 1.8, plan, sig_profile, layout,
                                     8)):
        with pytest.raises(ValueError, match=r"-35\.9 dBm must be >= 0"):
            call()
