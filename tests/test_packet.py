import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfbudget import (DeviceProfile, interpacket_overhead, packet_airtime,
                      sleep_energy, wakeup_energy, wakeup_time)


# wakeup_time ----------------------------------------------------------------

def test_wakeup_time_reference_payloads(profile):
    assert wakeup_time(profile, 106) == pytest.approx(1.819, abs=1e-9)
    assert wakeup_time(profile, 1) == pytest.approx(1.399, abs=1e-9)
    assert wakeup_time(profile, 0) == pytest.approx(1.395, abs=1e-12)


def test_wakeup_time_reduction_claim(profile):
    # a 1-octet payload wakes ~23% faster than a full one
    reduction = 1.0 - wakeup_time(profile, 1) / wakeup_time(profile, 106)
    assert reduction == pytest.approx(0.231, abs=0.01)


def test_wakeup_time_rejects_negative_payload(profile):
    with pytest.raises(ValueError):
        wakeup_time(profile, -1)


# wakeup_energy --------------------------------------------------------------

def test_wakeup_energy_values(profile):
    assert wakeup_energy(profile, 2.0, 106) == pytest.approx(7.8 * 2.0 * 1.819,
                                                             rel=1e-12)
    assert wakeup_energy(profile, 2.0, 106) == pytest.approx(28.38, abs=5e-3)
    assert wakeup_energy(profile, 0.0, 50) == 0.0
    assert wakeup_energy(profile, 2.5, 0) == pytest.approx(27.20, abs=5e-3)


# sleep_energy ---------------------------------------------------------------

def test_sleep_energy_values(profile):
    assert sleep_energy(profile, 2.5, 16.24) == pytest.approx(9.135, rel=1e-9)
    assert sleep_energy(profile, 3.0, 0.0) == 0.0
    assert sleep_energy(profile, 1.8, 10.0) == pytest.approx(4.05, rel=1e-9)


# packet_airtime -------------------------------------------------------------

def test_airtime_one_octet(layout):
    timing = packet_airtime(layout, 1, 250e3)
    assert timing.airtime == pytest.approx(0.896, rel=1e-9)
    assert timing.preamble_time == pytest.approx(0.192, rel=1e-12)
    assert timing.effective_fraction == pytest.approx(0.0357, abs=2e-4)


def test_airtime_full_payload(layout):
    timing = packet_airtime(layout, 106, 250e3)
    assert timing.airtime == pytest.approx(4.256, rel=1e-9)
    assert timing.effective_fraction == pytest.approx(0.797, abs=1e-3)


def test_airtime_empty_payload(layout):
    timing = packet_airtime(layout, 0, 250e3)
    assert timing.airtime == pytest.approx(0.864, rel=1e-9)
    assert timing.effective_fraction == 0.0


def test_airtime_rejects_bad_rate(layout):
    with pytest.raises(ValueError):
        packet_airtime(layout, 10, 0.0)


def test_airtime_rejects_a_rate_so_small_the_airtime_overflows(layout):
    with pytest.raises(ValueError, match="airtime at 5e-324 bit/s must be a "
                                         "finite number, got inf"):
        packet_airtime(layout, 10, 5e-324)


def test_airtime_rejects_a_payload_the_frame_cannot_carry(layout):
    with pytest.raises(ValueError, match="msdu_octets 107 exceeds the layout "
                                         "maximum 106"):
        packet_airtime(layout, 107, 250e3)


def test_effective_fraction_closed_form(layout):
    # fraction == payload/(payload+overhead) damped by the preamble share
    for msdu in (1, 10, 50, 106):
        for rate in (250e3, 1e6, 2e6):
            timing = packet_airtime(layout, msdu, rate)
            bits = 8 * msdu
            expected = (bits / (bits + 168.0)) / (1.0 + 192e-6 * rate / (168.0 + bits))
            assert timing.effective_fraction == pytest.approx(expected, rel=1e-12)


def test_effective_fraction_increases_with_payload(layout):
    fractions = [packet_airtime(layout, m, 250e3).effective_fraction
                 for m in range(0, 107)]
    assert all(b > a for a, b in zip(fractions, fractions[1:]))


# interpacket_overhead -------------------------------------------------------

def test_interpacket_overhead_values(profile):
    # stored as 0.86 ms * 10.25 mA = 8.815 uJ/V rather than the rounded 8.8
    exact = 0.2 * 2.5 * (16.24 + 4.0) / 2.0 + 0.86 * 10.25 * 2.5
    assert interpacket_overhead(profile, 2.5, 16.24) == pytest.approx(exact,
                                                                      rel=1e-12)
    assert interpacket_overhead(profile, 2.5, 16.24) == pytest.approx(27.06,
                                                                      rel=5e-3)
    assert interpacket_overhead(profile, 0.0, 50.0) == 0.0
    assert interpacket_overhead(profile, 2.0, 10.0) == pytest.approx(20.4,
                                                                     rel=5e-3)


# shared properties ----------------------------------------------------------

@given(v=st.floats(min_value=0.0, max_value=5.0),
       k=st.floats(min_value=0.1, max_value=10.0))
def test_energies_scale_linearly_with_voltage(v, k):
    profile = DeviceProfile()
    assert wakeup_energy(profile, k * v, 50) == pytest.approx(
        k * wakeup_energy(profile, v, 50), rel=1e-9, abs=1e-12)
    assert sleep_energy(profile, k * v, 12.0) == pytest.approx(
        k * sleep_energy(profile, v, 12.0), rel=1e-9, abs=1e-12)
    assert interpacket_overhead(profile, k * v, 12.0) == pytest.approx(
        k * interpacket_overhead(profile, v, 12.0), rel=1e-9, abs=1e-12)
