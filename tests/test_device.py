import dataclasses

import pytest

from rfbudget import (DeviceProfile, EscState, FrameLayout, PacketPlan,
                      burst_energy, max_packets, packet_airtime,
                      protocol_overhead)


def test_frame_layout_default_overheads(layout):
    assert layout.overhead_psdu_octets == 21
    assert layout.preamble_bits == 48
    assert layout.frame_bits(106) == 48 + 8 * (19 + 106 + 2)
    assert layout.frame_bits(0) == 48 + 168


def test_frame_layout_rejects_bad_values():
    with pytest.raises(ValueError):
        FrameLayout(shr_octets=-1)
    with pytest.raises(ValueError):
        FrameLayout(preamble_rate=0.0)


NO_OVERHEAD = FrameLayout(shr_octets=0, phr_octets=0, mhr_octets=0,
                          fcs_octets=0)
STORE = EscState(capacitance=2.2e-3, voltage=3.3)


@pytest.mark.parametrize("send", [
    lambda profile, m: packet_airtime(NO_OVERHEAD, m, 250e3),
    lambda profile, m: protocol_overhead(NO_OVERHEAD, m, 10.0, 250e3, 3.3,
                                         2.2e-3),
    lambda profile, m: burst_energy([PacketPlan(m, 0.0, 250e3)], STORE,
                                    profile, NO_OVERHEAD),
    lambda profile, m: max_packets(STORE, 1.8, PacketPlan(m, 0.0, 250e3),
                                   profile, NO_OVERHEAD, 64),
], ids=["packet_airtime", "protocol_overhead", "burst_energy", "max_packets"])
def test_a_payload_that_leaves_a_frame_of_no_bits_is_refused(sig_profile,
                                                             send):
    # With no overhead octets an empty payload sends nothing, and the
    # airtime and the planner's limit would divide by its length.
    with pytest.raises(ValueError, match="msdu_octets 0 leaves a frame of "
                                         "no bits"):
        send(sig_profile, 0)
    send(sig_profile, 1)


def test_device_profile_defaults(profile):
    assert profile.wake_slope == 0.004
    assert profile.wake_intercept == 1.395
    assert profile.wake_current == 7.8
    assert profile.sleep_time == 0.45
    assert profile.txrx_off_current == 4.0
    assert profile.txrx_on_time == 0.86
    assert profile.txrx_on_current == 10.25
    assert profile.txrx_off_time == 0.2
    assert not profile.has_sigmoid


def test_device_profile_rejects_negative_constants():
    with pytest.raises(ValueError):
        DeviceProfile(wake_current=-1.0)
    with pytest.raises(ValueError):
        DeviceProfile(sleep_time=-0.1)


def test_device_profile_alphas_all_or_none():
    with pytest.raises(ValueError):
        DeviceProfile(alpha1=4.0)
    with pytest.raises(ValueError):
        DeviceProfile(alpha1=4.0, alpha2=40.0, alpha3=0.5)


def test_device_profile_alpha3_positive():
    with pytest.raises(ValueError):
        DeviceProfile(alpha1=4.0, alpha2=40.0, alpha3=0.0, alpha4=14.0)
    with pytest.raises(ValueError):
        DeviceProfile(alpha1=4.0, alpha2=40.0, alpha3=-0.5, alpha4=14.0)


def test_sigmoid_coefficients_requires_alphas(profile, sig_profile):
    with pytest.raises(ValueError):
        profile.sigmoid_coefficients()
    assert sig_profile.sigmoid_coefficients()[0] == 4.0


def test_esc_state_validation():
    with pytest.raises(ValueError):
        EscState(capacitance=0.0, voltage=1.0)
    with pytest.raises(ValueError):
        EscState(capacitance=1e-3, voltage=-0.1)
    state = EscState(capacitance=1e-3, voltage=0.0)
    assert state.voltage == 0.0


def test_packet_plan_validation():
    with pytest.raises(ValueError):
        PacketPlan(msdu_octets=-1, tx_power=0.0, data_rate=250e3)
    with pytest.raises(ValueError):
        PacketPlan(msdu_octets=10, tx_power=0.0, data_rate=0.0)


def test_records_are_immutable(profile, layout):
    with pytest.raises(dataclasses.FrozenInstanceError):
        profile.wake_current = 9.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        layout.mhr_octets = 20


@pytest.mark.parametrize("field", ["shr_octets", "phr_octets", "mhr_octets",
                                   "fcs_octets", "max_msdu_octets"])
@pytest.mark.parametrize("value", [5.5, 5.0, True])
def test_frame_layout_rejects_non_integer_octets(field, value):
    with pytest.raises(ValueError, match=field):
        FrameLayout(**{field: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), "2.5", None])
def test_esc_state_rejects_non_finite_voltage(value):
    with pytest.raises(ValueError, match="voltage"):
        EscState(capacitance=1e-3, voltage=value)
    with pytest.raises(ValueError, match="capacitance"):
        EscState(capacitance=value, voltage=1.0)


@pytest.mark.parametrize("kwargs, field", [
    ({"msdu_octets": 10.5}, "msdu_octets"),
    ({"msdu_octets": True}, "msdu_octets"),
    ({"tx_power": float("nan")}, "tx_power"),
    ({"data_rate": float("inf")}, "data_rate"),
])
def test_packet_plan_rejects_non_finite_fields(kwargs, field):
    base = {"msdu_octets": 10, "tx_power": 0.0, "data_rate": 250e3}
    with pytest.raises(ValueError, match=field):
        PacketPlan(**{**base, **kwargs})


def test_device_profile_rejects_non_finite_constants():
    with pytest.raises(ValueError, match="wake_current"):
        DeviceProfile(wake_current=float("nan"))
    with pytest.raises(ValueError, match="alpha1"):
        DeviceProfile(alpha1=float("inf"), alpha2=40.0, alpha3=0.5, alpha4=10.0)
