import contextlib
import decimal
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import rfbudget.burst
import rfbudget.cli
import rfbudget.planner
from rfbudget import (ChargeModel, DeviceProfile, EscDepletedError, EscState,
                      FrameLayout, PacketPlan, UnreachableVoltageError,
                      burst_energy, cycle_report, max_packets, packet_airtime,
                      recharge_plan, time_to_voltage, wakeup_time)
from rfbudget.radiopower import current_from_tx_power
from conftest import (ALPHA1, ALPHA2, ALPHA3, ALPHA4, REF_CAP_F, REF_RATE_BPS,
                      REF_TX_DBM, REF_V0)

CHARGER = ChargeModel(v_oc=2.6, r_eq=170.6, capacitance=2.2e-3)


def template(msdu=106, rate=REF_RATE_BPS, tx=REF_TX_DBM):
    return PacketPlan(msdu_octets=msdu, tx_power=tx, data_rate=rate)


def linear_scan_max_packets(initial, v_cutoff, plan, profile, layout, cap_n,
                            include_final_gap=True):
    best = 0
    for n in range(1, cap_n + 1):
        try:
            report = burst_energy([plan] * n, initial, profile, layout,
                                  include_final_gap=include_final_gap,
                                  brownout_v=None, record_samples=False)
        except EscDepletedError:
            break
        if report.final_state.voltage < v_cutoff:
            break
        best = n
    return best


# max_packets ----------------------------------------------------------------

def test_max_packets_zero_when_below_cutoff(sig_profile, layout):
    initial = EscState(capacitance=1e-3, voltage=1.8)
    assert max_packets(initial, 1.8, template(), sig_profile, layout, 10) == 0
    assert max_packets(initial, 2.5, template(), sig_profile, layout, 10) == 0
    # An empty store holds no packet, even at a cutoff of 0 V.
    empty = EscState(capacitance=1e-3, voltage=0.0)
    assert max_packets(empty, 0.0, template(), sig_profile, layout, 10) == 0


def test_max_packets_at_the_cutoff_counts_bursts_that_hold_it(sig_profile,
                                                               layout):
    # The store is so large that no burst moves the float voltage: every
    # burst of 1..3 packets ends exactly at the cutoff, so all 3 fit.
    initial = EscState(capacitance=1e16, voltage=2.5)
    plan = PacketPlan(20, 0.0, 250e3)
    for n in (1, 2, 3):
        report = burst_energy([plan] * n, initial, sig_profile, layout,
                              brownout_v=None, record_samples=False)
        assert report.final_state.voltage == 2.5
    assert max_packets(initial, 2.5, plan, sig_profile, layout, 3) == 3


@contextlib.contextmanager
def drained_bits():
    """The bit counts of every ``_Drain.drain_bits`` call in the block."""
    bits = []
    drain_bits = rfbudget.burst._Drain.drain_bits

    def counted(self, n_bits, *args, **kwargs):
        bits.append(n_bits)
        return drain_bits(self, n_bits, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rfbudget.burst._Drain, "drain_bits", counted)
        yield bits


def test_max_packets_unconstrained_with_huge_store(sig_profile, layout):
    initial = EscState(capacitance=1.0, voltage=2.5)
    with drained_bits() as bits:
        assert max_packets(initial, 0.0, template(), sig_profile, layout,
                           7) == 7
    # The search proves all 7 packets fit: nothing is walked.
    assert bits == []


def test_max_packets_with_a_huge_cap_walks(layout):
    # A cap_n near the float range, far beyond the limit on a burst's bits:
    # the search's jumps are clipped to the limit, the burst of packet 25
    # fails well below it, and the answer is the walk's.
    profile = DeviceProfile(alpha1=4.0, alpha2=40.0, alpha3=0.5, alpha4=7.5)
    args = (EscState(1e-3, 2.5), 1.8, PacketPlan(20, 0.0, 250000.0), profile,
            layout, 10**308)
    assert max_packets(*args) == 24
    assert walked(*args, True)[0] == 24


def test_max_packets_ends_a_huge_cap_at_the_limit(sig_profile, layout):
    # The store barely moves, so every burst up to the limit on a burst's
    # bits holds: the search proves that in a few dozen bracket steps and
    # max_packets names the limit instead of planning 10**12 packets.
    args = (EscState(1e16, 2.5), 1.0, PacketPlan(20, 0.0, 250e3),
            sig_profile, layout, 10**12)
    with drained_bits() as bits, pytest.raises(ValueError,
                                               match="MAX_BURST_BITS"):
        max_packets(*args)
    assert bits == []


def test_cli_plan_cycle_ends_a_huge_cap_in_one_error_line(tmp_path, capsys):
    config = tmp_path / "sig.json"
    config.write_text(json.dumps({"device": {
        "alpha1_dbm": ALPHA1, "alpha2_dbm": ALPHA2, "alpha3_per_ma": ALPHA3,
        "alpha4_ma": ALPHA4}}))
    status = rfbudget.cli.main([
        "plan-cycle", "--config", str(config), "--capacitance-f", "1e16",
        "--initial-v", "2.5", "--v-oc", "3.6", "--r-ohm", "800",
        "--cutoff-v", "1.0", "--msdu-octets", "20", "--tx-power-dbm", "0",
        "--data-rate-bps", "250000", "--cap-n", "1000000000000"])
    out, err = capsys.readouterr()
    assert status == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: cap_n 1000000000000 ")
    assert "MAX_BURST_BITS" in err


# 8 * 2**27 MHR bits alone fill the limit, so a 20-octet frame exceeds it.
LONG_FRAME = FrameLayout(mhr_octets=2**27)


def test_max_packets_refuses_a_frame_longer_than_the_limit(sig_profile):
    plan = PacketPlan(20, 0.0, 250e3)
    with drained_bits() as bits, pytest.raises(
            ValueError, match="a frame of 1073742048 bits .* MAX_BURST_BITS "
                              "= 1073741824 bits"):
        max_packets(EscState(2.2e-3, 3.3), 1.8, plan, sig_profile,
                    LONG_FRAME, 64)
    assert bits == []
    # A store below the cutoff holds no packet, whatever its frame.
    assert max_packets(EscState(2.2e-3, 1.5), 1.8, plan, sig_profile,
                       LONG_FRAME, 64) == 0


def test_cli_plan_cycle_refuses_a_frame_longer_than_the_limit(tmp_path,
                                                              capsys):
    config = tmp_path / "long.json"
    config.write_text(json.dumps({"device": {
        "alpha1_dbm": ALPHA1, "alpha2_dbm": ALPHA2, "alpha3_per_ma": ALPHA3,
        "alpha4_ma": ALPHA4}, "frame": {"mhr_octets": 2**27}}))
    status = rfbudget.cli.main([
        "plan-cycle", "--config", str(config), "--capacitance-f", "0.0022",
        "--initial-v", "3.3", "--v-oc", "3.6", "--r-ohm", "800",
        "--cutoff-v", "1.8", "--msdu-octets", "20", "--tx-power-dbm", "0",
        "--data-rate-bps", "250000", "--cap-n", "64"])
    out, err = capsys.readouterr()
    assert status == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: a frame of 1073742048 bits ")
    assert "MAX_BURST_BITS" in err


def test_max_packets_reference_scenario(sig_profile, layout):
    initial = EscState(capacitance=REF_CAP_F, voltage=REF_V0)
    got = max_packets(initial, 1.8, template(), sig_profile, layout, 16)
    want = linear_scan_max_packets(initial, 1.8, template(), sig_profile,
                                   layout, 16)
    assert got == want


def test_max_packets_randomized_binary_equals_linear(sig_profile, layout):
    for final_gap in (True, False):
        rng = np.random.default_rng(17)
        for _ in range(20):
            cap = float(rng.uniform(0.1e-3, 5e-3))
            v0 = float(rng.uniform(2.2, 4.0))
            cutoff = float(rng.uniform(1.0, v0 - 0.2))
            plan = template(msdu=int(rng.integers(2, 60)),
                            rate=float(rng.choice([250e3, 1e6, 2e6])),
                            tx=float(rng.uniform(-10.0, 3.8)))
            initial = EscState(capacitance=cap, voltage=v0)
            got = max_packets(initial, cutoff, plan, sig_profile, layout, 8,
                              include_final_gap=final_gap)
            want = linear_scan_max_packets(initial, cutoff, plan, sig_profile,
                                           layout, 8, final_gap)
            assert got == want


@settings(max_examples=60, deadline=None)
@given(cap=st.floats(min_value=1e-5, max_value=5e-3),
       v0=st.floats(min_value=0.5, max_value=4.0),
       cutoff_frac=st.floats(min_value=0.0, max_value=1.0),
       msdu=st.integers(min_value=0, max_value=106),
       rate=st.sampled_from([250e3, 1e6, 2e6]),
       final_gap=st.booleans())
def test_max_packets_equals_linear_scan_property(cap, v0, cutoff_frac, msdu,
                                                  rate, final_gap):
    profile = gap_profile("measured")
    initial = EscState(capacitance=cap, voltage=v0)
    cutoff = cutoff_frac * v0
    plan = template(msdu=msdu, rate=rate)
    got = max_packets(initial, cutoff, plan, profile, FrameLayout(), 12,
                      include_final_gap=final_gap)
    assert got == linear_scan_max_packets(initial, cutoff, plan, profile,
                                          FrameLayout(), 12, final_gap)


def test_max_packets_depletion_in_the_skipped_gap(layout):
    # Without the final gap the 2-packet burst fits, but the store depletes
    # in the gap after packet 1 that every longer burst must pay for.
    profile = gap_profile("long gap")
    initial = EscState(capacitance=1e-4, voltage=2.5)
    with pytest.raises(EscDepletedError) as info:
        burst_energy([template()] * 2, initial, profile, layout,
                     brownout_v=None, record_samples=False)
    assert (info.value.packet, info.value.segment) == (1, "inter-packet")
    got = max_packets(initial, 0.0, template(), profile, layout, 8,
                      include_final_gap=False)
    assert got == 2
    assert got == linear_scan_max_packets(initial, 0.0, template(), profile,
                                          layout, 8, include_final_gap=False)


# Gap overheads that test the planner's boundary: no gap energy, a gap
# below an ulp of the withdrawn total, gaps or sleep ramps long enough to
# deplete a small store, and a sleep ramp or a wake-up that draws nothing.
GAP_PROFILES = {
    "measured": {},
    "no gap energy": dict(txrx_off_time=0.0, txrx_on_time=0.0),
    "gap below an ulp": dict(txrx_off_time=1e-12, txrx_on_time=1e-12),
    "long gap": dict(txrx_on_time=80.0),
    "long sleep": dict(sleep_time=200.0),
    "no sleep ramp": dict(sleep_time=0.0),
    "no wake-up draw": dict(wake_current=0.0),
}


def gap_profile(kind):
    return DeviceProfile(alpha1=ALPHA1, alpha2=ALPHA2, alpha3=ALPHA3,
                         alpha4=ALPHA4, **GAP_PROFILES[kind])


def case(kind, cap_exp, v0, msdu, rate, tx=REF_TX_DBM):
    """A store of 10**cap_exp F at v0, a packet, a gap profile, a layout."""
    return (EscState(capacitance=10.0 ** cap_exp, voltage=v0),
            template(msdu=msdu, rate=rate, tx=tx), gap_profile(kind),
            FrameLayout())


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(sorted(GAP_PROFILES)),
       cap_exp=st.floats(min_value=-5.0, max_value=-2.3),
       v0=st.floats(min_value=1.0, max_value=3.6),
       msdu=st.integers(min_value=0, max_value=106),
       rate=st.sampled_from([250e3, 1e6, 2e6]),
       k=st.integers(min_value=1, max_value=10),
       cutoff_gap=st.booleans(),
       ulps=st.sampled_from([-1, 0, 1]))
def test_max_packets_equals_linear_scan_at_a_burst_boundary(
        kind, cap_exp, v0, msdu, rate, k, cutoff_gap, ulps):
    # The cutoff sits on the final voltage of a k-packet burst, with or
    # without the final gap, or one ulp either side of it.
    initial, plan, profile, layout = case(kind, cap_exp, v0, msdu, rate)
    try:
        cutoff = burst_energy([plan] * k, initial, profile, layout,
                              include_final_gap=cutoff_gap, brownout_v=None,
                              record_samples=False).final_state.voltage
    except EscDepletedError:
        cutoff = 0.0
    if ulps:
        cutoff = max(0.0, math.nextafter(cutoff, ulps * math.inf))
    for final_gap in (True, False):
        with drained_bits() as bits:
            got = max_packets(initial, cutoff, plan, profile, layout, 12,
                              include_final_gap=final_gap)
        event("walked" if bits else "settled")
        assert got == linear_scan_max_packets(initial, cutoff, plan, profile,
                                              layout, 12, final_gap)


@pytest.mark.parametrize("final_gap", [True, False])
@pytest.mark.parametrize("kind", ["no sleep ramp", "no wake-up draw"])
def test_max_packets_plans_a_lump_that_draws_nothing(layout, kind, final_gap):
    # A sleep ramp or a wake-up of zero energy is a step that leaves the
    # voltage where it is: the search settles N without draining a bit,
    # and N and the cycle report's count are the walk's.
    initial, plan, profile, _ = case(kind, -2.7, 2.5, 106, REF_RATE_BPS)
    with drained_bits() as bits:
        got = max_packets(initial, 1.8, plan, profile, layout, 300,
                          include_final_gap=final_gap)
    assert bits == []
    assert got == walked(initial, 1.8, plan, profile, layout, 300,
                         final_gap)[0] > 0
    assert cycle_report(CHARGER, initial, 1.8, plan, profile, layout, 300,
                        include_final_gap=final_gap).n_packets == got


def supply(plan, profile, layout):
    """The supply current and the frame's runs ``max_packets`` plans with."""
    current_ma = current_from_tx_power(profile, plan.tx_power)
    return current_ma, rfbudget.burst._runs(layout, plan.msdu_octets,
                                            plan.data_rate, current_ma)


def search(initial, cutoff, plan, profile, layout, cap_n):
    """``max_packets``' jump search: its tests of the bursts of at most
    ``cap_n`` packets."""
    return rfbudget.burst._search(
        profile, initial.voltage * initial.voltage, 2.0 / initial.capacitance,
        plan.msdu_octets, *supply(plan, profile, layout), cutoff, cap_n)


def proof_cutoff(initial, plan, profile, layout, cap_n):
    """The search's own lo at ``cap_n`` when every burst holds: the highest
    cutoff at which it proves the capped burst; 0.0 when it proves
    nothing."""
    return max((lo for k, (lo, _), _ in search(initial, 0.0, plan, profile,
                                               layout, cap_n) if k == cap_n),
               default=0.0)


@settings(max_examples=50, deadline=None)
@given(kind=st.sampled_from(sorted(GAP_PROFILES)),
       cap_exp=st.floats(min_value=-4.0, max_value=0.0),
       v0=st.floats(min_value=1.0, max_value=3.6),
       msdu=st.integers(min_value=0, max_value=106),
       rate=st.sampled_from([250e3, 1e6, 2e6]),
       cap_n=st.integers(min_value=1, max_value=40),
       anchor=st.sampled_from(["burst", "proof"]),
       ulps=st.sampled_from([-1, 0, 1]))
def test_max_packets_equals_linear_scan_at_the_cap(kind, cap_exp, v0, msdu,
                                                   rate, cap_n, anchor, ulps):
    # The cutoff sits on the final voltage of the cap_n-packet burst, where
    # the walk decides, or on the highest cutoff the search proves, or one
    # ulp either side of either.
    initial, plan, profile, layout = case(kind, cap_exp, v0, msdu, rate)
    for final_gap in (True, False):
        if anchor == "proof":
            cutoff = proof_cutoff(initial, plan, profile, layout, cap_n)
        else:
            try:
                cutoff = burst_energy(
                    [plan] * cap_n, initial, profile, layout,
                    include_final_gap=final_gap, brownout_v=None,
                    record_samples=False).final_state.voltage
            except EscDepletedError:
                cutoff = 0.0
        if ulps:
            cutoff = max(0.0, math.nextafter(cutoff, ulps * math.inf))
        with drained_bits() as bits:
            got = max_packets(initial, cutoff, plan, profile, layout, cap_n,
                              include_final_gap=final_gap)
        event("walked" if bits else "proved, nothing drained")
        assert got == linear_scan_max_packets(initial, cutoff, plan, profile,
                                              layout, cap_n, final_gap)


class Recording(rfbudget.burst._Drain):
    """A full store that records the bits of each ``drain_bits`` call."""

    def __init__(self, initial):
        super().__init__(initial.voltage, initial.capacitance)
        self.bits = []

    def drain_bits(self, n_bits, charge_per_bit, **kwargs):
        self.bits.append(n_bits)
        return super().drain_bits(n_bits, charge_per_bit, **kwargs)


def walk(initial, plan, profile, layout, drain=None):
    """``max_packets``' walk on ``drain``, by default a full store."""
    return rfbudget.burst._walk(
        drain or rfbudget.burst._Drain(initial.voltage, initial.capacitance),
        profile, plan.msdu_octets, *supply(plan, profile, layout))


def walked(initial, cutoff, plan, profile, layout, cap_n, final_gap):
    """``max_packets``' answer from its walk, without the search before it,
    and the Recording store the walk drained."""
    drain = Recording(initial)
    if initial.voltage < cutoff or initial.voltage == 0.0:
        # max_packets answers 0 before it tries any source.
        return 0, drain
    return rfbudget.burst._settle(walk(initial, plan, profile, layout, drain),
                                  cutoff, cap_n, final_gap), drain


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(GAP_PROFILES)),
       cap_exp=st.floats(min_value=-6.0, max_value=16.0),
       v0=st.floats(min_value=0.5, max_value=3.6),
       cutoff_frac=st.floats(min_value=0.0, max_value=1.0),
       msdu=st.integers(min_value=0, max_value=106),
       rate=st.sampled_from([250e3, 1e6, 2e6]),
       tx=st.floats(min_value=-10.0, max_value=3.5),
       cap_n=st.integers(min_value=1, max_value=40))
# A store so large that no burst moves its float voltage, with the cutoff at
# the initial voltage: only the rounding allowance keeps the search from
# proving the capped burst, and the walk decides.
@example(kind="measured", cap_exp=16.0, v0=2.5, cutoff_frac=1.0, msdu=20,
         rate=250e3, tx=0.0, cap_n=3)
def test_bracket_holds_every_voltage_the_walk_tests(
        kind, cap_exp, v0, cutoff_frac, msdu, rate, tx, cap_n):
    # Every post-sleep voltage the walk tests up to cap_n is accounted for,
    # from stores one packet empties to stores whose voltage never moves. A
    # burst the search yields lies inside its bracket, gapped and, for a
    # j = 1 test, gapless; a burst a jump skipped, to a burst proved to
    # hold, is at or above the cutoff. Wherever the search settles N, the
    # walk and max_packets return the same N.
    initial, plan, profile, layout = case(kind, cap_exp, v0, msdu, rate, tx)
    cutoff = cutoff_frac * v0
    tests = {k: (v, skipped) for k, (v, _), skipped in itertools.islice(
        walk(initial, plan, profile, layout), cap_n)}
    proved, ended = 0, False
    for k, (lo, hi), gapless in search(initial, cutoff, plan, profile, layout,
                                       cap_n):
        assert not ended
        v, skipped = tests[k]
        assert lo <= v <= hi
        if lo >= cutoff:
            assert all(tests[i][0] >= cutoff for i in range(proved + 1, k))
            event("skipped a burst" if k > proved + 1 else "tested a burst")
            proved = k
        else:
            # A test that does not hold is the last, of the burst after the
            # last that held.
            assert k == proved + 1
            ended = True
        bracket = gapless and gapless()
        if bracket:
            (v, _), (lo, hi) = skipped(), bracket
            assert lo <= v <= hi
    for final_gap in (True, False):
        n, _ = walked(initial, cutoff, plan, profile, layout, cap_n,
                      final_gap)
        settled = rfbudget.burst._settle(
            search(initial, cutoff, plan, profile, layout, cap_n), cutoff,
            cap_n, final_gap)
        event("undecided" if settled is None else "settled")
        assert settled in (None, n)
        assert max_packets(initial, cutoff, plan, profile, layout, cap_n,
                           include_final_gap=final_gap) == n


def real_voltages(initial, plan, profile, layout, ks):
    """For each burst k in ``ks``, its post-sleep voltage with every gap and
    without the gap before packet k (None for k = 1), from a 40-digit
    decimal replay of the walk's withdrawals: the real recursion that the
    search brackets."""
    current_ma, runs = supply(plan, profile, layout)
    with decimal.localcontext() as context:
        context.prec = 40
        real = decimal.Decimal
        w0 = real(initial.voltage * initial.voltage)
        c2 = real(2.0 / initial.capacitance)
        wake, gap, sleep = (real(joules) * real(1e-6) for joules in (
            rfbudget.burst.wakeup_energy(profile, 1.0, plan.msdu_octets),
            rfbudget.burst.interpacket_overhead(profile, 1.0, current_ma),
            rfbudget.burst.sleep_energy(profile, 1.0, current_ma)))

        def voltage(total):
            return (w0 - c2 * total).sqrt()

        def frame(total):
            for n_bits, charge in runs:
                charge = real(charge)
                for _ in range(n_bits):
                    total += charge * voltage(total)
            return total

        def slept(total):
            return voltage(total + sleep * voltage(total))

        before, after = None, frame(wake * voltage(real(0)))
        out = {}
        for k in range(1, max(ks) + 1):
            if k > 1:
                before = after
                after = frame(before + gap * voltage(before))
            if k in ks:
                out[k] = (slept(after),
                          None if before is None else slept(frame(before)))
        return out


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(sorted(GAP_PROFILES)),
       cap_exp=st.floats(min_value=-5.0, max_value=-2.0),
       v0=st.floats(min_value=0.5, max_value=3.6),
       cutoff_frac=st.floats(min_value=0.0, max_value=1.0),
       msdu=st.integers(min_value=0, max_value=106),
       rate=st.sampled_from([250e3, 1e6, 2e6]),
       tx=st.floats(min_value=-10.0, max_value=3.5))
def test_bracket_holds_the_real_and_the_float_voltage(
        kind, cap_exp, v0, cutoff_frac, msdu, rate, tx):
    # The search brackets the real-number recursion, and its allowance
    # covers the walk's float rounding: both post-sleep voltages of every
    # burst it yields lie inside its bracket, on stores of up to about 2e4
    # bits, near-empty ones included.
    initial, plan, profile, layout = case(kind, cap_exp, v0, msdu, rate, tx)
    cap_n = max(1, 20000 // layout.frame_bits(msdu))
    yielded = list(search(initial, cutoff_frac * v0, plan, profile, layout,
                          cap_n))
    event("yielded" if yielded else "nothing yielded")
    if not yielded:
        return
    real = real_voltages(initial, plan, profile, layout,
                         {k for k, _, _ in yielded})
    tests = {k: (v, skipped) for k, (v, _), skipped in itertools.islice(
        walk(initial, plan, profile, layout), yielded[-1][0])}
    for k, (lo, hi), gapless in yielded:
        (v, skipped), (real_v, real_gapless) = tests[k], real[k]
        assert lo <= v <= hi
        assert lo <= real_v <= hi
        bracket = gapless and gapless()
        if bracket and real_gapless is not None:
            (v, _), (lo, hi) = skipped(), bracket
            assert lo <= v <= hi
            assert lo <= real_gapless <= hi


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(sorted(GAP_PROFILES)),
       cap_exp=st.floats(min_value=-6.0, max_value=16.0),
       v0=st.floats(min_value=0.5, max_value=3.6),
       msdu=st.integers(min_value=0, max_value=106),
       rate=st.sampled_from([250e3, 1e6, 2e6]),
       tx=st.floats(min_value=-10.0, max_value=3.5),
       k=st.integers(min_value=1, max_value=40))
# A 1 uF store that the wake-up alone empties, and a store that the gap
# before packet 2 empties, though the gapless 2-packet burst holds.
@example(kind="measured", cap_exp=-6.0, v0=2.5, msdu=20, rate=250e3, tx=0.0,
         k=1)
@example(kind="long gap", cap_exp=-4.0, v0=2.5, msdu=20, rate=250e3, tx=0.0,
         k=40)
def test_walk_makes_the_floats_of_burst_energy(kind, cap_exp, v0, msdu, rate,
                                               tx, k):
    # The walk's k-th test, gapped and gapless, is the final voltage of the
    # k-packet burst_energy, and -inf exactly when that burst depletes the
    # store. The walk ends after its first depleted test.
    initial, plan, profile, layout = case(kind, cap_exp, v0, msdu, rate, tx)
    tests = list(itertools.islice(walk(initial, plan, profile, layout), k))
    assert [n for n, _, _ in tests] == list(range(1, len(tests) + 1))
    _, gapped, skipped = tests[-1]
    assert all(v > -math.inf for _, (v, _), _ in tests[:-1])
    assert len(tests) == k or gapped[0] == -math.inf
    event("depleted" if gapped[0] == -math.inf else "held")
    for final_gap, (lo, hi) in ((True, gapped), (False, skipped())):
        try:
            want = burst_energy([plan] * len(tests), initial, profile, layout,
                                include_final_gap=final_gap, brownout_v=None,
                                record_samples=False).final_state.voltage
        except EscDepletedError:
            want = -math.inf
        assert lo == hi == want


def rounded_up(total, energy):
    """total + energy rounded toward +inf: TwoSum gives the exact error of
    the nearest sum, and a positive error means it rounded down."""
    s = total + energy
    part = s - total
    if (total - (s - part)) + (energy - part) > 0.0:
        return math.nextafter(s, math.inf)
    return s


def test_bracket_covers_a_walk_whose_sums_all_round_up(sig_profile, layout):
    # The allowance covers every rounding the error model admits, not only
    # the walk's round-to-nearest errors, which mostly cancel. This replay
    # of the walk rounds each addition to the total upward, so its voltage
    # sags steadily below the real recursion's: over thousands of packets
    # the sag outgrows the bracket's own outward rounding, and only the
    # allowance still covers it at the bursts the search proves.
    initial = EscState(capacitance=0.6, voltage=3.6)
    plan = template(msdu=0, rate=2e6)
    current_ma, runs = supply(plan, sig_profile, layout)
    w0, c2 = initial.voltage ** 2, 2.0 / initial.capacitance

    def voltage(total):
        return math.sqrt(w0 - c2 * total)

    total = rounded_up(0.0, rfbudget.burst.wakeup_energy(
        sig_profile, voltage(0.0), 0) * 1e-6)
    brackets = {k: bracket for k, bracket, _ in search(
        initial, 0.0, plan, sig_profile, layout, 3000)}
    assert 3000 in brackets
    for k in range(1, 3001):
        if k > 1:
            total = rounded_up(total, rfbudget.burst.interpacket_overhead(
                sig_profile, voltage(total), current_ma) * 1e-6)
        for n_bits, charge in runs:
            for _ in range(n_bits):
                total = rounded_up(total, charge * voltage(total))
        slept = rounded_up(total, rfbudget.burst.sleep_energy(
            sig_profile, voltage(total), current_ma) * 1e-6)
        if k in brackets:
            lo, hi = brackets[k]
            assert lo <= voltage(slept) <= hi, k


@pytest.mark.parametrize("final_gap", [True, False])
@pytest.mark.parametrize("cap_n", [1, 5, 300])
def test_max_packets_drains_each_packet_once(sig_profile, layout, final_gap,
                                             cap_n):
    # The walk drains the N answer packets and the packet that failed;
    # without the final gap it drains that packet once more, gapless.
    initial = EscState(capacitance=2e-3, voltage=2.5)
    n, drain = walked(initial, 1.8, template(), sig_profile, layout, cap_n,
                      final_gap)
    assert n == min(cap_n, 17)
    frames = n + 1 if final_gap else n + 2
    assert sum(drain.bits) <= frames * layout.frame_bits(
        template().msdu_octets)


@pytest.mark.parametrize("final_gap", [True, False])
def test_max_packets_walks_only_on_a_near_tie(sig_profile, layout, final_gap):
    # Far from the cutoff the bracket settles N and nothing is drained. A
    # cutoff exactly on the 17-packet burst's final voltage falls inside
    # its bracket, so the walk decides.
    initial = EscState(capacitance=2e-3, voltage=2.5)
    with drained_bits() as bits:
        assert max_packets(initial, 1.8, template(), sig_profile, layout, 300,
                           include_final_gap=final_gap) == 17
    assert bits == []
    tie = burst_energy([template()] * 17, initial, sig_profile, layout,
                       include_final_gap=final_gap, brownout_v=None,
                       record_samples=False).final_state.voltage
    with drained_bits() as bits:
        got = max_packets(initial, tie, template(), sig_profile, layout, 300,
                          include_final_gap=final_gap)
    assert sum(bits) > 0
    assert got == linear_scan_max_packets(initial, tie, template(),
                                          sig_profile, layout, 300, final_gap)


def test_planner_simulates_each_question_once(sig_profile, layout, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return burst_energy(*args, **kwargs)

    monkeypatch.setattr(rfbudget.planner, "burst_energy", counted)
    monkeypatch.setattr(rfbudget.burst, "burst_energy", counted)
    model = ChargeModel(v_oc=3.0, r_eq=800.0, capacitance=2e-3)
    initial = EscState(capacitance=2e-3, voltage=2.5)
    for final_gap in (True, False):
        calls.clear()
        n = max_packets(initial, 1.8, template(), sig_profile, layout, 300,
                        include_final_gap=final_gap)
        assert 0 < n < 300
        assert calls == []
        plan = cycle_report(model, initial, 1.8, template(), sig_profile,
                            layout, 300, include_final_gap=final_gap,
                            brownout_v=None)
        assert plan.n_packets == n
        assert len(calls) == 1


def test_final_voltage_decreases_with_packet_count(sig_profile, layout):
    initial = EscState(capacitance=2e-3, voltage=3.3)
    finals = []
    for n in range(1, 7):
        report = burst_energy([template(40)] * n, initial, sig_profile,
                              layout, brownout_v=None, record_samples=False)
        finals.append(report.final_state.voltage)
    assert all(b < a for a, b in zip(finals, finals[1:]))


def test_max_packets_validates_arguments(sig_profile, layout):
    initial = EscState(capacitance=1e-3, voltage=2.5)
    with pytest.raises(ValueError):
        max_packets(initial, 1.8, template(), sig_profile, layout, 0)
    with pytest.raises(ValueError):
        max_packets(initial, -0.5, template(), sig_profile, layout, 4)


# recharge_plan ---------------------------------------------------------------

def test_recharge_zero_interval():
    assert recharge_plan(CHARGER, 1.5, 1.5) == 0.0


def test_recharge_reference_interval():
    t = recharge_plan(CHARGER, 0.0, 2.6 * (1.0 - np.exp(-1.0)))
    assert t == pytest.approx(CHARGER.tau, rel=1e-9)
    assert t == pytest.approx(0.3753, abs=2e-4)


def test_recharge_rejects_unreachable():
    with pytest.raises(UnreachableVoltageError):
        recharge_plan(CHARGER, 1.0, 2.6)
    with pytest.raises(ValueError):
        recharge_plan(CHARGER, 2.0, 1.0)


def test_recharge_is_time_difference():
    lo, hi = 1.0, 2.2
    expected = time_to_voltage(CHARGER, hi) - time_to_voltage(CHARGER, lo)
    assert recharge_plan(CHARGER, lo, hi) == pytest.approx(expected, rel=1e-12)


# cycle_report ----------------------------------------------------------------

def test_cycle_report_zero_packets(sig_profile, layout):
    initial = EscState(capacitance=1e-3, voltage=1.2)
    plan = cycle_report(CHARGER, initial, 1.8, template(), sig_profile,
                        layout, 8)
    assert plan.n_packets == 0
    assert plan.burst is None
    assert plan.recharge_time == 0.0
    assert plan.duty_cycle == 0.0
    assert plan.active_time == 0.0


def test_cycle_report_single_packet_active_time(sig_profile, layout):
    # huge store: one packet fits, no gaps, so the active time is exactly
    # wake + airtime + sleep
    model = ChargeModel(v_oc=4.0, r_eq=500.0, capacitance=1.0)
    initial = EscState(capacitance=1.0, voltage=2.5)
    plan = cycle_report(model, initial, 2.4995, template(), sig_profile,
                        layout, 1)
    assert plan.n_packets == 1
    expected_ms = (wakeup_time(sig_profile, 106)
                   + packet_airtime(layout, 106, REF_RATE_BPS).airtime
                   + sig_profile.sleep_time)
    assert plan.active_time == pytest.approx(expected_ms * 1e-3, rel=1e-12)
    assert plan.recharge_time > 0.0
    assert 0.0 < plan.duty_cycle < 1.0


def test_cycle_report_composition(sig_profile, layout):
    # every field reproduced by composing the public pieces step by step
    model = ChargeModel(v_oc=3.0, r_eq=800.0, capacitance=REF_CAP_F)
    initial = EscState(capacitance=REF_CAP_F, voltage=REF_V0)
    plan = cycle_report(model, initial, 1.8, template(), sig_profile,
                        layout, 16, brownout_v=None)
    n = max_packets(initial, 1.8, template(), sig_profile, layout, 16)
    assert plan.n_packets == n
    if n == 0:
        assert plan.burst is None
        return
    burst = burst_energy([template()] * n, initial, sig_profile, layout,
                         brownout_v=None)
    assert plan.burst.total_energy_uj == pytest.approx(burst.total_energy_uj,
                                                       rel=1e-12)
    assert plan.recharge_time == pytest.approx(
        recharge_plan(model, burst.final_state.voltage, REF_V0), rel=1e-12)
    active_ms = (wakeup_time(sig_profile, 106)
                 + n * packet_airtime(layout, 106, REF_RATE_BPS).airtime
                 + (n - 1) * (sig_profile.txrx_off_time + sig_profile.txrx_on_time)
                 + sig_profile.sleep_time)
    assert plan.active_time == pytest.approx(active_ms * 1e-3, rel=1e-12)
    assert plan.duty_cycle == pytest.approx(
        plan.active_time / (plan.active_time + plan.recharge_time), rel=1e-12)


def test_cycle_report_propagates_unreachable_recharge(sig_profile, layout):
    # initial voltage above the charger's open-circuit voltage cannot be
    # restored after a burst
    model = ChargeModel(v_oc=2.0, r_eq=500.0, capacitance=5e-3)
    initial = EscState(capacitance=5e-3, voltage=2.5)
    with pytest.raises(UnreachableVoltageError):
        cycle_report(model, initial, 1.8, template(20), sig_profile, layout, 4,
                     brownout_v=None)


def test_duty_cycle_bounds(sig_profile, layout):
    rng = np.random.default_rng(23)
    for _ in range(10):
        cap = float(rng.uniform(0.2e-3, 3e-3))
        v0 = float(rng.uniform(2.0, 2.5))
        model = ChargeModel(v_oc=v0 + float(rng.uniform(0.1, 1.0)),
                            r_eq=float(rng.uniform(100.0, 5e3)),
                            capacitance=cap)
        plan = cycle_report(model, EscState(cap, v0), 1.8,
                            template(int(rng.integers(2, 106))), sig_profile,
                            layout, 6, brownout_v=None)
        assert 0.0 <= plan.duty_cycle <= 1.0
        if plan.n_packets > 0:
            assert plan.burst.final_state.voltage >= 1.8
