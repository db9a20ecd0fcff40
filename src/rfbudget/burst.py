"""Per-bit energy accounting under a draining energy store.

Every transmitted bit draws e_i = v_i * I / r from the store (current I in
amperes, data rate r in bit/s), and the withdrawal lowers the voltage via
the capacitor energy balance v_{i+1} = sqrt(v_i^2 - 2 e_i / C). Over a
frame this makes successive bits cheaper; to close approximation the
per-bit energies form an arithmetic progression with common difference
(I/r)^2 / C (see ``bit_energy_closed_form``).

The burst machinery here runs the exact recursion, not the progression.
Internally it carries the initial squared voltage and a single running
withdrawal total, so the voltage at any point is

    v = sqrt(v0^2 - 2 * E_total / C)

identically. This makes the energy/voltage bookkeeping independent of how
withdrawals are grouped into segments and keeps the conservation identity
exact to float rounding. ``bit_energy_oracle`` is a deliberately separate,
step-by-step implementation of the same recursion used to cross-check the
closed form and the burst accounting.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import cached_property, partial
from itertools import repeat

from .device import (DeviceProfile, EscState, FrameLayout, PacketPlan,
                     count, finite, interpacket_overhead, record,
                     sleep_energy, wakeup_energy)
from .errors import BrownoutWarning, EscDepletedError
from .radiopower import current_from_tx_power

DEFAULT_BROWNOUT_V = 1.8


@record
class FrameBreakdown:
    """Energy ledger of one frame, split at the protocol segment
    boundaries, with the store voltage after each segment."""

    e_phy_uj: float
    e_mhr_uj: float
    e_msdu_uj: float
    e_fcs_uj: float
    v_after_phy: float
    v_after_mhr: float
    v_after_msdu: float
    v_after_fcs: float

    @property
    def protocol_energy_uj(self) -> float:
        """Overhead frames only (PHY preamble + MHR + FCS), in uJ."""
        return self.e_phy_uj + self.e_mhr_uj + self.e_fcs_uj

    @property
    def total_energy_uj(self) -> float:
        return self.e_phy_uj + self.e_mhr_uj + self.e_msdu_uj + self.e_fcs_uj


@record
class PacketLedger:
    """Per-packet entry of a burst report.

    ``wake_energy_uj`` is nonzero only for the first packet,
    ``sleep_energy_uj`` only for the last, and ``interpacket_energy_uj``
    is the transceiver off/on overhead spent after this packet (0 when no
    gap follows or the gap is not charged to the budget).
    """

    index: int
    plan: PacketPlan
    supply_current_ma: float
    v_start: float
    frame: FrameBreakdown
    wake_energy_uj: float = 0.0
    interpacket_energy_uj: float = 0.0
    sleep_energy_uj: float = 0.0


@record
class BurstReport:
    """Full ledger of one burst (wake-up, N packets, sleep).

    ``packets`` holds one PacketLedger per packet. The report keeps the
    rows of ``_frames`` (plan, supply current, the lump before the frame,
    which is the wake-up or the gap after the packet before, and the
    frame's withdrawal totals) and the sleep ramp, and builds the ledger
    from them when first read, with the drain's own floats, so a caller
    that reads only the totals builds none. Equality compares the rows.

    ``sample_rows()`` yields one (packet, bit, uJ) tuple per transmitted
    bit: the 1-based packet index, the 1-based bit position within that
    packet's frame, and the running energy total including every lump
    overhead withdrawn so far. The drain records none of them:
    ``sample_rows`` replays each frame from its row with the drain's own
    float operations. It yields nothing when the burst was simulated with
    ``record_samples=False``.
    ``total_energy_uj`` additionally includes the final sleep ramp.
    """

    total_energy_uj: float
    final_state: EscState
    # Private: the rows (currents mA, lumps uJ, totals J), v0^2, 2/C, the
    # sleep ramp (uJ), and the layout the samples are replayed with.
    rows_: tuple[tuple, ...]
    w0_: float
    c2_: float
    sleep_uj_: float
    layout_: FrameLayout
    samples_: bool

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(packets={self.packets!r}, "
                f"total_energy_uj={self.total_energy_uj!r}, "
                f"final_state={self.final_state!r})")

    @cached_property
    def packets(self) -> tuple[PacketLedger, ...]:
        w0, c2, rows = self.w0_, self.c2_, self.rows_
        # Row j + 1's lump is the gap after packet j; the last has none.
        gaps = [lump for _, _, lump, _ in rows[1:]] + [0.0]
        return tuple(
            PacketLedger(j, plan, current_ma, math.sqrt(w0 - c2 * totals[0]),
                         _breakdown(w0, c2, totals), lump if j == 1 else 0.0,
                         gap, self.sleep_uj_ if j == len(rows) else 0.0)
            for j, ((plan, current_ma, lump, totals), gap)
            in enumerate(zip(rows, gaps), 1))

    def sample_rows(self) -> Iterator[tuple[int, int, float]]:
        """(packet, bit, running total in uJ) for every transmitted bit."""
        if not self.samples_:
            return
        w0, c2 = self.w0_, self.c2_
        for packet, (plan, current_ma, _, totals) in enumerate(self.rows_, 1):
            runs = _runs(self.layout_, plan.msdu_octets, plan.data_rate,
                         current_ma)
            bit = 0
            # The preamble replays from the frame's start, the rest from
            # the preamble's end.
            for start, (n_bits, charge) in zip(totals, runs):
                for total in _steps(w0, c2, start, n_bits, charge):
                    bit += 1
                    yield packet, bit, total * 1e6


def _steps(w0: float, c2: float, total: float, n_bits: int,
           charge_per_bit: float) -> Iterator[float]:
    """The withdrawal total after each of ``n_bits`` bits drawn from
    ``total``, one ``drain_bits`` statement per bit."""
    for _ in range(n_bits):
        total += charge_per_bit * math.sqrt(w0 - c2 * total)
        yield total


def _runs(layout: FrameLayout, msdu_octets: int, data_rate: float,
          supply_current_ma: float) -> tuple[tuple[int, float], ...]:
    """The (bits, charge per bit) of a frame's two constant-charge runs:
    the preamble at its own rate, then MHR, MSDU and FCS at ``data_rate``."""
    current_a = supply_current_ma * 1e-3
    preamble_bits = layout.preamble_bits
    return ((preamble_bits, current_a / layout.preamble_rate),
            (layout.frame_bits(msdu_octets) - preamble_bits,
             current_a / data_rate))


class _Drain:
    """Squared-voltage ledger for a draining capacitor.

    State is (v0^2, total withdrawn); the voltage is always derived as
    sqrt(v0^2 - 2*total/C), so regrouping withdrawals cannot change any
    downstream value.
    """

    __slots__ = ("_w0", "_c2", "total_joules")

    def __init__(self, voltage: float, capacitance: float):
        finite("voltage", voltage, gt=0)
        finite("capacitance", capacitance, gt=0)
        self._w0 = voltage * voltage
        self._c2 = 2.0 / capacitance
        self.total_joules = 0.0

    @property
    def voltage(self) -> float:
        return math.sqrt(self._w0 - self._c2 * self.total_joules)

    def withdraw(self, energy_joules: float, *, packet=None, segment=None) -> None:
        """Remove one lump of energy; raises EscDepletedError on underrun."""
        self.total_joules += energy_joules
        if self._w0 - self._c2 * self.total_joules <= 0.0:
            raise EscDepletedError(
                f"energy store depleted by the {segment or 'lump'} withdrawal"
                + (f" of packet {packet}" if packet is not None else ""),
                packet=packet, segment=segment)

    def drain_bits(self, n_bits: int, charge_per_bit: float, *,
                   packet=None, segment=None) -> float:
        """Draw ``n_bits`` per-bit withdrawals of v * charge_per_bit joules.

        ``charge_per_bit`` is supply current (A) / data rate (bit/s).
        Returns the energy (J) drawn by this segment; no per-bit total is
        kept (``BurstReport.sample_rows`` replays them).

        Each bit is one statement with no test. The loop over
        ``itertools.repeat`` holds 16 copies of it, and a remainder loop
        runs the last ``n_bits & 15`` bits: 0 or 8 for a frame segment,
        whose length is a multiple of 8. Depletion shows either as the
        ValueError ``math.sqrt`` raises on a negative argument or in the
        one test of the argument after the segment. Only then is the
        segment replayed from its start with a test after every bit
        (``_raise_depleted``), which repeats the same float operations and
        so names the same first bit that brought the argument to <= 0.
        """
        w0 = self._w0
        c2 = self._c2
        start = total = self.total_joules
        b = charge_per_bit
        sqrt = math.sqrt
        try:
            for _ in repeat(None, n_bits >> 4):
                total += b * sqrt(w0 - c2 * total)
                total += b * sqrt(w0 - c2 * total)
                total += b * sqrt(w0 - c2 * total)
                total += b * sqrt(w0 - c2 * total)
                total += b * sqrt(w0 - c2 * total)
                total += b * sqrt(w0 - c2 * total)
                total += b * sqrt(w0 - c2 * total)
                total += b * sqrt(w0 - c2 * total)
                total += b * sqrt(w0 - c2 * total)
                total += b * sqrt(w0 - c2 * total)
                total += b * sqrt(w0 - c2 * total)
                total += b * sqrt(w0 - c2 * total)
                total += b * sqrt(w0 - c2 * total)
                total += b * sqrt(w0 - c2 * total)
                total += b * sqrt(w0 - c2 * total)
                total += b * sqrt(w0 - c2 * total)
            for _ in repeat(None, n_bits & 15):
                total += b * sqrt(w0 - c2 * total)
        except ValueError:
            self._raise_depleted(start, n_bits, b, packet, segment)
        if w0 - c2 * total <= 0.0:
            self._raise_depleted(start, n_bits, b, packet, segment)
        self.total_joules = total
        return total - start

    def _raise_depleted(self, total: float, n_bits: int, charge_per_bit: float,
                        packet, segment) -> None:
        """Replay a segment from ``total`` bit by bit; at the first bit
        that leaves a square-root argument <= 0, store that total and
        raise EscDepletedError naming the bit."""
        w0, c2 = self._w0, self._c2
        for bit, total in enumerate(_steps(w0, c2, total, n_bits,
                                           charge_per_bit), 1):
            if w0 - c2 * total <= 0.0:
                self.total_joules = total
                raise EscDepletedError(
                    f"energy store depleted at bit {bit} of the "
                    f"{segment or 'segment'}"
                    + (f" in packet {packet}" if packet is not None else ""),
                    packet=packet, segment=segment, bit=bit)


def first_bit_energy(v_start: float, supply_current_ma: float,
                     data_rate: float) -> float:
    """Energy (uJ) of the first bit sent at ``v_start`` volts."""
    finite("v_start", v_start, ge=0)
    finite("supply_current_ma", supply_current_ma, ge=0)
    finite("data_rate", data_rate, gt=0)
    return v_start * supply_current_ma * 1e-3 / data_rate * 1e6


def bit_energy_closed_form(e_first_uj: float, bit_index: int,
                           supply_current_ma: float, data_rate: float,
                           capacitance: float) -> float:
    """Per-bit energy (uJ) from the arithmetic-progression approximation.

    Bit ``bit_index`` (1-based) of a constant-current, constant-rate run
    costs e_first - (i-1) * (I/r)^2 / C. Valid while the store is far from
    empty; raises EscDepletedError if the progression hits zero.
    """
    finite("e_first_uj", e_first_uj, gt=0)
    count("bit_index", bit_index, ge=1)
    finite("capacitance", capacitance, gt=0)
    finite("data_rate", data_rate, gt=0)
    finite("supply_current_ma", supply_current_ma, ge=0)
    step_uj = (supply_current_ma * 1e-3 / data_rate) ** 2 / capacitance * 1e6
    e = e_first_uj - (bit_index - 1) * step_uj
    if e <= 0.0:
        raise EscDepletedError(
            f"closed-form energy non-positive at bit {bit_index}; store "
            "would be depleted", bit=bit_index)
    return e


def bit_energy_oracle(v_start: float, supply_current_ma: float,
                      data_rate: float, capacitance: float,
                      n_bits: int) -> tuple[tuple[float, ...], float]:
    """Exact per-bit energies (uJ) and final voltage, bit by bit.

    Runs the reference recursion directly: e_i = v_i * I / r, then
    v_{i+1} = sqrt(v_i^2 - 2 e_i / C). Raises EscDepletedError when the
    square-root argument becomes non-positive. This is the independent
    check for both the closed form and the burst accounting; keep it
    simple and separate.
    """
    count("n_bits", n_bits, ge=1)
    finite("v_start", v_start, gt=0)
    finite("capacitance", capacitance, gt=0)
    finite("data_rate", data_rate, gt=0)
    finite("supply_current_ma", supply_current_ma, ge=0)
    charge = supply_current_ma * 1e-3 / data_rate
    energies = []
    v = v_start
    for i in range(n_bits):
        e = v * charge
        arg = v * v - 2.0 * e / capacitance
        if arg <= 0.0:
            raise EscDepletedError(
                f"energy store depleted at bit {i + 1} of {n_bits}", bit=i + 1)
        energies.append(e * 1e6)
        v = math.sqrt(arg)
    return tuple(energies), v


def segment_energy(v_start: float, supply_current_ma: float, data_rate: float,
                   n_bits: int, capacitance: float) -> tuple[float, float]:
    """Energy (uJ) and final voltage of one n-bit constant-rate segment.

    Exact accounting; agrees with the arithmetic-series sum
    n*e_first - n(n-1)/(2C) * (I/r)^2 to within the progression's
    linearization error.
    """
    count("n_bits", n_bits)
    finite("data_rate", data_rate, gt=0)
    finite("supply_current_ma", supply_current_ma, ge=0)
    drain = _Drain(v_start, capacitance)
    energy = drain.drain_bits(n_bits, supply_current_ma * 1e-3 / data_rate)
    return energy * 1e6, drain.voltage


def _frame_cascade(drain: _Drain, layout: FrameLayout, msdu_octets: int,
                   supply_current_ma: float, data_rate: float, *,
                   packet=None) -> tuple[float, ...]:
    """Drain one frame through the four protocol segments in order; the
    withdrawal totals (J) at its start and after each segment."""
    (preamble_bits, preamble_charge), (_, charge) = _runs(
        layout, msdu_octets, data_rate, supply_current_ma)
    drain_bits = drain.drain_bits
    start = drain.total_joules
    drain_bits(preamble_bits, preamble_charge, packet=packet, segment="phy")
    after_phy = drain.total_joules
    drain_bits(8 * layout.mhr_octets, charge, packet=packet, segment="mhr")
    after_mhr = drain.total_joules
    drain_bits(8 * msdu_octets, charge, packet=packet, segment="msdu")
    after_msdu = drain.total_joules
    drain_bits(8 * layout.fcs_octets, charge, packet=packet, segment="fcs")
    return start, after_phy, after_mhr, after_msdu, drain.total_joules


def _breakdown(w0: float, c2: float, totals: Sequence[float]) -> FrameBreakdown:
    """The FrameBreakdown of a frame from its ``_frame_cascade`` totals on
    a drain with squared initial voltage ``w0`` and ``c2`` = 2/C. Each
    energy is the difference ``drain_bits`` returned and each voltage the
    one ``_Drain.voltage`` gave, float for float."""
    energies = [(after - before) * 1e6
                for before, after in zip(totals, totals[1:])]
    voltages = [math.sqrt(w0 - c2 * total) for total in totals[1:]]
    return FrameBreakdown(*energies, *voltages)


def protocol_overhead(layout: FrameLayout, msdu_octets: int,
                      supply_current_ma: float, data_rate: float,
                      v_start: float, capacitance: float) -> FrameBreakdown:
    """Energy breakdown of one frame sent from ``v_start`` volts.

    Chains the PHY preamble (at the preamble rate), MHR, MSDU, and FCS
    segments (at ``data_rate``), threading the post-segment voltage of
    each into the next. A depletion error names the failing segment.
    """
    layout.check_payload("msdu_octets", msdu_octets)
    finite("data_rate", data_rate, gt=0)
    finite("supply_current_ma", supply_current_ma, ge=0)
    drain = _Drain(v_start, capacitance)
    totals = _frame_cascade(drain, layout, msdu_octets, supply_current_ma,
                            data_rate)
    return _breakdown(drain._w0, drain._c2, totals)


def _supply_currents(plans: Sequence[PacketPlan], profile: DeviceProfile,
                     layout: FrameLayout) -> list[float]:
    """Check a burst's inputs; the supply current (mA) of each packet.

    Each distinct payload and transmit power is checked once, in order of
    first use, so the first packet with a bad one raises."""
    firsts = {}
    for k, plan in enumerate(plans, 1):
        firsts.setdefault(plan.msdu_octets, k)
    for msdu, k in firsts.items():
        layout.check_payload(f"packet {k}: msdu_octets", msdu)
    by_power = {power: current_from_tx_power(profile, power)
                for power in dict.fromkeys(plan.tx_power for plan in plans)}
    return [by_power[plan.tx_power] for plan in plans]


def _frames(drain: _Drain, plans: Iterable[PacketPlan],
            currents: Iterable[float], profile: DeviceProfile,
            layout: FrameLayout, skip: int = 0) -> Iterator[tuple]:
    """A burst's withdrawals up to each frame's end, for ``burst_energy``
    and the planner's walk. Per packet j: the lump before its frame (the
    wake-up, sized by packet 1's payload, else the off/on gap after packet
    j - 1 at that packet's current, 0 for packet ``skip``), then its frame
    cascade; then the row (plan, current mA, lump uJ, cascade totals J)."""
    for j, (plan, current_ma) in enumerate(zip(plans, currents), 1):
        if j == 1:
            lump = wakeup_energy(profile, drain.voltage, plan.msdu_octets)
            drain.withdraw(lump * 1e-6, packet=1, segment="wake-up")
        else:
            lump = 0.0 if j == skip else interpacket_overhead(
                profile, drain.voltage, gap_ma)
            drain.withdraw(lump * 1e-6, packet=j - 1, segment="inter-packet")
        totals = _frame_cascade(drain, layout, plan.msdu_octets, current_ma,
                                plan.data_rate, packet=j)
        gap_ma = current_ma
        yield plan, current_ma, lump, totals


def burst_energy(plans: Sequence[PacketPlan], initial: EscState,
                 profile: DeviceProfile, layout: FrameLayout, *,
                 include_final_gap: bool = True,
                 brownout_v: float | None = DEFAULT_BROWNOUT_V,
                 record_samples: bool = True) -> BurstReport:
    """Simulate one active cycle: wake-up, N packets, return to sleep.

    The withdrawals are ``_frames``' pass, then the sleep ramp: the wake-up
    lump (sized by the first packet's payload); per packet, the
    four-segment frame cascade at the supply current implied by its
    transmit power, with the transceiver off/on overhead between packets.
    Each lump is evaluated at the voltage at the start of its interval, and
    every withdrawal lowers the voltage through the capacitor energy balance.

    ``include_final_gap=False`` leaves the off/on overhead of the last gap
    (between packets N-1 and N) out of the budget, matching ledgers that
    only charge gaps to the middle packets.

    A BrownoutWarning is emitted (once) if the voltage dips below
    ``brownout_v``; pass None to disable. ``record_samples=False`` makes
    the report's ``sample_rows()`` yield nothing (see ``BurstReport``). It
    does not make the drain cheaper: the samples are replayed from the
    report's per-packet rows only when read.
    """
    plans = tuple(plans)
    if not plans:
        raise ValueError("plan must contain >= 1 packet")
    if brownout_v is not None:
        finite("brownout_v", brownout_v)
    drain = _Drain(initial.voltage, initial.capacitance)
    currents = _supply_currents(plans, profile, layout)
    rows = tuple(_frames(drain, plans, currents, profile, layout,
                         0 if include_final_gap else len(plans)))
    sleep_uj = sleep_energy(profile, drain.voltage, currents[-1])
    drain.withdraw(sleep_uj * 1e-6, packet=len(plans), segment="sleep")

    # Every withdrawal is >= 0, so the final voltage is the lowest reached.
    if brownout_v is not None and drain.voltage < brownout_v:
        warnings.warn(
            f"supply voltage reached {drain.voltage:.3f} V, below the "
            f"{brownout_v:.2f} V brown-out level; the device constants are "
            "unvalidated down there", BrownoutWarning, stacklevel=2)

    return BurstReport(
        total_energy_uj=drain.total_joules * 1e6,
        final_state=EscState(initial.capacitance, drain.voltage),
        rows_=rows, w0_=drain._w0, c2_=drain._c2, sleep_uj_=sleep_uj,
        layout_=layout, samples_=record_samples)


# The planner considers no burst of more bits: about 77 s of drain at
# 72 ns/bit, and m * 2^-53 < 2^-22 in the rounding allowance of ``_search``.
MAX_BURST_BITS = 2 ** 30

# Outward rounding, u = 2^-53: a positive float within a factor (1 +- u)^15
# of an exact value (at most fifteen correctly rounded operations, a
# ``math.log1p`` counted as four), times _DOWN (_UP) and rounded, is a
# lower (upper) bound on it. A term that underflows is smaller than that
# step takes off any voltage whose square is a normal float.
_DOWN, _UP = 1.0 - 2.0 ** -48, 1.0 + 2.0 ** -48


def _sums(*pieces: tuple[int, float]) -> tuple[float, float, float, float]:
    """Bounds on A = sum(n*a) and A2 = sum(n*a^2) over ``pieces`` of n
    steps with parameter a: (A above, A2 above, A below, A2 below)."""
    total = sum(n * a for n, a in pieces)
    squares = sum(n * a * a for n, a in pieces)
    return total * _UP, squares * _UP, total * _DOWN, squares * _DOWN


def _lump(bracket: tuple[float, float] | None, a: float
          ) -> tuple[float, float] | None:
    """A bracket after one exact step v -> sqrt(v^2 - a*v) from ``bracket``,
    rounded outward; None where it is None or a > lo/2."""
    lo, hi = bracket or (0.0, 0.0)
    if not 0.0 < 0.5 * lo >= a * _UP:
        return None
    return (math.sqrt(lo * (lo - a * _UP)) * _DOWN,
            math.sqrt(hi * (hi - a * _DOWN)) * _UP)


def _advance(bracket: tuple[float, float] | None, j: int,
             sums: tuple[float, ...]) -> tuple[float, float] | None:
    """A bracket on the voltage after j blocks of steps from a voltage in
    ``bracket``, or None where it is None or the hypotheses below fail.

    Each step maps v to sqrt(v^2 - a*v), a >= 0, and every block makes the
    same steps, whose sums ``_sums`` bounds. With x = a/v, the series of
    sqrt(1 - x), whose coefficients beyond x are all negative and at most
    1/8 in size, gives
        a/2 + a^2/(8v) <= v - sqrt(v^2 - a*v) <= a/2 + a^2/(8(v - a))
    for x < 1, and the step is at most a. So a block from v lowers the
    voltage by at least A/2 + A2/(8v) and by at most A/2 + A2/(8(v - A)).
    Every block of the jump starts at or above lo - (j-1)*A, so each
    lowers it by at most s = A/2 + A2/(8L), L = lo - j*A, which must be at
    least lo/2. Block p then starts at most at hi - p*A/2 and at least at
    lo - p*s, and the voltage after j blocks lies in
        [lo - j*A/2 - A2/8 * sum 1/(lo - A - p*s),
         hi - j*A/2 - A2/8 * sum 1/(hi - p*A/2)],  p = 0 .. j-1.
    Both summands are convex in p. The midpoint rule bounds the first sum
    from above by its integral from -1/2 to j - 1/2 (Hermite-Hadamard),
    -log1p(-j*s/(c + s/2))/s with c = lo - A; Jensen bounds the second
    from below by j/(hi - (j-1)*A/4). Any j costs the same few operations,
    each rounded outward (``_DOWN``/``_UP``).
    """
    lo, hi = bracket or (0.0, 0.0)
    a_hi, a2_hi, a_lo, a2_lo = sums
    low_end = (lo - j * a_hi) * _DOWN
    if not 0.0 < 0.5 * lo <= low_end:
        return None
    s = (0.5 * a_hi + a2_hi / (8.0 * low_end)) * _UP
    c = (lo - a_hi) * _DOWN
    r = j * s / ((c + 0.5 * s) * _DOWN) * _UP
    if not 0.0 < r < 1.0:
        return None
    lo = (lo - (0.5 * j * a_hi - a2_hi / (8.0 * s) * math.log1p(-r)) * _UP
          ) * _DOWN
    mean = (hi - 0.25 * (j - 1) * a_lo) * _UP
    hi = (hi - (0.5 * j * a_lo + j * a2_lo / (8.0 * mean)) * _DOWN) * _UP
    return lo, hi


# Per test: the packet k that ends a burst, a bracket on the voltage tested
# after it, and a function giving one without the gap before k, or None.
_Tests = Iterator[tuple[int, tuple[float, float],
                        "Callable[[], tuple[float, float] | None] | None"]]


def _search(profile: DeviceProfile, w0: float, c2: float, msdu_octets: int,
            current_ma: float, runs: tuple[tuple[int, float], ...],
            v_cutoff: float, cap_n: int) -> _Tests:
    """Two-sided brackets on the voltages the ``max_packets`` walk tests,
    for the bursts a jump search proves to hold and for its last test.

    The walk's steps are those of a real recursion on the voltage: each
    withdrawal maps v to sqrt(v^2 - a*v), with a = c2*b for a bit of charge
    b and a = c2*k for a lump of k*v joules (``wakeup_energy``,
    ``interpacket_overhead`` and ``sleep_energy`` are linear in v). The
    search brackets the voltage after the frame of the last packet k it
    proved. The wake-up, the sleep ramp and a lone packet's gap are exact
    ``_lump`` steps; a frame, or a jump of j > 1 packets with their gaps,
    is one ``_advance``. j <= ``cap_n`` - k doubles after a burst k + j
    that holds (lo >= ``v_cutoff``) and halves after one that does not or
    breaks the hypotheses. The search yields each burst that holds and
    each j = 1 test, with a function that tests it without the gap before
    packet k + 1, and ends after a j = 1 test that does not hold or whose
    hypotheses fail: O(log N) bracket steps.

    The walk's float totals t^ stay near the real totals T of that
    recursion. Per withdrawal, the float step is the real step at t^ plus
    an error of at most u*t^ (the sum) + u*inc*(16 + w0/v^2) (the square
    root's argument, which cancels to v^2 from w0, the root, the charge or
    the lump's few products), u = 2^-53 (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., ch. 3). The real step's slope in t,
    1 - a/(2v), lies in [0, 1] while x <= 2, so the errors add and do not
    grow. Over the m withdrawals of a test, with t^ < w0/c2 and
    v^2 >= lo^2/2 on its path, c2*|t^ - T| <= P = 2u*w0*(m + 16 + 2w0/lo^2)
    and the float voltage differs from the real one by at most P/lo plus
    its own roots' rounding. q = 4P is then an allowance whose q/lo covers
    both, widening the bracket; q <= lo^2 keeps P <= lo^2/4, the store
    far from empty, which the induction needs. ``MAX_BURST_BITS`` keeps
    m*u tiny.

    A burst skipped by a jump that holds holds too. The real voltage the
    walk tests does not increase with k: each packet only lowers the
    voltage and the sleep step is increasing in v. So a skipped burst's
    real path stays at or above the tested burst's real lo, and it makes
    fewer withdrawals: its allowance is at most the tested one, and its
    float voltage is at least the tested burst's widened lo.
    """
    bits = [(n_bits, c2 * charge) for n_bits, charge in runs]
    wake, gap, sleep = (c2 * joules * 1e-6 for joules in (
        wakeup_energy(profile, 1.0, msdu_octets),
        interpacket_overhead(profile, 1.0, current_ma),
        sleep_energy(profile, 1.0, current_ma)))
    frame, packet = _sums(*bits), _sums((1, gap), *bits)
    # Burst k withdraws k * per_packet + 1 times: wake-up, frames, gaps, sleep.
    per_packet = sum(n_bits for n_bits, _ in runs) + 1

    def tested(bracket, k):
        """Burst k's bracket after the sleep ramp, widened by the allowance."""
        lo, hi = _lump(bracket, sleep) or (0.0, 0.0)
        lo2 = lo * lo
        if not lo2 > 0.0:
            return None
        q = 2.0 ** -50 * w0 * (k * per_packet + 17.0 + 2.0 * w0 / lo2)
        if not q <= lo2:
            return None
        return lo - q / lo, hi + q / lo

    v_top = math.sqrt(w0)
    held = _lump((v_top * _DOWN, v_top * _UP), wake)
    k, j = 0, 1
    while held is not None and k < cap_n:
        j = min(j, cap_n - k)
        # A lone packet's gap is one exact step; packet 1 follows the wake-up.
        post = (_advance(held, j, packet) if j > 1 else
                _advance(_lump(held, gap) if k else held, 1, frame))
        test = tested(post, k + j)
        holds = test is not None and test[0] >= v_cutoff
        if j > 1 and not holds:
            j //= 2
            continue
        if test is None:
            return
        yield k + j, test, None if j > 1 else partial(
            tested, _advance(held, 1, frame), k + 1)
        if not holds:
            return
        k, j, held = k + j, 2 * j, post


def _settle(tests: _Tests, v_cutoff: float, cap_n: int,
            include_final_gap: bool) -> int | None:
    """N from ``tests``, or None when a test it needs falls inside its
    bracket.

    A burst holds when its lo >= ``v_cutoff`` and fails (by the cutoff or
    by depletion) when its hi < ``v_cutoff``. N counts the bursts that hold
    before the first that fails, up to ``cap_n``. A source yields a test
    that does not hold only for the burst after the last that held, so N
    is the packet before it. Without the final gap the first failing
    packet is tested once more, gapless: a burst that skips a gap holds
    wherever the gapped one does, as every bit and lump step is
    non-decreasing in the withdrawn total on a store that is not depleted.
    """
    for k, (lo, hi), skipped in tests:
        if lo >= v_cutoff:
            if k == cap_n:
                return cap_n
            continue
        if not hi < v_cutoff:
            return None
        if k == 1 or include_final_gap:
            return k - 1
        # No gapless bracket leaves the test undecided.
        lo, hi = skipped() or (-math.inf, math.inf)
        if lo >= v_cutoff:
            return k
        return k - 1 if hi < v_cutoff else None
    return None


def _walk(drain: _Drain, profile: DeviceProfile, layout: FrameLayout,
          template: PacketPlan, current_ma: float) -> _Tests:
    """The planner's tests on ``drain``, a full store, as zero-width
    brackets: for k = 1, 2, ..., (v, v) after the sleep ramp of the burst
    ending at packet k, or (-inf, -inf) when that burst, wake-up included,
    depletes the store. It ends after the first depleted burst.

    It runs ``burst_energy``'s pass, ``_frames``, with every gap counted,
    so it drains each packet once with the same floats. Each test withdraws
    the sleep ramp from the frame's final total, reads the voltage and
    rewinds. The gapless test drains packet k again from the previous
    frame's final total, and leaves the walk's own state alone.
    """
    def tested(start: float, frame: bool = False) -> tuple[float, float]:
        """The test from total ``start``, after one more frame if ``frame``."""
        walked, drain.total_joules = drain.total_joules, start
        try:
            if frame:
                _frame_cascade(drain, layout, template.msdu_octets,
                               current_ma, template.data_rate)
            drain.withdraw(sleep_energy(profile, drain.voltage, current_ma) * 1e-6)
            v = drain.voltage
        except EscDepletedError:
            v = -math.inf
        drain.total_joules = walked
        return v, v

    rows = _frames(drain, repeat(template), repeat(current_ma), profile,
                   layout)
    k, skipped = 1, None
    while True:
        try:
            end = next(rows)[3][-1]
            test = tested(end)
        except EscDepletedError:
            test = (-math.inf, -math.inf)
        # A one-packet burst has no gap to skip: its gapless test is its own.
        yield k, test, skipped or partial(tuple, test)
        if test[0] == -math.inf:
            return
        k, skipped = k + 1, partial(tested, end, True)


def max_packets(initial: EscState, v_cutoff: float, template: PacketPlan,
                profile: DeviceProfile, layout: FrameLayout, cap_n: int, *,
                include_final_gap: bool = True) -> int:
    """Largest N <= cap_n such that every burst of 1..N identical packets
    ends at or above ``v_cutoff``; 0 when even one packet would break it.

    Two sources answer in turn, the second only when the first cannot,
    with the same N; ``_settle`` turns the tests of each into N.

    1. The search (``_search``), which drains nothing. It brackets the
       voltage each burst ends at, widened by an allowance for the walk's
       rounding, with one closed-form step per jump of j packets. It
       doubles j while the bursts hold and halves it when one does not,
       so it settles N in O(log N) steps.
    2. The walk (``_walk``), whose zero-width brackets always decide, only
       when a test the search needs falls inside its bracket (a near-tie
       with the cutoff), or the bracket's hypotheses fail: a nearly empty
       store, or one packet that draws more than a quarter of the voltage.

    No burst of more than ``MAX_BURST_BITS`` bits is considered: a frame
    longer than that limit, or a ``cap_n`` beyond it when every burst up
    to it holds, is a ValueError that names the limit.
    """
    count("cap_n", cap_n, ge=1)
    # No burst raises the voltage, so a store below the cutoff, or an empty
    # one, holds no packet. A store at the cutoff holds every burst that
    # leaves its float voltage unchanged, so the sources below decide.
    if (initial.voltage < finite("v_cutoff", v_cutoff, ge=0)
            or initial.voltage == 0.0):
        return 0
    (current_ma,) = _supply_currents((template,), profile, layout)
    drain = _Drain(initial.voltage, initial.capacitance)
    runs = _runs(layout, template.msdu_octets, template.data_rate, current_ma)
    frame_bits = layout.frame_bits(template.msdu_octets)
    if frame_bits > MAX_BURST_BITS:
        raise ValueError(
            f"a frame of {frame_bits} bits is longer than the planner's limit "
            f"of MAX_BURST_BITS = {MAX_BURST_BITS} bits per burst")
    cap = min(cap_n, MAX_BURST_BITS // frame_bits)
    n = _settle(_search(profile, drain._w0, drain._c2, template.msdu_octets,
                        current_ma, runs, v_cutoff, cap),
                v_cutoff, cap, include_final_gap)
    if n is None:
        n = _settle(_walk(drain, profile, layout, template, current_ma),
                    v_cutoff, cap, include_final_gap)
    if n == cap < cap_n:
        raise ValueError(
            f"cap_n {cap_n} lies beyond the planner's limit of "
            f"MAX_BURST_BITS = {MAX_BURST_BITS} bits per burst ({cap} "
            f"packets of {frame_bits} bits), and every burst up to it holds")
    return n
