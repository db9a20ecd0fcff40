"""Seeded input generators for the benchmark workloads.

Only the standard library is used, so generating inputs imports nothing
the program imports and never hides import time. The same seed always
gives the same inputs. The program receives only what is made here: the
device config, CSV files, and the argv or records of each operation.

Decks that mix cheap and costly operations are stratified instead of
drawn independently: each parameter gets one value in each 1/n of its
range, and the planning questions (``lattice``) get seeded values within
their strata. The cost of a deck, and with it the throughput, latency
percentiles and peak memory of a run, then varies little from seed to
seed while the inputs still do.
"""

import json
import math
import os
import random

# The test suite's synthetic S-curve; alpha4 puts 3.5 dBm at 16.24 mA.
ALPHA1, ALPHA2, ALPHA3 = 4.0, 40.0, 0.5
ALPHA4 = 16.24 - math.log(ALPHA2 / (ALPHA1 - 3.5) - 1.0) / ALPHA3
COEFFS = (ALPHA1, ALPHA2, ALPHA3, ALPHA4)

RATES = (250e3, 1e6, 2e6)
# Transmit powers stay inside the attainable open interval (-36, 4) dBm.
TX_MIN, TX_MAX = -30.0, 3.5
MSDU_MIN, MSDU_MAX = 2, 106
TRACE_NOISE_V = 0.002
CALIBRATION_NOISE_DB = 0.05


def write_config(directory) -> str:
    """Write the benchmark's device config and return its path."""
    path = os.path.join(directory, "config.json")
    device = {"alpha1_dbm": ALPHA1, "alpha2_dbm": ALPHA2,
              "alpha3_per_ma": ALPHA3, "alpha4_ma": ALPHA4}
    with open(path, "w") as handle:
        json.dump({"device": device}, handle)
    return path


def sigmoid_power(current_ma: float, coeffs=COEFFS) -> float:
    a1, a2, a3, a4 = coeffs
    return a1 - a2 / (math.exp(a3 * (current_ma - a4)) + 1.0)


def sigmoid_current(tx_dbm: float, coeffs=COEFFS) -> float:
    a1, a2, a3, a4 = coeffs
    return a4 + math.log(a2 / (a1 - tx_dbm) - 1.0) / a3


def _within(rng: random.Random) -> float:
    """Seeded position inside a stratum: its middle half, so one seed's
    deck costs about what another's does."""
    return 0.25 + 0.5 * rng.random()


def lattice(n: int, generator: int, dims: int, rng: random.Random,
            centred=()) -> list:
    """``n`` points in [0, 1)^dims, one per stratum of width 1/n in every
    coordinate.

    Point i lies in stratum (i * generator**(d+1)) mod n of coordinate d,
    a fixed Korobov lattice: ``n`` must be prime and ``generator`` a
    primitive root modulo ``n``, so the coordinates are distinct
    permutations of the strata. Which strata meet in one point is the
    same for every seed; only the positions within the strata vary,
    except in the ``centred`` coordinates, which take the stratum's
    middle. They feed discrete choices, which would otherwise flip with
    the seed where a stratum straddles a boundary between two values.
    """
    z = [pow(generator, d + 1, n) for d in range(dims)]
    return [[((i * z[d]) % n + (0.5 if d in centred else _within(rng))) / n
             for d in range(dims)]
            for i in range(n)]


def log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _pick(u: float, values):
    return values[min(int(u * len(values)), len(values) - 1)]


def _interleave(rare: list, common: list) -> list:
    """Spread ``rare`` evenly through ``common`` so every stretch of the
    deck has the same mix."""
    total = len(rare) + len(common)
    out, r, c = [], iter(rare), iter(common)
    for k in range(total):
        due = (k + 1) * len(rare) // total > k * len(rare) // total
        out.append(next(r) if due else next(c))
    return out


# --- plan_sweep -----------------------------------------------------------

DISCRETE = (5, 6)  # coordinates of _question that pick rate and final gap


def _question(u, cap_n: int) -> dict:
    v0 = 2.5 + 1.1 * u[1]
    return {
        "capacitance_f": log_uniform(u[0], 1e-3, 22e-3),
        "v0": v0,
        "cutoff_v": 1.8 + 0.4 * u[2],
        "msdu_octets": MSDU_MIN + int(u[3] * (MSDU_MAX - MSDU_MIN + 1)),
        "tx_dbm": TX_MIN + (TX_MAX - TX_MIN) * u[4],
        "rate_bps": _pick(u[5], RATES),
        "final_gap": u[6] < 0.5,
        "cap_n": cap_n,
        "v_oc": v0 * (1.05 + 0.45 * u[7]),
        "r_ohm": log_uniform(u[8], 300.0, 3000.0),
    }


def plan_questions(seed: int) -> list[dict]:
    """Deck of planning questions: 11 with cap_n 4096 spread evenly among
    31 with cap_n 64, in a fixed order of strata."""
    rng = random.Random(seed)
    heavy = [_question(u, 4096) for u in lattice(11, 2, 9, rng, DISCRETE)]
    light = [_question(u, 64) for u in lattice(31, 3, 9, rng, DISCRETE)]
    return _interleave(heavy, light)


# --- files ------------------------------------------------------------------

def write_trace(path, rng, rows: int, v_oc: float, r_ohm: float,
                capacitance: float) -> None:
    """Noisy RC charging trace sampled evenly over 2 to 4 time constants."""
    tau = r_ohm * capacitance
    end = tau * rng.uniform(2.0, 4.0)
    with open(path, "w") as handle:
        handle.write("t_s,v_v\n")
        for i in range(rows):
            t = end * i / (rows - 1)
            v = -v_oc * math.expm1(-t / tau) + rng.gauss(0.0, TRACE_NOISE_V)
            handle.write(f"{t!r},{max(v, 0.0)!r}\n")


def write_calibration(path, rng, points: int, coeffs) -> None:
    """Noisy S-curve calibration spanning both plateaus."""
    _, _, a3, a4 = coeffs
    lo, hi = max(0.2, a4 - 6.0 / a3), a4 + 6.0 / a3
    with open(path, "w") as handle:
        handle.write("c_c_ma,p_t_dbm\n")
        for i in range(points):
            c = lo + (hi - lo) * (i + rng.random()) / points
            p = sigmoid_power(c, coeffs) + rng.gauss(0.0, CALIBRATION_NOISE_DB)
            handle.write(f"{c!r},{p!r}\n")


def random_plan(rng, packets: int) -> list[tuple[int, float, float]]:
    return [(rng.randint(MSDU_MIN, MSDU_MAX), rng.uniform(TX_MIN, TX_MAX),
             rng.choice(RATES)) for _ in range(packets)]


def write_plan(path, plan) -> None:
    with open(path, "w") as handle:
        handle.write("msdu_octets,p_t_dbm,r_d_bps\n")
        for msdu, tx, rate in plan:
            handle.write(f"{msdu},{tx!r},{rate!r}\n")


def burst_capacitance(plan, v0: float, v_end: float = 2.3) -> float:
    """A store large enough that ``plan`` ends above ``v_end`` volts.

    Sizes it from a rough upper bound on the burst energy, every lump and
    bit priced at ``v0`` with the packaged ATmega256RFR2 constants.
    """
    energy_uj = 7.8 * (0.004 * plan[0][0] + 1.395) * v0
    for msdu, tx, rate in plan:
        current = sigmoid_current(tx)
        airtime_ms = 48 / 250.0 + 8 * (21 + msdu) / rate * 1e3
        gap_uj = 0.2 * (current + 4.0) / 2 + 0.86 * 10.25
        energy_uj += v0 * (current * airtime_ms + gap_uj)
    return 2.0 * energy_uj * 1e-6 / (v0 * v0 - v_end * v_end)


def _fit_charge_op(directory, name, rng, rows, known_voc: bool) -> dict:
    v_oc = rng.uniform(2.5, 4.5)
    r_ohm = log_uniform(rng.random(), 300.0, 3000.0)
    capacitance = log_uniform(rng.random(), 1e-3, 22e-3)
    path = os.path.join(directory, name)
    write_trace(path, rng, rows, v_oc, r_ohm, capacitance)
    argv = ["fit-charge", "--trace", path, "--capacitance-f", repr(capacitance)]
    if known_voc:
        argv += ["--v-oc", repr(v_oc)]
    return {"kind": "fit-charge", "argv": argv,
            "params": {"v_oc": v_oc, "r_ohm": r_ohm, "rows": rows,
                       "known_voc": known_voc}}


def _fit_power_op(directory, name, rng, points) -> dict:
    coeffs = (rng.uniform(3.0, 5.0), rng.uniform(35.0, 45.0),
              rng.uniform(0.4, 0.6), rng.uniform(6.0, 9.0))
    path = os.path.join(directory, name)
    write_calibration(path, rng, points, coeffs)
    return {"kind": "fit-power", "argv": ["fit-power", "--calibration", path],
            "params": {"coeffs": coeffs, "points": points}}


def _burst_op(directory, name, rng, packets, config) -> dict:
    plan = random_plan(rng, packets)
    v0 = rng.uniform(3.0, 3.6)
    capacitance = burst_capacitance(plan, v0)
    path = os.path.join(directory, name + ".csv")
    write_plan(path, plan)
    argv = ["simulate-burst", "--config", config, "--plan", path,
            "--capacitance-f", repr(capacitance), "--initial-v", repr(v0),
            "--packets-csv", os.path.join(directory, name + "-packets.csv"),
            "--samples-csv", os.path.join(directory, name + "-samples.csv")]
    return {"kind": "simulate-burst", "argv": argv,
            "params": {"plan": plan, "v0": v0, "capacitance_f": capacitance,
                       "final_gap": True}}


# --- cli_cold ---------------------------------------------------------------

def cli_ops(seed: int, directory) -> list[dict]:
    """One small operation per subcommand, in a fixed round-robin order."""
    rng = random.Random(seed)
    config = write_config(directory)
    q = _question([rng.random() for _ in range(9)], rng.randint(16, 64))
    v_oc = rng.uniform(2.5, 4.5)
    r_ohm = log_uniform(rng.random(), 300.0, 3000.0)
    capacitance = log_uniform(rng.random(), 1e-3, 22e-3)
    horizon = rng.uniform(1.0, 5.0) * r_ohm * capacitance
    msdu = rng.randint(MSDU_MIN, MSDU_MAX)
    tx = rng.uniform(TX_MIN, TX_MAX)
    vcc = rng.uniform(1.8, 3.6)
    p_dbm = rng.uniform(-16.0, 0.0)
    return [
        _fit_charge_op(directory, "trace.csv", rng, rng.randint(50, 200),
                       known_voc=False),
        {"kind": "predict-charge",
         "argv": ["predict-charge", "--v-oc", repr(v_oc), "--r-ohm",
                  repr(r_ohm), "--capacitance-f", repr(capacitance),
                  "--horizon-s", repr(horizon), "--curve-csv",
                  os.path.join(directory, "curve.csv")],
         "params": {"v_oc": v_oc, "tau": r_ohm * capacitance,
                    "horizon_s": horizon}},
        {"kind": "ocv", "argv": ["ocv", "--p-dbm", repr(p_dbm)],
         "params": {"p_dbm": p_dbm}},
        _fit_power_op(directory, "calibration.csv", rng, rng.randint(18, 24)),
        {"kind": "packet-cost",
         "argv": ["packet-cost", "--config", config, "--msdu-octets",
                  str(msdu), "--data-rate-bps", repr(_pick(rng.random(), RATES)),
                  "--vcc-v", repr(vcc), "--tx-power-dbm", repr(tx)],
         "params": {"current_ma": sigmoid_current(tx), "vcc": vcc}},
        _burst_op(directory, "plan", rng, rng.randint(2, 8), config),
        {"kind": "plan-cycle",
         "argv": ["plan-cycle", "--config", config,
                  "--v-oc", repr(q["v_oc"]), "--r-ohm", repr(q["r_ohm"]),
                  "--capacitance-f", repr(q["capacitance_f"]),
                  "--initial-v", repr(q["v0"]),
                  "--cutoff-v", repr(q["cutoff_v"]),
                  "--msdu-octets", str(q["msdu_octets"]),
                  "--tx-power-dbm", repr(q["tx_dbm"]),
                  "--data-rate-bps", repr(q["rate_bps"]),
                  "--cap-n", str(q["cap_n"])]
                 + ([] if q["final_gap"] else ["--no-final-gap-overhead"]),
         "params": q},
    ]
