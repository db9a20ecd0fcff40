"""Tests of the benchmark's own code: generators, metric names, counts.

    python -m pytest perfbench -q
"""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
COUNTS = ("burst.calls", "burst.bits_drained", "planner.sims_per_question",
          "planner.bits_per_answer_bit", "fileio.rows_read", "fileio.rows_written",
          "harvest.fit_calls", "radiopower.current_calls")


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            out[name] = handle.read()
    return out


def _strip(ops, directory):
    return json.dumps(ops).replace(str(directory), "<dir>")


def test_generators_repeat_for_a_seed_and_vary_across_seeds(tmp_path):
    assert gen.plan_questions(3) == gen.plan_questions(3)
    assert gen.plan_questions(3) != gen.plan_questions(4)
    dirs = [tmp_path / f"cli{i}" for i in range(3)]
    for d in dirs:
        d.mkdir()
    ops = [gen.cli_ops(seed, str(d)) for seed, d in zip((3, 3, 4), dirs)]
    assert _strip(ops[0], dirs[0]) == _strip(ops[1], dirs[1])
    assert _files(dirs[0]) == _files(dirs[1])
    assert _strip(ops[0], dirs[0]) != _strip(ops[2], dirs[2])


def test_lattice_stratifies_every_coordinate():
    import random
    for n, g in ((11, 2), (31, 3)):
        points = gen.lattice(n, g, 9, random.Random(0))
        for d in range(9):
            assert sorted(int(p[d] * n) for p in points) == list(range(n))


def test_discrete_choices_do_not_change_with_the_seed():
    def choices(seed):
        return [(q["rate_bps"], q["final_gap"], q["cap_n"]) for q in gen.plan_questions(seed)]
    assert all(choices(seed) == choices(1) for seed in range(2, 30))


def test_tail_percentile_keeps_ten_operations_beyond():
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(42) == 75
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(1000) == 99


def test_scaled_times_follow_each_pass_reference():
    phase = run.Phase(2)
    phase.latencies, phase.ok = [0.2, 0.4, 0.4, 0.8], [True] * 4
    phase.refs = [[run.REF_S] * 3, [2 * run.REF_S] * 3]  # second pass: half speed
    assert phase.scaled() == pytest.approx([0.2, 0.4, 0.2, 0.4])
    assert phase.ops_per_s == pytest.approx(2 / 0.6)
    assert phase.per_pass_ops(phase.latencies) == pytest.approx((2 / 0.6 + 2 / 1.2) / 2)
    phase.refs = [[], []]  # a workload that does not run the kernel
    assert phase.scaled() == phase.latencies


def test_plan_deck_mix():
    deck = gen.plan_questions(1)
    assert [q["cap_n"] for q in deck].count(4096) == 11
    assert len(deck) == 11 + 31
    for q in deck:
        assert 1e-3 <= q["capacitance_f"] <= 22e-3
        assert gen.TX_MIN <= q["tx_dbm"] <= gen.TX_MAX
        assert gen.MSDU_MIN <= q["msdu_octets"] <= gen.MSDU_MAX
        assert q["v_oc"] > q["v0"] > q["cutoff_v"]


def test_benchmark_json_names_are_valid_and_computed(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)
    names = [m["name"] for section in ("workloads", "end_to_end", "per_layer")
             for m in bench[section]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])

    phase = run.Phase(10)
    phase.latencies, phase.ok, phase.setup = [0.1] * 20, [True] * 20, [1.0]
    phase.refs = [[run.REF_S]] * 2
    assert {m["name"] for m in bench["end_to_end"]} <= set(run.end_to_end(phase, 1.0, 50))
    layer = set(run.per_layer([], 1)) | {"import.rfbudget_s", "import.numpy_s",
                                         "import.scipy_optimize_s", "trace.overhead_ratio",
                                         "trace.wrapped_call_ns"}
    assert {m["name"] for m in bench["per_layer"]} <= layer


def _traced_counts(kind, seed, pick, tmp_path, passes):
    """Per-layer counts of traced passes over a small part of the deck."""
    tmp_path.mkdir()
    work = run.KINDS[kind](seed, str(tmp_path), run.child_env())
    work.deck = pick(work.deck)
    work.setup()
    traced = work.start_tracing()
    try:
        phase = run.closed_loop(work, 0.0, passes * len(work.deck), set())
    finally:
        work.stop_tracing()
    assert not phase.failures
    layer = run.per_layer(traced + phase.traced, len(work.deck))
    return {name: layer[name] for name in COUNTS}


def test_count_metrics_repeat_exactly_for_a_seed(tmp_path):
    def small_plans(deck):
        return [q for q in deck if q["cap_n"] == 64][:3]

    def file_ops(deck):
        return [op for op in deck if op["kind"] in ("fit-charge", "simulate-burst")]

    for kind, pick in (("plan_sweep", small_plans), ("cli_cold", file_ops)):
        counts = [_traced_counts(kind, 5, pick, tmp_path / f"{kind}{passes}", passes)
                  for passes in (1, 2)]
        assert counts[0] == counts[1]
        assert counts[0]["burst.calls"] > 0 and counts[0]["burst.bits_drained"] > 0
    assert counts[0]["fileio.rows_read"] > 0 and counts[0]["fileio.rows_written"] > 0
    assert counts[0]["harvest.fit_calls"] == 1


def test_wrapped_call_cost_is_positive():
    assert spans.wrapped_call_ns(calls=100, repeats=3) > 0
