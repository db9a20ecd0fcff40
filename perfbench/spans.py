"""In-memory spans around the calls into each rfbudget layer.

``Tracer.install`` replaces the public functions in ``SPANNED`` and ``COUNTED`` with
wrappers, at every module that binds them (``planner`` and ``cli`` re-bind
names through ``from .x import y``), and ``uninstall`` puts the originals
back. Each wrapped call appends one span ``(name, start, end, parent,
attrs)``; ``parent`` is the index of the enclosing span or -1. Work the
tracer does itself after a call (counting bits or rows) is recorded as a
``trace.bookkeeping`` span beside the call, so it is left out of the
caller's self time. Hot helpers (``COUNTED``) are counted, not spanned.

Spans stay in memory; the harness collects them after every operation with
``take`` and writes them out when the run ends.
"""

import json
import statistics
import sys
import time
from collections import Counter

# (module, function) -> span name
SPANNED = {
    ("planner", "cycle_report"): "planner.cycle_report",
    ("planner", "max_packets"): "planner.max_packets",
    ("burst", "burst_energy"): "burst.burst_energy",
    ("fileio", "load_config"): "fileio.load_config",
    ("fileio", "load_voltage_trace"): "fileio.load_voltage_trace",
    ("fileio", "load_calibration"): "fileio.load_calibration",
    ("fileio", "load_plan"): "fileio.load_plan",
    ("fileio", "load_ocv_table"): "fileio.load_ocv_table",
    ("fileio", "write_table"): "fileio.write_table",
    ("fileio", "render_record_json"): "fileio.render_record_json",
    ("fileio", "render_record_csv"): "fileio.render_record_csv",
    ("harvest", "fit_charge_model"): "harvest.fit_charge_model",
    ("harvest", "fit_r_known_voc"): "harvest.fit_r_known_voc",
    ("harvest", "prediction_error"): "harvest.prediction_error",
    ("radiopower", "fit_sigmoid"): "radiopower.fit_sigmoid",
    ("cli", "main"): "cli.main",
}
COUNTED = {
    ("radiopower", "current_from_tx_power"): "radiopower.current_from_tx_power",
}
BOOKKEEPING = "trace.bookkeeping"

_SEGMENTS = ("phy", "mhr", "msdu", "fcs")


def _segment_bits(layout, msdu_octets: int) -> tuple[int, int, int, int]:
    return (layout.preamble_bits, 8 * layout.mhr_octets, 8 * msdu_octets,
            8 * layout.fcs_octets)


def drained_bits(plans, layout, error=None) -> int:
    """Bits a burst drained: every frame of ``plans``, or up to the failing
    bit when the burst raised ``error`` (an EscDepletedError)."""
    if error is None:
        return sum(layout.frame_bits(p.msdu_octets) for p in plans)
    before = plans[:error.packet - 1] if error.packet else ()
    bits = sum(layout.frame_bits(p.msdu_octets) for p in before)
    if error.segment in ("inter-packet", "sleep"):
        return bits + layout.frame_bits(plans[error.packet - 1].msdu_octets)
    if error.segment in _SEGMENTS:
        sizes = _segment_bits(layout, plans[error.packet - 1].msdu_octets)
        bits += sum(sizes[:_SEGMENTS.index(error.segment)]) + (error.bit or 0)
    return bits


def _burst_attrs(args, kwargs, result, error):
    if error is not None and not hasattr(error, "packet"):
        return None
    plans, layout = tuple(args[0]), args[3]
    return {"bits": drained_bits(plans, layout, error),
            "samples": kwargs.get("record_samples", True)}


def _cycle_attrs(args, kwargs, result, error):
    if result is None:
        return None
    template, layout = args[3], args[5]
    return {"answer_bits": result.n_packets * layout.frame_bits(template.msdu_octets)}


def _rows_read(args, kwargs, result, error):
    return None if result is None else {"rows": len(result)}


def _rows_written(args, kwargs, result, error):
    if error is not None:
        return None
    with open(args[0], "rb") as handle:
        lines = sum(block.count(b"\n") for block in iter(lambda: handle.read(1 << 20), b""))
    return {"rows": lines - 1}


ATTRS = {
    "burst.burst_energy": _burst_attrs,
    "planner.cycle_report": _cycle_attrs,
    "fileio.load_voltage_trace": _rows_read,
    "fileio.load_calibration": _rows_read,
    "fileio.load_plan": _rows_read,
    "fileio.load_ocv_table": _rows_read,
    "fileio.write_table": _rows_written,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def install(self) -> None:
        """Wrap every binding of the targets in the loaded rfbudget modules."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "rfbudget" or name.startswith("rfbudget."))]
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for (module, func), name in table.items():
                original = getattr(sys.modules["rfbudget." + module], func)
                wrapper = make(name, original)
                for m in modules:
                    if getattr(m, func, None) is original:
                        self._patches.append((m, func, original))
                        setattr(m, func, wrapper)
        self.active = True

    def uninstall(self) -> None:
        for m, func, original in reversed(self._patches):
            setattr(m, func, original)
        self._patches.clear()
        self.active = False

    def take(self) -> tuple[list, dict]:
        """Spans and counts recorded since the last call."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], Counter()
        return spans, counts

    def _spanned(self, name, fn):
        attrs_of = ATTRS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            spans, stack = self.spans, self._stack
            sid = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(sid)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if attrs_of is not None:
                    book = [BOOKKEEPING, span[2], 0.0, span[3], None]
                    spans.append(book)
                    span[4] = attrs_of(args, kwargs, result, error)
                    book[2] = clock()
        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper


def wrapped_call_ns(calls: int = 20000, repeats: int = 5) -> float:
    """Median over ``repeats`` of the time of one call to an empty function
    through a span wrapper: the tracer's own cost per spanned call."""
    tracer = Tracer()
    tracer.active = True
    wrapped = tracer._spanned("trace.probe", lambda: None)
    clock = time.perf_counter
    times = []
    for _ in range(repeats):
        start = clock()
        for _ in range(calls):
            wrapped()
        times.append((clock() - start) / calls * 1e9)
        tracer.take()
    return statistics.median(times)


def dump(path, ops) -> None:
    """Write ``[(op, spans, counts), ...]`` as JSON lines."""
    with open(path, "w") as handle:
        for op, spans, counts in ops:
            handle.write(json.dumps({"op": op, "spans": spans, "counts": counts}) + "\n")


def load(path) -> list:
    with open(path) as handle:
        return [(d["op"], d["spans"], d["counts"]) for d in map(json.loads, handle)]
