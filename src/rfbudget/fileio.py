"""CSV ingestion, run configuration, and deterministic report emission.

Input file formats (comma separated, one header line):

    voltage trace   t_s,v_v
    OCV table       p_dbm,v_oc_v
    calibration     c_c_ma,p_t_dbm
    burst plan      msdu_octets,p_t_dbm,r_d_bps

Reports are flat key/value records with the unit in the key name
(energies in uJ, voltages in V, times in s). All numbers pass through a
6-significant-digit formatter so identical inputs produce byte-identical
output.
"""

import csv
import json
import math
from collections.abc import Iterable, Sequence
from pathlib import Path

from .burst import DEFAULT_BROWNOUT_V
from .device import DeviceProfile, FrameLayout, PacketPlan, finite, record
from .errors import TraceParseError
from .harvest import OcvTable, VoltageSample
from .radiopower import CalibrationPoint

TRACE_HEADER = ("t_s", "v_v")
OCV_HEADER = ("p_dbm", "v_oc_v")
CALIBRATION_HEADER = ("c_c_ma", "p_t_dbm")
PLAN_HEADER = ("msdu_octets", "p_t_dbm", "r_d_bps")

# config key (with unit suffix) -> DeviceProfile field
_DEVICE_KEYS = {
    "alpha1_dbm": "alpha1",
    "alpha2_dbm": "alpha2",
    "alpha3_per_ma": "alpha3",
    "alpha4_ma": "alpha4",
    "wake_slope_ms_per_octet": "wake_slope",
    "wake_intercept_ms": "wake_intercept",
    "wake_current_ma": "wake_current",
    "sleep_time_ms": "sleep_time",
    "txrx_off_current_ma": "txrx_off_current",
    "txrx_on_time_ms": "txrx_on_time",
    "txrx_off_time_ms": "txrx_off_time",
    "txrx_on_current_ma": "txrx_on_current",
}

_FRAME_KEYS = {
    "shr_octets": "shr_octets",
    "phr_octets": "phr_octets",
    "mhr_octets": "mhr_octets",
    "fcs_octets": "fcs_octets",
    "max_msdu_octets": "max_msdu_octets",
    "preamble_rate_bps": "preamble_rate",
}

# config sections that must be JSON objects; "description" is free text
_SECTIONS = ("device", "frame", "ocv_table", "esc")
_TOP_KEYS = (*_SECTIONS, "brownout_v", "include_final_gap", "description")
_ESC_KEYS = ("capacitance_f", "initial_voltage_v")


def _load(path, header: tuple[str, ...], make, build=list):
    """``build`` of the records ``make(*floats)`` of the data rows of the
    CSV file ``path``, whose first line must be ``header``; blank lines are
    skipped.

    A wrong field count, a field that is not a number, a ValueError from
    ``make`` or ``build`` and a csv.Error all end in one TraceParseError
    that names the path and the 1-based line the reader stopped at.
    Undecodable bytes read as U+FFFD, so they fail the header or number
    check of their own line."""
    with open(path, newline="", errors="replace") as handle:
        reader = csv.reader(handle)

        def records():
            for row in reader:
                fields = [field.strip() for field in row]
                if not any(fields):
                    continue
                if len(fields) != len(header):
                    raise ValueError(f"expected {len(header)} fields, "
                                     f"got {len(fields)}")
                yield make(*map(float, fields))

        try:
            first = next(reader, None)
            if first is None:
                raise TraceParseError(f"{path}: empty file, expected header "
                                      f"{','.join(header)}", line=1)
            if tuple(field.strip() for field in first) != header:
                raise ValueError(f"expected header {','.join(header)}, "
                                 f"got {','.join(first)}")
            return build(records())
        except (ValueError, csv.Error) as exc:
            raise TraceParseError(f"{path}: line {reader.line_num}: {exc}",
                                  line=reader.line_num) from None


def load_voltage_trace(path) -> list[VoltageSample]:
    """Read a charging trace; times must be nondecreasing."""
    last_t = 0.0  # VoltageSample rejects a negative time first

    def sample(t, v):
        nonlocal last_t
        record = VoltageSample(t=t, v=v)
        if t < last_t:
            raise ValueError(f"non-monotone time {t} s after {last_t} s")
        last_t = t
        return record
    return _load(path, TRACE_HEADER, sample)


def load_ocv_table(path) -> OcvTable:
    return _load(path, OCV_HEADER, lambda p, v: (p, v), OcvTable)


def load_calibration(path) -> list[CalibrationPoint]:
    return _load(path, CALIBRATION_HEADER, CalibrationPoint)


def load_plan(path) -> list[PacketPlan]:
    def plan(msdu, p_t, r_d):
        # PacketPlan rejects the float when it is not a whole number.
        return PacketPlan(msdu_octets=int(msdu) if msdu.is_integer() else msdu,
                          tx_power=p_t, data_rate=r_d)
    return _load(path, PLAN_HEADER, plan)


@record
class RunConfig:
    """Resolved run configuration: device, frame, OCV table, mode flags.
    ``RunConfig()`` is the built-in default: no store, final gap counted."""

    profile: DeviceProfile = DeviceProfile()
    layout: FrameLayout = FrameLayout()
    ocv_table: OcvTable = OcvTable.p2110()
    capacitance_f: float | None = None
    initial_voltage_v: float | None = None
    brownout_v: float | None = DEFAULT_BROWNOUT_V
    include_final_gap: bool = True

    def __post_init__(self):
        # None leaves the store unset (flags must give it) or, for
        # brownout_v, disables the brown-out warning.
        for key in ("capacitance_f", "initial_voltage_v", "brownout_v"):
            if getattr(self, key) is not None:
                finite(key, getattr(self, key))
        if not isinstance(self.include_final_gap, bool):
            raise ValueError("include_final_gap must be true or false, got "
                             f"{self.include_final_gap!r}")


def _check_keys(section: dict, allowed, what: str) -> None:
    for key in section:
        if key not in allowed:
            raise ValueError(f"unknown {what} key {key!r}; "
                             f"expected one of {sorted(allowed)}")


def _apply_keys(section: dict, mapping: dict, what: str) -> dict:
    _check_keys(section, mapping, f"{what} config")
    return {mapping[key]: finite(f"{what} config key {key!r}", value)
            for key, value in section.items()}


def _ocv_table(section: dict) -> OcvTable:
    if (set(section) != set(OCV_HEADER)
            or not all(isinstance(section[key], list) for key in OCV_HEADER)
            or len(section["p_dbm"]) != len(section["v_oc_v"])):
        raise ValueError("config ocv_table must give exactly p_dbm and "
                         "v_oc_v, as lists of equal length")
    return OcvTable(zip(section["p_dbm"], section["v_oc_v"]))


def load_config(path=None) -> RunConfig:
    """``RunConfig()`` overlaid with the user JSON file at ``path``, if any.

    The defaults are those of ``DeviceProfile``, ``FrameLayout``,
    ``OcvTable.p2110()`` and ``burst.DEFAULT_BROWNOUT_V``. The ``device``
    and ``frame`` sections overlay their record's defaults key by key;
    every other value, a user ``ocv_table`` included, replaces its default
    whole. Unknown keys are rejected; ``description`` is ignored."""
    if path is None:
        return RunConfig()
    try:
        with open(path) as handle:
            user = json.load(handle)
        if not isinstance(user, dict):
            raise ValueError("config must be a JSON object, "
                             f"got {type(user).__name__}")
        _check_keys(user, _TOP_KEYS, "top-level config")
        for key, value in user.items():
            if key in _SECTIONS and not isinstance(value, dict):
                raise ValueError(f"config section {key!r} must be an object, "
                                 f"got {type(value).__name__}")
            if key == "esc":
                _check_keys(value, _ESC_KEYS, "esc config")

        fields = {key: user[key] for key in ("brownout_v", "include_final_gap")
                  if key in user}
        fields.update(user.get("esc", {}))
        fields["profile"] = DeviceProfile(**_apply_keys(
            user.get("device", {}), _DEVICE_KEYS, "device"))
        fields["layout"] = FrameLayout(**_apply_keys(
            user.get("frame", {}), _FRAME_KEYS, "frame"))
        if "ocv_table" in user:
            fields["ocv_table"] = _ocv_table(user["ocv_table"])
        return RunConfig(**fields)
    except RecursionError:
        raise ValueError(f"{path}: config nests too deeply to parse") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def fmt6(value) -> str:
    """Fixed 6-significant-digit rendering used by every emitted number."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return format(value, ".6g")


def _fmt_finite(value, what: str, key) -> str:
    """fmt6 of ``value``; a ValueError naming ``what`` ``key`` when it is a
    float that is not finite: JSON has no inf or nan, and no report or
    table may carry one."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{what} {key!r} is {value}, not a finite number")
    return fmt6(value)


def _jsonable(key, value):
    if isinstance(value, bool) or isinstance(value, int) or isinstance(value, str):
        return value
    return float(_fmt_finite(value, "report key", key))


def render_record_json(record: dict) -> str:
    return json.dumps({k: _jsonable(k, v) for k, v in record.items()},
                      sort_keys=True, indent=2) + "\n"


def render_record_csv(record: dict) -> str:
    lines = ["key,value"]
    for key in sorted(record):
        lines.append(f"{key},{_fmt_finite(record[key], 'report key', key)}")
    return "\n".join(lines) + "\n"


def write_table(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV table with every number at 6 significant digits; a
    non-finite float is a ValueError that names its column. On any error
    while writing, the partial file is removed before the error goes on."""
    path = Path(path)
    handle = open(path, "w", newline="")
    try:
        with handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([
                    _fmt_finite(cell, "column", column)
                    if isinstance(cell, float) else cell
                    for column, cell in zip(header, row, strict=True)])
    except BaseException:
        path.unlink(missing_ok=True)
        raise
