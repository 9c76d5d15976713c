#!/usr/bin/env python3
"""Validates a BENCH_overload.json export (schema psmr.bench.overload.v1).

Usage: check_bench_overload_json.py BENCH_overload.json [more.json ...]

Checks, per file:
  * parses as JSON and is an object with schema == "psmr.bench.overload.v1";
  * `capacity_cmds_per_sec` is a positive finite number;
  * `config` carries the resolved run shape (workers, clients,
    max_pending_batches, global_credits, seconds_per_row);
  * `sweep` is a non-empty list of rows sorted by ascending multiplier,
    each carrying the full field set with sane types/ranges
    (shed_fraction in [0,1], counts consistent: admitted + shed == offered,
    completed <= admitted);
  * bounded memory: every row's max_graph stays <= max_pending_batches;
  * the knee is demonstrated: the highest-multiplier row (past saturation
    by construction: >= 1.5x) sheds a larger fraction than the lowest one,
    and sheds at all.

Exit status 0 when every file validates; 1 otherwise, with one line per
problem on stderr, followed by the failing file's capacity_cmds_per_sec
and each sweep row's multiplier, offered, shed and shed_fraction, so a
failure can be diagnosed from the test log alone. Stdlib only — runs
anywhere CI has a python3.
"""

import json
import math
import sys

SCHEMA = "psmr.bench.overload.v1"
ROW_FIELDS = {
    "multiplier", "offered_rate", "offered", "admitted", "shed", "completed",
    "shed_fraction", "throughput", "p50_us", "p99_us", "p999_us",
    "p999_ratio_vs_capacity", "max_graph", "watermark_crossings",
    "backpressure_waits", "watchdog_stalls",
}
CONFIG_FIELDS = {
    "workers", "clients", "max_pending_batches", "global_credits",
    "per_client_inflight", "seconds_per_row",
}
COUNT_FIELDS = ("offered", "admitted", "shed", "completed",
                "watermark_crossings", "backpressure_waits", "watchdog_stalls")


def fail(path, msg, problems):
    problems.append(f"{path}: {msg}")


def is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def check_file(path, problems):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(path, f"unreadable or invalid JSON: {e}", problems)
        return

    if not isinstance(doc, dict):
        fail(path, "top level is not an object", problems)
        return
    if doc.get("schema") != SCHEMA:
        fail(path, f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}", problems)
    cap = doc.get("capacity_cmds_per_sec")
    if not is_num(cap) or cap <= 0:
        fail(path, f"capacity_cmds_per_sec is not a positive number: {cap!r}", problems)

    config = doc.get("config")
    if not isinstance(config, dict) or not CONFIG_FIELDS.issubset(config):
        fail(path, f"config missing or lacks fields {sorted(CONFIG_FIELDS)}", problems)
        config = {}

    sweep = doc.get("sweep")
    if not isinstance(sweep, list) or not sweep:
        fail(path, "sweep is missing or empty", problems)
        return

    prev_mult = -1.0
    for i, row in enumerate(sweep):
        where = f"sweep[{i}]"
        if not isinstance(row, dict):
            fail(path, f"{where} is not an object", problems)
            continue
        missing = ROW_FIELDS - set(row)
        if missing:
            fail(path, f"{where} missing fields {sorted(missing)}", problems)
            continue
        bad = [k for k in ROW_FIELDS if not is_num(row[k])]
        if bad:
            fail(path, f"{where} has non-numeric fields {bad}", problems)
            continue
        if row["multiplier"] <= prev_mult:
            fail(path, f"{where} multipliers not strictly ascending", problems)
        prev_mult = row["multiplier"]
        for k in COUNT_FIELDS:
            if row[k] < 0 or row[k] != int(row[k]):
                fail(path, f"{where} count {k!r} is not a non-negative integer", problems)
        if not 0.0 <= row["shed_fraction"] <= 1.0:
            fail(path, f"{where} shed_fraction out of [0,1]: {row['shed_fraction']}", problems)
        if row["admitted"] + row["shed"] != row["offered"]:
            fail(path, f"{where} admitted + shed != offered", problems)
        if row["completed"] > row["admitted"]:
            fail(path, f"{where} completed exceeds admitted", problems)
        bound = config.get("max_pending_batches")
        if is_num(bound) and row["max_graph"] > bound:
            fail(path, f"{where} max_graph {row['max_graph']} exceeds "
                       f"max_pending_batches {bound} — memory not bounded", problems)

    rows = [r for r in sweep if isinstance(r, dict) and ROW_FIELDS.issubset(r)]
    if rows:
        first, last = rows[0], rows[-1]
        if last["multiplier"] >= 1.5:
            if last["shed"] == 0:
                fail(path, "highest-multiplier row shed nothing — no knee demonstrated",
                     problems)
            if last["shed_fraction"] < first["shed_fraction"]:
                fail(path, "shed fraction does not rise from the lowest to the "
                           "highest multiplier", problems)


def dump_summary(path):
    """Prints to stderr the figures the checks read, whatever their shape."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError):
        return
    if not isinstance(doc, dict):
        return
    print(f"{path}: capacity_cmds_per_sec = {doc.get('capacity_cmds_per_sec')!r}",
          file=sys.stderr)
    sweep = doc.get("sweep")
    if not isinstance(sweep, list):
        return
    print(f"{path}: sweep rows (multiplier, offered, shed, shed_fraction):",
          file=sys.stderr)
    for i, row in enumerate(sweep):
        if not isinstance(row, dict):
            print(f"  [{i}] {row!r}", file=sys.stderr)
            continue
        fields = ", ".join(repr(row.get(k))
                           for k in ("multiplier", "offered", "shed", "shed_fraction"))
        print(f"  [{i}] {fields}", file=sys.stderr)


def main(argv):
    paths = [a for a in argv[1:] if not a.startswith("--")]
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    problems = []
    for path in paths:
        before = len(problems)
        check_file(path, problems)
        for p in problems[before:]:
            print(p, file=sys.stderr)
        if len(problems) > before:
            dump_summary(path)
    if not problems:
        print(f"{len(paths)} file(s) conform to {SCHEMA}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
