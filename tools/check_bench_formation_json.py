#!/usr/bin/env python3
"""Validates a BENCH_scheduler_formation.json export (psmr.bench.formation.v1).

Usage: check_bench_formation_json.py BENCH_scheduler_formation.json [more ...]

Checks, per file:
  * parses as JSON and is an object with schema == "psmr.bench.formation.v1";
  * `config` carries the resolved run shape (workers, batch_size, policies,
    zipf_thetas);
  * `formation_sweep` is a non-empty list of (theta, policy) rows, oblivious
    and affinity paired per theta, each carrying the full field set with sane
    types/ranges (fractions in [0,1], positive throughput, avg_batch_fill in
    (0, batch_size]);
  * the acceptance bar: on the fully partitionable workload (theta == 0),
    affinity formation drops multi_class_fraction by at least 5x vs
    oblivious packing (which must itself produce mixed batches — otherwise
    the comparison is vacuous).

Exit status 0 when every file validates; 1 otherwise, with one line per
problem on stderr. Stdlib only — runs anywhere CI has a python3.
"""

import json
import math
import sys

SCHEMA = "psmr.bench.formation.v1"
ROW_FIELDS = {
    "zipf_theta", "policy", "workers", "batch_size", "commands",
    "batches_formed", "avg_batch_fill", "multi_class_fraction",
    "delivery_kcmds_per_sec",
}
NUM_FIELDS = ROW_FIELDS - {"policy"}
CONFIG_FIELDS = {"workers", "batch_size", "policies", "zipf_thetas"}
FRACTION_FIELDS = ("multi_class_fraction",)
MIN_DROP = 5.0


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

    config = doc.get("config")
    if not isinstance(config, dict) or not CONFIG_FIELDS.issubset(config):
        fail(path, f"config missing or lacks fields {sorted(CONFIG_FIELDS)}", problems)

    sweep = doc.get("formation_sweep")
    if not isinstance(sweep, list) or not sweep:
        fail(path, "formation_sweep is missing or empty", problems)
        return

    by_theta = {}
    for i, row in enumerate(sweep):
        where = f"formation_sweep[{i}]"
        if not isinstance(row, dict):
            fail(path, f"{where} is not an object", problems)
            continue
        missing = ROW_FIELDS - set(row)
        if missing:
            fail(path, f"{where} missing fields {sorted(missing)}", problems)
            continue
        bad = [k for k in NUM_FIELDS if not is_num(row[k])]
        if bad:
            fail(path, f"{where} has non-numeric fields {bad}", problems)
            continue
        policy = row["policy"]
        if policy not in ("oblivious", "affinity"):
            fail(path, f"{where} unknown policy {policy!r}", problems)
            continue
        for k in FRACTION_FIELDS:
            if not 0.0 <= row[k] <= 1.0:
                fail(path, f"{where} {k} out of [0,1]: {row[k]}", problems)
        if row["delivery_kcmds_per_sec"] <= 0:
            fail(path, f"{where} delivery_kcmds_per_sec is not positive", problems)
        if row["batches_formed"] <= 0:
            fail(path, f"{where} batches_formed is not positive", problems)
        if not 0.0 < row["avg_batch_fill"] <= row["batch_size"]:
            fail(path, f"{where} avg_batch_fill {row['avg_batch_fill']} outside "
                       f"(0, batch_size={row['batch_size']}]", problems)
        pair = by_theta.setdefault(row["zipf_theta"], {})
        if policy in pair:
            fail(path, f"{where} duplicate ({row['zipf_theta']}, {policy}) row",
                 problems)
        pair[policy] = row

    for theta, pair in sorted(by_theta.items()):
        if set(pair) != {"oblivious", "affinity"}:
            fail(path, f"theta={theta} lacks an oblivious/affinity pair", problems)

    # The acceptance bar: theta == 0 is perfectly partitionable, so affinity
    # formation must collapse the mixing fraction by >= MIN_DROP x.
    zero = by_theta.get(0.0) or by_theta.get(0)
    if zero is None or set(zero) != {"oblivious", "affinity"}:
        fail(path, "no complete theta=0 pair — acceptance comparison impossible",
             problems)
        return
    obl, aff = zero["oblivious"], zero["affinity"]
    for k in FRACTION_FIELDS:
        if obl[k] <= 0.0:
            fail(path, f"theta=0 oblivious {k} is 0 — nothing to improve on "
                       "(workload not exercising mixed batches)", problems)
        elif aff[k] * MIN_DROP > obl[k]:
            fail(path, f"theta=0 affinity {k} {aff[k]} is not >= {MIN_DROP}x "
                       f"below oblivious {obl[k]}", problems)


def main(argv):
    paths = [a for a in argv[1:] if not a.startswith("--")]
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    problems = []
    for path in paths:
        check_file(path, problems)
    for p in problems:
        print(p, file=sys.stderr)
    if not problems:
        print(f"{len(paths)} file(s) conform to {SCHEMA}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
