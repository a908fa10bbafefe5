#!/usr/bin/env python3
"""Validate a BENCH_engine.json perf-smoke report.

The report is written by `bench_micro_engine --smoke_json=<path>` and
records, per shipped platform, evals/sec with the steady-state fast
path on and off over a random body set and a steady (tiling) body set.

Gating checks (schema and correctness — these must always hold):

  * valid JSON with version 1 and benchmark "engine_steady_smoke";
  * one record per platform with all required fields and sane types;
  * fitness_identical is true everywhere: the fast path must produce
    bit-identical evaluations to full simulation;
  * rates are positive and speedups consistent with the rates.

Absolute throughput and speedup values are reported but never gated —
CI machines are too noisy for that.

Usage:
  check_bench.py <BENCH_engine.json>      validate an existing report
  check_bench.py <new.json> --previous <old.json>
                                          validate, then print an
                                          informational throughput diff
                                          against a previous report
  check_bench.py --drive <bench-binary>   run the smoke in a temp dir,
                                          then validate its report

The --previous diff never fails the check: it exists so a CI log (or a
human) can eyeball run-over-run drift against the committed baseline.
A missing or unreadable previous report is reported and skipped.

Exit status 0 when the report is valid; 1 with a message otherwise.
"""

import json
import math
import os
import subprocess
import sys
import tempfile

import checklib
from checklib import fail


REQUIRED_FIELDS = {
    "platform": str,
    "min_cycles": int,
    "bodies": int,
    "steady_hits": int,
    "fitness_identical": bool,
    "evals_per_sec_fast": (int, float),
    "evals_per_sec_full": (int, float),
    "speedup": (int, float),
    "steady_bodies": int,
    "evals_per_sec_fast_steady": (int, float),
    "evals_per_sec_full_steady": (int, float),
    "speedup_steady": (int, float),
    "coverage_cells": int,
    "evals_per_sec_fast_cov": (int, float),
    "coverage_overhead": (int, float),
}




def check_speedup(record, fast_key, full_key, speedup_key):
    fast = record[fast_key]
    full = record[full_key]
    speedup = record[speedup_key]
    name = record["platform"]
    if full <= 0.0:
        # No bodies in this set; the speedup must be the 0 sentinel.
        if speedup != 0.0:
            fail(f"{name}: {speedup_key} is {speedup} but {full_key} "
                 "is 0")
        return
    if fast <= 0.0:
        fail(f"{name}: {fast_key} must be positive, got {fast}")
    if not math.isclose(speedup, fast / full, rel_tol=0.02):
        fail(f"{name}: {speedup_key} {speedup} inconsistent with "
             f"{fast_key}/{full_key} = {fast / full:.3f}")


def validate(path):
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as err:
        fail(f"cannot read {path}: {err}")
    except json.JSONDecodeError as err:
        fail(f"{path} is not valid JSON: {err}")

    if not isinstance(doc, dict):
        fail(f"{path} is not a JSON object")
    if doc.get("version") != 1:
        fail(f"unexpected version {doc.get('version')!r}")
    if doc.get("benchmark") != "engine_steady_smoke":
        fail(f"unexpected benchmark {doc.get('benchmark')!r}")
    platforms = doc.get("platforms")
    if not isinstance(platforms, list) or not platforms:
        fail("platforms is missing, not a list, or empty")

    seen = set()
    for index, record in enumerate(platforms):
        if not isinstance(record, dict):
            fail(f"platform record {index} is not an object")
        for field, types in REQUIRED_FIELDS.items():
            if field not in record:
                fail(f"platform record {index} lacks '{field}'")
            value = record[field]
            if not isinstance(value, types) or isinstance(value, bool) \
                    and types is not bool:
                fail(f"platform record {index} field '{field}' has "
                     f"unexpected type: {value!r}")
        name = record["platform"]
        if name in seen:
            fail(f"duplicate platform record '{name}'")
        seen.add(name)
        if record["min_cycles"] < 256:
            fail(f"{name}: min_cycles {record['min_cycles']} < 256")
        if record["bodies"] <= 0:
            fail(f"{name}: bodies must be positive")
        if not 0 <= record["steady_hits"] <= record["bodies"]:
            fail(f"{name}: steady_hits {record['steady_hits']} out of "
                 f"range for {record['bodies']} bodies")
        # The gating bit: the fast path must be bit-identical to full
        # simulation on every platform.
        if record["fitness_identical"] is not True:
            fail(f"{name}: fitness_identical is false — the steady "
                 "fast path diverged from full simulation")
        check_speedup(record, "evals_per_sec_fast",
                      "evals_per_sec_full", "speedup")
        check_speedup(record, "evals_per_sec_fast_steady",
                      "evals_per_sec_full_steady", "speedup_steady")
        if record["coverage_cells"] <= 0:
            fail(f"{name}: coverage_cells must be positive")
        if record["evals_per_sec_fast_cov"] <= 0 or \
                record["coverage_overhead"] <= 0:
            fail(f"{name}: coverage datapoint must be positive")

    summary = ", ".join(
        f"{r['platform']} {r['speedup']:.2f}x/"
        f"{r['speedup_steady']:.2f}x" for r in platforms)
    print(f"check_bench: OK: {path}: {len(platforms)} platforms "
          f"(random/steady speedups: {summary})")
    return platforms


def diff_previous(platforms, previous_path):
    """Print an informational throughput diff; never fails the check."""
    try:
        with open(previous_path, encoding="utf-8") as handle:
            previous = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        print(f"check_bench: no usable previous report "
              f"({previous_path}: {err}); skipping the diff")
        return
    old_by_name = {r.get("platform"): r
                   for r in previous.get("platforms", [])
                   if isinstance(r, dict)}
    print(f"check_bench: throughput vs {previous_path} "
          "(informational, never gated):")
    for record in platforms:
        name = record["platform"]
        old = old_by_name.get(name)
        if old is None:
            print(f"  {name}: new platform (no previous record)")
            continue
        for key in ("evals_per_sec_fast", "evals_per_sec_full",
                    "evals_per_sec_fast_steady",
                    "evals_per_sec_full_steady",
                    "evals_per_sec_fast_cov"):
            new_v = record[key]
            old_v = old.get(key)
            if not isinstance(old_v, (int, float)) or old_v <= 0:
                continue
            rel = 100.0 * (new_v - old_v) / old_v
            print(f"  {name} {key}: {old_v:.0f} -> {new_v:.0f} "
                  f"({rel:+.1f}%)")
    dropped = sorted(set(old_by_name) -
                     {r["platform"] for r in platforms})
    for name in dropped:
        print(f"  {name}: present previously, missing now")


def drive(bench_binary):
    with tempfile.TemporaryDirectory(prefix="gest-bench-") as work:
        checklib.keep_scratch(work)
        report = os.path.join(work, "BENCH_engine.json")
        result = subprocess.run(
            [bench_binary, f"--smoke_json={report}"],
            cwd=work, capture_output=True, text=True)
        if result.returncode != 0:
            fail(f"bench smoke failed ({result.returncode}):\n"
                 f"{result.stdout}{result.stderr}")
        validate(report)
        checklib.keep_scratch(None)


def main(argv):
    if len(argv) == 3 and argv[1] == "--drive":
        drive(argv[2])
        return 0
    if len(argv) == 4 and argv[2] == "--previous":
        platforms = validate(argv[1])
        diff_previous(platforms, argv[3])
        return 0
    if len(argv) == 2 and not argv[1].startswith("-"):
        validate(argv[1])
        return 0
    print(__doc__.strip(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
