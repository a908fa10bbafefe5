#!/usr/bin/env python3
"""Validate gest's fitness-attribution and coverage-ledger artifacts.

Checks the version-1 attribution JSON (attribution/individual_<id>.json,
sealed by a run with <output attribution="true"/> or written by `gest
attribute`) and the `# gest-coverage v1` per-generation ledger:

  * the object carries the documented keys, a filler with a known
    strategy, one well-formed entry per gene in body order, and the
    class / operand-bin / top-gene aggregate lists;
  * sum_delta equals the sum of the per-gene delta_fitness values to
    1e-9, every delta equals baseline - fitness_without, the
    evaluation count stays within [1, genes + 2], the class aggregates
    cover every gene, and the additive story stays inside the
    interaction sanity band: |sum_delta - whole_ablation_delta| must
    not exceed max(1, |baseline_fitness|) (gene interactions explain
    the gap; a violation means the deltas are nonsense);
  * coverage.csv declares the cell universe once and its rows are
    cumulative: cells_seen is non-decreasing, never exceeds
    cells_total, saturation_pct is recomputed exactly, per-class seen
    columns sum to cells_seen.

Usage:
  check_attribution.py <file.json | run_dir>  validate artifacts
  check_attribution.py --drive <gest-binary>  run a tiny GA with
                                              attribution + --listen
                                              on (coverage is always
                                              recorded), scrape
                                              /coverage while live,
                                              validate the sealed
                                              artifacts, `gest verify`
                                              the run, then cross-check
                                              `gest attribute` against
                                              the sealed result

With GEST_CHECK_ARTIFACT_DIR set, --drive copies its scratch run
directory there before exiting on failure, so CI can upload it.

Exit status 0 when the artifacts are valid; 1 with a message otherwise.
"""

import json
import math
import os
import sys
import tempfile
import time

import checklib
from checklib import ServerGone, fail, get_json, run_gest, running_gest

TOLERANCE = 1e-9

DRIVE_CONFIG = """<?xml version="1.0"?>
<gest_configuration>
  <ga population_size="24" individual_size="24" generations="200"
      seed="29" threads="2" fitness_cache_size="64"/>
  <library name="arm"/>
  <measurement class="SimIpcMeasurement">
    <config platform="xgene2"/>
  </measurement>
  <fitness class="DefaultFitness"/>
  <output directory="out" attribution="true" listen="127.0.0.1:0"/>
</gest_configuration>
"""

CLASS_TOKENS = ("short_int", "long_int", "float_simd", "mem", "branch",
                "nop")


# ---------------------------------------------------------------------
# Attribution artifacts.

def load_attribution(path):
    """Load one attribution JSON and check its schema; @return it."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as err:
        fail(f"cannot read {path}: {err}")
    except json.JSONDecodeError as err:
        fail(f"{path} is not valid JSON: {err}")
    if not isinstance(doc, dict) or doc.get("version") != 1:
        fail(f"{path}: not a version-1 attribution object")
    for key in ("individual_id", "generation", "baseline_fitness",
                "sum_delta", "whole_ablation_delta", "evaluations"):
        if not isinstance(doc.get(key), (int, float)):
            fail(f"{path}: missing or non-numeric '{key}'")
    filler = doc.get("filler")
    if not isinstance(filler, dict) or not filler.get("instruction") or \
            filler.get("strategy") not in ("nop", "same-class"):
        fail(f"{path}: malformed filler: {filler!r}")
    for key in ("genes", "classes", "operand_bins", "top_genes"):
        if not isinstance(doc.get(key), list):
            fail(f"{path}: missing list '{key}'")
    for index, gene in enumerate(doc["genes"]):
        if gene.get("gene") != index:
            fail(f"{path}: gene {index} carries index "
                 f"{gene.get('gene')!r}")
        if not gene.get("instruction"):
            fail(f"{path}: gene {index} has an empty instruction name")
        if gene.get("class") not in CLASS_TOKENS:
            fail(f"{path}: gene {index} has unknown class "
                 f"{gene.get('class')!r}")
        if not isinstance(gene.get("operands"), str):
            fail(f"{path}: gene {index} lacks its operands string")
        for key in ("delta_fitness", "fitness_without"):
            if not isinstance(gene.get(key), (int, float)) or \
                    not math.isfinite(gene[key]):
                fail(f"{path}: gene {index} has a bad {key}")
    return doc


def check_attribution_semantics(path, doc):
    genes = doc["genes"]
    baseline = doc["baseline_fitness"]
    if not math.isfinite(baseline):
        fail(f"{path}: non-finite baseline_fitness")

    derived_sum = 0.0
    for gene in genes:
        expected = baseline - gene["fitness_without"]
        if abs(gene["delta_fitness"] - expected) > TOLERANCE:
            fail(f"{path}: gene {gene['gene']} delta "
                 f"{gene['delta_fitness']!r} != baseline - "
                 f"fitness_without = {expected!r}")
        derived_sum += gene["delta_fitness"]
    if abs(doc["sum_delta"] - derived_sum) > TOLERANCE:
        fail(f"{path}: sum_delta {doc['sum_delta']!r} disagrees with "
             f"the per-gene sum {derived_sum!r}")

    # The interaction sanity band: per-gene deltas need not add up to
    # the joint ablation (interactions are the point), but the two must
    # stay commensurate with the baseline — a divergence beyond the
    # baseline's own magnitude means the deltas are garbage.
    band = max(1.0, abs(baseline))
    gap = abs(doc["sum_delta"] - doc["whole_ablation_delta"])
    if gap > band:
        fail(f"{path}: |sum_delta - whole_ablation_delta| = {gap!r} "
             f"exceeds the sanity band {band!r}")

    evals = int(doc["evaluations"])
    if not 1 <= evals <= len(genes) + 2:
        fail(f"{path}: evaluations {evals} outside [1, genes+2]")

    class_genes = sum(c.get("genes", 0) for c in doc["classes"])
    if class_genes != len(genes):
        fail(f"{path}: class aggregates cover {class_genes} genes of "
             f"{len(genes)}")


def validate_attribution_file(path):
    doc = load_attribution(path)
    check_attribution_semantics(path, doc)
    print(f"check_attribution: OK: {path}: {len(doc['genes'])} genes, "
          f"filler {doc['filler']['instruction']} "
          f"({doc['filler']['strategy']}), sum_delta {doc['sum_delta']}")
    return doc


# ---------------------------------------------------------------------
# The coverage ledger.

def validate_coverage_csv(path):
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as err:
        fail(f"cannot read {path}: {err}")
    if not lines or lines[0] != "# gest-coverage v1":
        fail(f"{path} lacks the '# gest-coverage v1' version header")

    cells_total = None
    class_cells = {}
    body_start = None
    for lineno, line in enumerate(lines[1:], start=2):
        if line.startswith("# cells_total "):
            cells_total = int(line.split(" ")[2])
        elif line.startswith("# class "):
            fields = line.split(" ")
            if len(fields) != 5 or fields[3] != "cells":
                fail(f"{path}:{lineno}: malformed class line: {line}")
            class_cells[fields[2]] = int(fields[4])
        elif line.startswith("#"):
            fail(f"{path}:{lineno}: unexpected comment: {line}")
        else:
            expected = ("generation,cells_new,cells_seen,cells_total,"
                        "saturation_pct,novelty_rate," +
                        ",".join(f"seen_{t}" for t in CLASS_TOKENS))
            if line != expected:
                fail(f"{path}:{lineno}: expected the column header, "
                     f"got: {line}")
            body_start = lineno
            break
    if cells_total is None or cells_total <= 0:
        fail(f"{path}: missing or non-positive cells_total")
    if set(class_cells) != set(CLASS_TOKENS):
        fail(f"{path}: class universe lines disagree with the class "
             f"set: {sorted(class_cells)}")
    if sum(class_cells.values()) != cells_total:
        fail(f"{path}: per-class cells sum to "
             f"{sum(class_cells.values())}, not cells_total "
             f"{cells_total}")
    if body_start is None:
        fail(f"{path} has no column header row")

    rows = 0
    prev_generation = None
    prev_seen = 0
    for lineno, line in enumerate(lines[body_start:],
                                  start=body_start + 1):
        parts = line.split(",")
        if len(parts) != 6 + len(CLASS_TOKENS):
            fail(f"{path}:{lineno}: expected "
                 f"{6 + len(CLASS_TOKENS)} columns: {line}")
        generation, new, seen, total = (int(parts[0]), int(parts[1]),
                                        int(parts[2]), int(parts[3]))
        saturation, novelty = float(parts[4]), float(parts[5])
        per_class = [int(p) for p in parts[6:]]
        if prev_generation is not None and \
                generation <= prev_generation:
            fail(f"{path}:{lineno}: generations not increasing")
        if total != cells_total:
            fail(f"{path}:{lineno}: cells_total changed mid-run")
        if seen != prev_seen + new:
            fail(f"{path}:{lineno}: cells_seen {seen} != previous "
                 f"{prev_seen} + cells_new {new}")
        if seen > total:
            fail(f"{path}:{lineno}: cells_seen exceeds the universe")
        if abs(saturation - 100.0 * seen / total) > 1e-3:
            fail(f"{path}:{lineno}: saturation_pct {saturation} != "
                 f"100 * {seen} / {total}")
        if not 0.0 <= novelty <= 1.0:
            fail(f"{path}:{lineno}: novelty_rate {novelty} outside "
                 f"[0, 1]")
        if sum(per_class) != seen:
            fail(f"{path}:{lineno}: per-class seen sums to "
                 f"{sum(per_class)}, not cells_seen {seen}")
        for token, cls_seen in zip(CLASS_TOKENS, per_class):
            if cls_seen > class_cells[token]:
                fail(f"{path}:{lineno}: seen_{token} {cls_seen} "
                     f"exceeds its universe {class_cells[token]}")
        prev_generation, prev_seen = generation, seen
        rows += 1
    if rows == 0:
        fail(f"{path} has no data rows")
    print(f"check_attribution: OK: {path}: {rows} generations, "
          f"{prev_seen}/{cells_total} cells "
          f"({100.0 * prev_seen / cells_total:.1f}%)")
    return cells_total, prev_seen


def validate_run_dir(run_dir):
    attribution_dir = os.path.join(run_dir, "attribution")
    results = []
    if os.path.isdir(attribution_dir):
        for name in sorted(os.listdir(attribution_dir)):
            if name.endswith(".json"):
                results.append(validate_attribution_file(
                    os.path.join(attribution_dir, name)))
    coverage_path = os.path.join(run_dir, "coverage.csv")
    coverage = None
    if os.path.exists(coverage_path):
        coverage = validate_coverage_csv(coverage_path)
    if not results and coverage is None:
        fail(f"{run_dir} holds neither attribution artifacts nor a "
             f"coverage.csv")
    return results, coverage


# ---------------------------------------------------------------------
# Drive mode.

def check_live_coverage(doc):
    for key in ("generation", "cells_seen", "cells_total", "cells_new",
                "saturation_pct", "novelty_rate", "classes"):
        if key not in doc:
            fail(f"/coverage lacks '{key}': {doc}")
    if doc["cells_total"] <= 0 or doc["cells_seen"] <= 0:
        fail(f"/coverage reports an empty universe: {doc}")
    if doc["cells_seen"] > doc["cells_total"]:
        fail(f"/coverage cells_seen exceeds cells_total: {doc}")
    if len(doc["classes"]) != len(CLASS_TOKENS):
        fail(f"/coverage lists {len(doc['classes'])} classes")
    if sum(c["seen"] for c in doc["classes"]) != doc["cells_seen"]:
        fail(f"/coverage class seen sums disagree: {doc}")


def drive(gest_binary):
    # The child runs with cwd inside the scratch dir; keep a relative
    # binary path working.
    gest_binary = os.path.abspath(gest_binary)
    with tempfile.TemporaryDirectory(prefix="gest-attr-") as work:
        checklib.keep_scratch(work)
        config = os.path.join(work, "config.xml")
        with open(config, "w", encoding="utf-8") as handle:
            handle.write(DRIVE_CONFIG)
        out = os.path.join(work, "out")
        with running_gest(gest_binary, config, work,
                          os.path.join(out, "status.json")) as run:
            # /coverage must render live while the run is in flight.
            live_passes = 0
            last_seen = 0
            while run.alive() and live_passes < 10:
                try:
                    doc = get_json(f"http://{run.listen}/coverage",
                                   "/coverage")
                except ServerGone as err:
                    # The run can complete between the poll and the
                    # GET; tolerate only if it did.
                    time.sleep(0.5)
                    if run.alive():
                        fail(f"/coverage unreachable while the run is "
                             f"alive: {err}")
                    break
                if doc.get("cells_total", 0) > 0:
                    check_live_coverage(doc)
                    if doc["cells_seen"] < last_seen:
                        fail("/coverage cells_seen decreased between "
                             "scrapes")
                    last_seen = doc["cells_seen"]
                    live_passes += 1
                time.sleep(0.1)
            run.finish()
            if live_passes == 0:
                fail("the run finished before a single live /coverage "
                     "pass — raise generations in DRIVE_CONFIG")
            print(f"check_attribution: OK: {live_passes} live "
                  f"/coverage passes, final cells_seen {last_seen}")

        results, coverage = validate_run_dir(out)
        if not results:
            fail("the run sealed no attribution artifacts")
        if coverage is None:
            fail("the run wrote no coverage.csv")
        if coverage[1] < last_seen:
            fail(f"coverage.csv final cells_seen {coverage[1]} below "
                 f"the live scrape's {last_seen}")

        # The manifest must label and checksum the new artifacts.
        with open(os.path.join(out, "manifest.json"),
                  encoding="utf-8") as handle:
            manifest = json.load(handle)
        # Coverage is always recorded, so only attribution is a
        # setting.
        settings = manifest.get("settings", {})
        if "record_coverage" in settings or \
                settings.get("record_attribution") is not True:
            fail("manifest settings must carry record_attribution and "
                 f"no record_coverage: {settings}")
        kinds = {entry["path"]: entry["kind"]
                 for entry in manifest.get("artifacts", [])}
        if kinds.get("coverage.csv") != "coverage":
            fail(f"manifest labels coverage.csv as "
                 f"{kinds.get('coverage.csv')!r}")
        attribution_kinds = [kind for path, kind in kinds.items()
                             if path.startswith("attribution/")]
        if not attribution_kinds or \
                set(attribution_kinds) != {"attribution"}:
            fail(f"manifest attribution kinds wrong: "
                 f"{attribution_kinds}")

        run_gest(gest_binary, ["verify", out, "--quiet"], work)
        print("check_attribution: OK: gest verify replayed the sealed "
              "run")

        # `gest attribute` after the fact must reproduce the sealed
        # attribution exactly (deterministic simulated measurement).
        re_dir = os.path.join(work, "re_attr")
        run_gest(gest_binary, ["attribute", config, out, "--out", re_dir,
                               "--quiet"], work)
        re_files = [name for name in sorted(os.listdir(re_dir))
                    if name.endswith(".json")]
        if len(re_files) != 1:
            fail(f"expected one re-attribution JSON, found {re_files}")
        redone = validate_attribution_file(
            os.path.join(re_dir, re_files[0]))

        sealed = {doc["individual_id"]: doc for doc in results}
        champion = redone["individual_id"]
        if champion not in sealed:
            fail(f"gest attribute picked individual {champion}, which "
                 f"the run never sealed ({sorted(sealed)})")
        for key in ("baseline_fitness", "sum_delta",
                    "whole_ablation_delta"):
            if abs(redone[key] - sealed[champion][key]) > TOLERANCE:
                fail(f"re-attribution {key} {redone[key]!r} disagrees "
                     f"with the sealed {sealed[champion][key]!r}")
        for sealed_gene, re_gene in zip(sealed[champion]["genes"],
                                        redone["genes"]):
            if abs(sealed_gene["delta_fitness"] -
                   re_gene["delta_fitness"]) > TOLERANCE:
                fail(f"re-attribution gene {re_gene['gene']} delta "
                     f"disagrees with the sealed artifact")
        print("check_attribution: OK: gest attribute reproduced the "
              "sealed attribution bit-for-bit")
        checklib.keep_scratch(None)


def main(argv):
    if len(argv) == 3 and argv[1] == "--drive":
        drive(argv[2])
        return 0
    if len(argv) == 2 and not argv[1].startswith("-"):
        if os.path.isdir(argv[1]):
            validate_run_dir(argv[1])
        else:
            validate_attribution_file(argv[1])
        return 0
    print(__doc__.strip(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
