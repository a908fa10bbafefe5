#!/usr/bin/env python3
"""Validate gest's fitness-attribution and coverage-ledger artifacts.

Checks the `# gest-attribution v1` CSV format (sealed by a run with
<output attribution="true"/> or written by `gest attribute`) and the
`# gest-coverage v1` per-generation ledger:

  * the version comment, `# annotation` lines, the `# filler` line and
    the per-gene rows are well-formed, with one row per declared gene;
  * the sum_delta annotation equals the sum of the per-gene
    delta_fitness values to 1e-9, every delta equals
    baseline - fitness_without, and the additive story stays inside the
    interaction sanity band: |sum_delta - whole_ablation_delta| must
    not exceed max(1, |baseline_fitness|) (gene interactions explain
    the gap; a violation means the deltas are nonsense);
  * the JSON twin (<base>.json) carries the same annotations, genes,
    class and operand-bin aggregates;
  * coverage.csv declares the cell universe once and its rows are
    cumulative: cells_seen is non-decreasing, never exceeds
    cells_total, saturation_pct is recomputed exactly, per-class seen
    columns sum to cells_seen.

Usage:
  check_attribution.py <file.csv | run_dir>   validate artifacts
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
import subprocess
import sys
import tempfile
import time

import checklib
from checklib import ServerGone, fail, get_json, wait_for_listen

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

def parse_attribution_csv(path):
    """Parse one gest-attribution CSV into (annotations, filler, rows)."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as err:
        fail(f"cannot read {path}: {err}")
    if not lines or lines[0] != "# gest-attribution v1":
        fail(f"{path} lacks the '# gest-attribution v1' version header")

    annotations = {}
    filler = None
    body_start = None
    for lineno, line in enumerate(lines[1:], start=2):
        if line.startswith("# annotation "):
            parts = line.split(" ", 3)
            if len(parts) != 4:
                fail(f"{path}:{lineno}: malformed annotation: {line}")
            annotations[parts[2]] = float(parts[3])
        elif line.startswith("# filler "):
            fields = line.split(" ")
            if len(fields) != 5 or fields[3] != "strategy":
                fail(f"{path}:{lineno}: malformed filler line: {line}")
            if fields[4] not in ("nop", "same-class"):
                fail(f"{path}:{lineno}: unknown filler strategy "
                     f"'{fields[4]}'")
            filler = (fields[2], fields[4])
        elif line.startswith("#"):
            fail(f"{path}:{lineno}: unexpected comment: {line}")
        else:
            if line != ("gene,instruction,class,operands,delta_fitness,"
                        "fitness_without"):
                fail(f"{path}:{lineno}: expected the column header, "
                     f"got: {line}")
            body_start = lineno
            break
    if body_start is None:
        fail(f"{path} has no column header row")
    if filler is None:
        fail(f"{path} has no '# filler' line")
    for key in ("individual_id", "baseline_fitness", "sum_delta",
                "whole_ablation_delta", "evaluations", "genes"):
        if key not in annotations:
            fail(f"{path} lacks the '{key}' annotation")

    rows = []
    for lineno, line in enumerate(lines[body_start:],
                                  start=body_start + 1):
        parts = line.split(",")
        if len(parts) != 6:
            fail(f"{path}:{lineno}: expected 6 columns: {line}")
        gene, instruction, cls, operands, delta, without = parts
        if int(gene) != len(rows):
            fail(f"{path}:{lineno}: gene index {gene} out of order")
        if not instruction:
            fail(f"{path}:{lineno}: empty instruction name")
        if cls not in CLASS_TOKENS:
            fail(f"{path}:{lineno}: unknown class token '{cls}'")
        delta, without = float(delta), float(without)
        if not math.isfinite(delta) or not math.isfinite(without):
            fail(f"{path}:{lineno}: non-finite delta/fitness")
        rows.append({"gene": int(gene), "instruction": instruction,
                     "class": cls, "operands": operands,
                     "delta_fitness": delta,
                     "fitness_without": without})
    return annotations, filler, rows


def check_attribution_semantics(path, annotations, rows):
    if len(rows) != int(annotations["genes"]):
        fail(f"{path}: {len(rows)} gene rows but the 'genes' "
             f"annotation says {int(annotations['genes'])}")
    baseline = annotations["baseline_fitness"]
    if not math.isfinite(baseline):
        fail(f"{path}: non-finite baseline_fitness")

    derived_sum = 0.0
    for row in rows:
        expected = baseline - row["fitness_without"]
        if abs(row["delta_fitness"] - expected) > TOLERANCE:
            fail(f"{path}: gene {row['gene']} delta "
                 f"{row['delta_fitness']!r} != baseline - "
                 f"fitness_without = {expected!r}")
        derived_sum += row["delta_fitness"]
    if abs(annotations["sum_delta"] - derived_sum) > TOLERANCE:
        fail(f"{path}: sum_delta {annotations['sum_delta']!r} "
             f"disagrees with the row sum {derived_sum!r}")

    # The interaction sanity band: per-gene deltas need not add up to
    # the joint ablation (interactions are the point), but the two must
    # stay commensurate with the baseline — a divergence beyond the
    # baseline's own magnitude means the deltas are garbage.
    band = max(1.0, abs(baseline))
    gap = abs(annotations["sum_delta"] -
              annotations["whole_ablation_delta"])
    if gap > band:
        fail(f"{path}: |sum_delta - whole_ablation_delta| = {gap!r} "
             f"exceeds the sanity band {band!r}")

    evals = int(annotations["evaluations"])
    if not 1 <= evals <= len(rows) + 2:
        fail(f"{path}: evaluations {evals} outside [1, genes+2]")


def check_attribution_json_twin(csv_path, annotations, filler, rows):
    json_path = os.path.splitext(csv_path)[0] + ".json"
    if not os.path.exists(json_path):
        fail(f"{csv_path} has no JSON twin {json_path}")
    try:
        with open(json_path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"{json_path} invalid: {err}")
    if doc.get("version") != 1:
        fail(f"{json_path}: version != 1")
    for key in ("individual_id", "baseline_fitness", "sum_delta",
                "whole_ablation_delta", "evaluations", "genes"):
        if key not in doc:
            fail(f"{json_path}: missing '{key}'")
    for key in ("baseline_fitness", "sum_delta",
                "whole_ablation_delta"):
        if abs(doc[key] - annotations[key]) > TOLERANCE:
            fail(f"{json_path}: {key} disagrees with the CSV")
    if doc.get("filler", {}).get("instruction") != filler[0] or \
            doc.get("filler", {}).get("strategy") != filler[1]:
        fail(f"{json_path}: filler disagrees with the CSV")
    genes = doc["genes"]
    if len(genes) != len(rows):
        fail(f"{json_path}: {len(genes)} genes vs {len(rows)} CSV rows")
    for gene, row in zip(genes, rows):
        if gene.get("instruction") != row["instruction"] or \
                gene.get("class") != row["class"] or \
                abs(gene.get("delta_fitness", math.nan) -
                    row["delta_fitness"]) > TOLERANCE:
            fail(f"{json_path}: gene {row['gene']} disagrees with the "
                 f"CSV")
    for key in ("classes", "operand_bins", "top_genes"):
        if key not in doc or not isinstance(doc[key], list):
            fail(f"{json_path}: missing aggregate list '{key}'")
    class_genes = sum(c.get("genes", 0) for c in doc["classes"])
    if class_genes != len(rows):
        fail(f"{json_path}: class aggregates cover {class_genes} genes "
             f"of {len(rows)}")


def validate_attribution_file(path):
    annotations, filler, rows = parse_attribution_csv(path)
    check_attribution_semantics(path, annotations, rows)
    check_attribution_json_twin(path, annotations, filler, rows)
    print(f"check_attribution: OK: {path}: {len(rows)} genes, "
          f"filler {filler[0]} ({filler[1]}), sum_delta "
          f"{annotations['sum_delta']}")
    return annotations, rows


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
            if name.endswith(".csv"):
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
        process = subprocess.Popen(
            [gest_binary, "run", config, "--quiet"], cwd=work,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out = os.path.join(work, "out")
            listen = wait_for_listen(process,
                                     os.path.join(out, "status.json"))

            # /coverage must render live while the run is in flight.
            live_passes = 0
            last_seen = 0
            while process.poll() is None and live_passes < 10:
                try:
                    doc = get_json(f"http://{listen}/coverage",
                                   "/coverage")
                except ServerGone as err:
                    # The run can complete between the poll and the
                    # GET; tolerate only if it did.
                    time.sleep(0.5)
                    if process.poll() is None:
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
            stdout, stderr = process.communicate(timeout=120)
            if process.returncode != 0:
                fail(f"gest run failed ({process.returncode}):\n"
                     f"{stdout}{stderr}")
            if live_passes == 0:
                fail("the run finished before a single live /coverage "
                     "pass — raise generations in DRIVE_CONFIG")
            print(f"check_attribution: OK: {live_passes} live "
                  f"/coverage passes, final cells_seen {last_seen}")
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()

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

        result = subprocess.run([gest_binary, "verify", out, "--quiet"],
                                cwd=work, capture_output=True, text=True)
        if result.returncode != 0:
            fail(f"gest verify failed ({result.returncode}):\n"
                 f"{result.stdout}{result.stderr}")
        print("check_attribution: OK: gest verify replayed the sealed "
              "run")

        # `gest attribute` after the fact must reproduce the sealed
        # attribution exactly (deterministic simulated measurement).
        result = subprocess.run(
            [gest_binary, "attribute", config, out, "--out",
             os.path.join(work, "re_attr"), "--quiet"],
            cwd=work, capture_output=True, text=True)
        if result.returncode != 0:
            fail(f"gest attribute failed ({result.returncode}):\n"
                 f"{result.stdout}{result.stderr}")
        re_csvs = [name
                   for name in sorted(os.listdir(
                       os.path.join(work, "re_attr")))
                   if name.endswith(".csv")]
        if len(re_csvs) != 1:
            fail(f"expected one re-attribution CSV, found {re_csvs}")
        re_annotations, re_rows = validate_attribution_file(
            os.path.join(work, "re_attr", re_csvs[0]))

        sealed = {int(a["individual_id"]): (a, rows)
                  for a, rows in results}
        champion = int(re_annotations["individual_id"])
        if champion not in sealed:
            fail(f"gest attribute picked individual {champion}, which "
                 f"the run never sealed ({sorted(sealed)})")
        sealed_annotations, sealed_rows = sealed[champion]
        for key in ("baseline_fitness", "sum_delta",
                    "whole_ablation_delta"):
            if abs(re_annotations[key] -
                   sealed_annotations[key]) > TOLERANCE:
                fail(f"re-attribution {key} "
                     f"{re_annotations[key]!r} disagrees with the "
                     f"sealed {sealed_annotations[key]!r}")
        for sealed_row, re_row in zip(sealed_rows, re_rows):
            if abs(sealed_row["delta_fitness"] -
                   re_row["delta_fitness"]) > TOLERANCE:
                fail(f"re-attribution gene {re_row['gene']} delta "
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
