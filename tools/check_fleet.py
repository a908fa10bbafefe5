#!/usr/bin/env python3
"""Validate the cross-run observability surface: registry + alerts.

Standalone mode schema-checks a workspace's sealed index and every
run's alerts ledger (docs/fleet.md):

  * registry.csv opens with `# gest-registry v1`, a column header, and
    column-complete rows;
  * every <run>/alerts.csv opens with `# gest-alerts v1` and carries
    well-typed rows (int generation, known severity, float
    value/threshold, comma-free message).

Drive mode builds a three-run workspace end to end and checks the
whole chain:

  * two same-seed, same-config runs (sealed) plus one provenance-off
    run with a hair-trigger plateau rule (unsealed) — `gest runs`
    must index all three with the right statuses;
  * the same-seed cohort must compare clean: `--baseline --json` is
    the `gest compare` document (cohort exactly run_b, zero result
    deltas, digests compared, zero flagged perf regressions, exit 0),
    byte for byte what `gest compare --json` prints for the same paths;
  * the induced plateau must raise exactly one alert, visible in all
    four places: alerts.csv, /alerts while live, an `event: alert` SSE
    frame, and the `gest top --fleet` pane;
  * an SSE reconnect with Last-Event-ID must suppress already-seen
    generation frames but still redeliver the (keyless) alert frame.

Usage:
  check_fleet.py <workspace>              schema checks only
  check_fleet.py --drive <gest-binary>    full end-to-end drive

Exit status 0 when everything validates; 1 with a message otherwise.
On failure with GEST_CHECK_ARTIFACT_DIR set, the scratch directory is
copied there for post-mortem.
"""

import json
import os
import shutil
import sys
import tempfile
import time

import checklib
from checklib import SseReader, fail, get, run_gest, running_gest


# Every run is watched; health_collapse_factor="0" disarms the only
# rule wall-clock noise could trip on CI, so the cohort stays clean.
COHORT_CONFIG = """<?xml version="1.0"?>
<gest_configuration>
  <ga population_size="16" individual_size="16" generations="12"
      seed="7" threads="1" fitness_cache_size="32"/>
  <library name="arm"/>
  <measurement class="SimPowerMeasurement">
    <config platform="cortex-a15"/>
  </measurement>
  <fitness class="DefaultFitness"/>
  <output directory="out" health_collapse_factor="0"/>
</gest_configuration>
"""

# health_plateau="3" trips on the first three-generation stall (all but
# certain within 200 generations); health_collapse_factor="0" disarms
# the only other rule wall-clock noise could trip on CI, and
# health_coverage_stall="0" the coverage rule this long run also trips.
PLATEAU_CONFIG = """<?xml version="1.0"?>
<gest_configuration>
  <ga population_size="24" individual_size="24" generations="200"
      seed="13" threads="1" fitness_cache_size="64"/>
  <library name="arm"/>
  <measurement class="SimPowerMeasurement">
    <config platform="cortex-a15"/>
  </measurement>
  <fitness class="DefaultFitness"/>
  <output directory="out" listen="127.0.0.1:0" provenance="false"
          health_plateau="3" health_collapse_factor="0"
          health_coverage_stall="0"/>
</gest_configuration>
"""

REGISTRY_COLUMNS = (
    "run,status,state,config_hash,seed,git_sha,measurement,fitness,"
    "created,generations,generations_completed,evaluations,"
    "best_fitness,best_id,alerts,listen,note")

ALERTS_COLUMNS = "generation,rule,severity,value,threshold,message"




# ------------------------------------------------------ schema checks

def validate_registry_csv(text, where):
    lines = [line for line in text.splitlines() if line]
    if not lines or lines[0] != "# gest-registry v1":
        fail(f"{where}: missing '# gest-registry v1' header: "
             f"{lines[:1]!r}")
    if len(lines) < 2 or lines[1] != REGISTRY_COLUMNS:
        fail(f"{where}: unexpected column header: {lines[1:2]!r}")
    columns = len(REGISTRY_COLUMNS.split(","))
    rows = []
    for lineno, line in enumerate(lines[2:], 3):
        cells = line.split(",")
        if len(cells) != columns:
            fail(f"{where} line {lineno}: {len(cells)} fields, "
                 f"expected {columns}: {line!r}")
        if cells[1] not in ("sealed", "unsealed", "corrupt"):
            fail(f"{where} line {lineno}: bad status {cells[1]!r}")
        int(cells[14])  # alerts must be integral
        float(cells[12])  # best_fitness must parse
        rows.append(cells)
    return rows


def validate_registry_json(text, where):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        fail(f"{where} is not valid JSON: {err}")
    if doc.get("gest_registry_version") != 1:
        fail(f"{where}: gest_registry_version != 1: {doc!r}")
    if not isinstance(doc.get("runs"), list):
        fail(f"{where}: 'runs' is not an array")
    for row in doc["runs"]:
        for key in ("run", "status", "state", "config_hash", "seed",
                    "best_fitness", "alerts"):
            if key not in row:
                fail(f"{where}: run row lacks '{key}': {sorted(row)}")
    return doc["runs"]


def validate_alerts_csv(text, where):
    lines = [line for line in text.splitlines() if line]
    if not lines or lines[0] != "# gest-alerts v1":
        fail(f"{where}: missing '# gest-alerts v1' header")
    if len(lines) < 2 or lines[1] != ALERTS_COLUMNS:
        fail(f"{where}: unexpected column header: {lines[1:2]!r}")
    rows = []
    for lineno, line in enumerate(lines[2:], 3):
        cells = line.split(",")
        if len(cells) != 6:
            fail(f"{where} line {lineno}: {len(cells)} fields "
                 f"(messages are comma-free by contract): {line!r}")
        int(cells[0])
        if cells[2] not in ("warning", "critical"):
            fail(f"{where} line {lineno}: bad severity {cells[2]!r}")
        float(cells[3])
        float(cells[4])
        rows.append(cells)
    return rows


def validate_workspace(workspace):
    csv_path = os.path.join(workspace, "registry.csv")
    try:
        with open(csv_path, encoding="utf-8") as handle:
            csv_rows = validate_registry_csv(handle.read(), csv_path)
    except OSError as err:
        fail(f"cannot read {csv_path} (run `gest runs {workspace}` "
             f"first): {err}")
    alerts = 0
    for row in csv_rows:
        ledger = os.path.join(workspace, row[0], "alerts.csv")
        if os.path.exists(ledger):
            with open(ledger, encoding="utf-8") as handle:
                parsed = validate_alerts_csv(handle.read(), ledger)
            if len(parsed) != int(row[14]):
                fail(f"{ledger}: {len(parsed)} rows but the registry "
                     f"says {row[14]}")
            alerts += len(parsed)
    return len(csv_rows), alerts


# ------------------------------------------------------ drive helpers

def drive_cohort_run(gest, scratch, name):
    work = os.path.join(scratch, name + "_work")
    os.makedirs(work)
    config = os.path.join(work, "config.xml")
    with open(config, "w", encoding="utf-8") as handle:
        handle.write(COHORT_CONFIG)
    run_gest(gest, ["run", "config.xml", "--quiet"], work,
             f"cohort run {name}")
    return os.path.join(work, "out")


def drive_plateau_run(gest, scratch):
    """Run the health-armed config; scrape /alerts and SSE while live.

    Returns (run_dir, live_alert_rows, sse_blocks, resumed_blocks).
    """
    work = os.path.join(scratch, "plateau_work")
    os.makedirs(work)
    config = os.path.join(work, "config.xml")
    with open(config, "w", encoding="utf-8") as handle:
        handle.write(PLATEAU_CONFIG)
    with running_gest(gest, "config.xml", work,
                      os.path.join(work, "out", "status.json")) as run:
        host, port = run.listen.rsplit(":", 1)

        sse = SseReader(host, int(port))
        sse.start()

        # Poll /alerts until the induced plateau surfaces.
        live_alerts = []
        for _ in range(2000):
            if not run.alive():
                break
            code, body = get(f"http://{run.listen}/alerts", timeout=2)
            if code == 200:
                try:
                    live_alerts = json.loads(body)
                except json.JSONDecodeError as err:
                    fail(f"/alerts is not valid JSON: {err}: {body!r}")
                if live_alerts:
                    break
            time.sleep(0.025)
        if not live_alerts:
            run.process.communicate(timeout=120)
            fail("the induced plateau never surfaced on /alerts while "
                 "the run was live")

        # Last-Event-ID resume: a huge id suppresses every generation
        # frame, but the keyless alert frame must be redelivered.
        resumed = SseReader(host, int(port), last_event_id=10**6)
        resumed.start()

        run.finish("plateau run", timeout=300)
        sse.join(timeout=60)
        resumed.join(timeout=60)
        if sse.error:
            fail(f"SSE read failed: {sse.error}")
        if resumed.error:
            fail(f"resumed SSE read failed: {resumed.error}")
        return (os.path.join(work, "out"), live_alerts, sse.blocks(),
                resumed.blocks())


def drive(gest):
    gest = os.path.abspath(gest)
    with tempfile.TemporaryDirectory(prefix="gest-fleet-") as scratch:
        checklib.keep_scratch(scratch)
        workspace = os.path.join(scratch, "workspace")
        os.makedirs(workspace)

        # Two sealed same-seed/same-config runs + one unsealed
        # (provenance off) health-armed run.
        shutil.move(drive_cohort_run(gest, scratch, "run_a"),
                    os.path.join(workspace, "run_a"))
        shutil.move(drive_cohort_run(gest, scratch, "run_b"),
                    os.path.join(workspace, "run_b"))
        plateau_out, live_alerts, sse_blocks, resumed_blocks = \
            drive_plateau_run(gest, scratch)
        shutil.move(plateau_out, os.path.join(workspace, "run_c"))

        # The plateau raised exactly one alert, everywhere.
        if len(live_alerts) != 1:
            fail(f"/alerts carried {len(live_alerts)} alerts, "
                 f"expected exactly 1: {live_alerts!r}")
        if live_alerts[0].get("rule") != "fitness_plateau":
            fail(f"/alerts rule is not fitness_plateau: "
                 f"{live_alerts[0]!r}")
        ledger = os.path.join(workspace, "run_c", "alerts.csv")
        with open(ledger, encoding="utf-8") as handle:
            rows = validate_alerts_csv(handle.read(), ledger)
        if len(rows) != 1 or rows[0][1] != "fitness_plateau":
            fail(f"alerts.csv should hold exactly the plateau alert: "
                 f"{rows!r}")

        alert_frames = [b for b in sse_blocks
                        if b.get("event") == "alert"]
        if len(alert_frames) != 1:
            fail(f"SSE stream carried {len(alert_frames)} alert "
                 f"frames, expected exactly 1")
        if "id" in alert_frames[0]:
            fail("SSE alert frame carries an id — alerts must stay "
                 "keyless for at-least-once resume delivery")
        if json.loads(alert_frames[0]["data"]).get("rule") != \
                "fitness_plateau":
            fail(f"SSE alert payload is wrong: {alert_frames[0]!r}")

        # Resume with a huge Last-Event-ID: generation frames must be
        # suppressed, the keyless alert must be redelivered.
        resumed_gens = [b for b in resumed_blocks
                        if b.get("event") == "generation"]
        if resumed_gens:
            fail(f"resumed SSE replayed {len(resumed_gens)} generation "
                 "frames past Last-Event-ID")
        if not any(b.get("event") == "alert" for b in resumed_blocks):
            fail("resumed SSE did not redeliver the keyless alert "
                 "frame")

        # `gest runs` must index all three with the right statuses.
        runs_json = run_gest(gest, ["runs", workspace, "--json",
                                    "--quiet"], scratch,
                             "gest runs").stdout
        indexed = {row["run"]: row
                   for row in validate_registry_json(
                       runs_json, "gest runs --json")}
        if sorted(indexed) != ["run_a", "run_b", "run_c"]:
            fail(f"gest runs indexed {sorted(indexed)}")
        for name in ("run_a", "run_b"):
            if indexed[name]["status"] != "sealed":
                fail(f"{name} should index as sealed: {indexed[name]}")
        if indexed["run_c"]["status"] != "unsealed":
            fail(f"run_c (provenance off) should index as unsealed: "
                 f"{indexed['run_c']}")
        if indexed["run_c"]["alerts"] != 1:
            fail(f"run_c should carry 1 alert in the index: "
                 f"{indexed['run_c']}")
        if indexed["run_a"]["config_hash"] != \
                indexed["run_b"]["config_hash"]:
            fail("same-config runs got different config hashes")

        # Same-seed cohort comparison: `gest compare` over the cohort,
        # no result delta, no perf flag, exit 0.
        screening_text = run_gest(
            gest, ["runs", workspace, "--baseline", "run_a", "--json",
                   "--quiet"], scratch, "gest runs --baseline").stdout
        screening = json.loads(screening_text)
        if not isinstance(screening, dict) or \
                screening.get("gest_compare_version") != 1:
            fail(f"--baseline --json is not the gest compare schema: "
                 f"{screening!r}")
        comparisons = screening.get("comparisons")
        member = os.path.join(workspace, "run_b")
        if not isinstance(comparisons, list) or len(comparisons) != 1 \
                or comparisons[0].get("candidate") != member:
            fail(f"cohort should be exactly run_b: {screening!r}")
        if comparisons[0].get("significant_deltas") != 0:
            fail(f"same-seed twin reports result deltas: "
                 f"{comparisons[0]!r}")
        if comparisons[0].get("digests_compared") is not True:
            fail(f"same-seed twins' digest ledgers were not compared: "
                 f"{comparisons[0]!r}")
        if comparisons[0].get("flagged_perf_regressions") != 0:
            fail(f"same-seed twin flagged as a perf regression: "
                 f"{comparisons[0]!r}")
        compare_text = run_gest(
            gest, ["compare", os.path.join(workspace, "run_a"), member,
                   "--json", "--quiet"], scratch, "gest compare").stdout
        if screening_text != compare_text:
            fail("gest runs --baseline --json differs from gest compare "
                 f"--json over the same paths:\n{screening_text}\n"
                 f"---\n{compare_text}")

        # The sealed index on disk validates, and the alert is counted.
        runs, alerts = validate_workspace(workspace)
        if runs != 3 or alerts != 1:
            fail(f"workspace index: {runs} runs / {alerts} alerts, "
                 "expected 3 / 1")

        # The fleet pane shows the run and its alert.
        pane = run_gest(gest, ["top", workspace, "--fleet", "--once",
                               "--quiet"], scratch,
                        "gest top --fleet").stdout
        if "run_c" not in pane:
            fail(f"fleet pane does not list run_c:\n{pane}")
        if "1 alert(s)" not in pane:
            fail(f"fleet pane does not count the alert:\n{pane}")

        print("check_fleet: OK: 3-run workspace indexed, cohort "
              "compared clean, plateau alert visible in alerts.csv, "
              "/alerts, SSE and the fleet pane")
        checklib.keep_scratch(None)


def main(argv):
    if len(argv) == 3 and argv[1] == "--drive":
        drive(argv[2])
        return 0
    if len(argv) == 2 and not argv[1].startswith("-"):
        runs, alerts = validate_workspace(argv[1])
        print(f"check_fleet: OK: {argv[1]}: {runs} runs indexed, "
              f"{alerts} alerts, schemas valid")
        return 0
    print(__doc__.strip(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
