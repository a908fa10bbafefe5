#!/usr/bin/env python3
"""Validate the live telemetry endpoints served by a gest run.

Checks the whole scrape surface (docs/observability.md, "Live
endpoints"):

  * /status and /history are valid JSON with the documented keys;
    history generations count up from 0;
  * /champion carries the best individual's id/fitness/code;
  * /metrics is well-formed Prometheus text exposition (HELP/TYPE
    comments, one sample per line, histogram buckets cumulative and
    consistent with _count);
  * /events is well-framed SSE: "event:"/"id:"/"data:" lines, blank-line
    separated, each data payload valid JSON with a generation number;
  * the run's sealed metrics.prom passes the same exposition checks,
    its _quantile values lie in their own le buckets, and every counter
    scraped from /metrics reappears in it with a value >= the last
    scraped value (counters are monotonic and the
    artifact outlives the server);
  * every sink agrees at run end: the completed /status body equals
    the final status.json bytes, the last /history row matches the
    last history.csv row and /coverage matches the last coverage.csv
    row;
  * a listen-only run (no run directory) serves the same heartbeat:
    /status carries the build identity, its listen address, a computed
    gene_entropy_bits and the alerts block.

Usage:
  check_metrics.py <url>                  one validation pass against a
                                          live server (no file checks)
  check_metrics.py --drive <gest-binary>  run a GA with --listen
                                          127.0.0.1:0 in a temp dir,
                                          scrape it while it runs, then
                                          cross-check metrics.prom and
                                          the run directory; then a
                                          listen-only run

Exit status 0 when everything validates; 1 with a message otherwise.
On failure with GEST_CHECK_ARTIFACT_DIR set, the scratch directory is
copied there for post-mortem.
"""

import json
import os
import socket
import sys
import tempfile
import time

import checklib
from checklib import (ServerGone, SseReader, check_metrics_text,
                      check_quantiles, fail, get, get_json, running_gest)


DRIVE_CONFIG = """<?xml version="1.0"?>
<gest_configuration>
  <ga population_size="24" individual_size="24" generations="200"
      seed="13" threads="2" fitness_cache_size="64"/>
  <library name="arm"/>
  <measurement class="SimPowerMeasurement">
    <config platform="cortex-a15"/>
  </measurement>
  <fitness class="DefaultFitness"/>
  <output directory="out" listen="127.0.0.1:0"/>
</gest_configuration>
"""

# No run directory: the server is the only sink. Nothing on disk
# announces an ephemeral port, so the driver picks a free one.
LISTEN_ONLY_CONFIG = """<?xml version="1.0"?>
<gest_configuration>
  <ga population_size="24" individual_size="24" generations="60"
      seed="13" threads="1"/>
  <library name="arm"/>
  <measurement class="SimPowerMeasurement">
    <config platform="cortex-a15"/>
  </measurement>
  <fitness class="DefaultFitness"/>
  <output directory="" listen="127.0.0.1:{port}"/>
</gest_configuration>
"""

STATUS_KEYS = (
    "state", "generation", "total_generations", "best_fitness",
    "average_fitness", "diversity", "evaluations", "cache_hit_rate",
    "evals_per_sec", "elapsed_seconds", "eta_seconds", "steady_hits",
    "sim_evaluations", "cycles_simulated", "cycles_tiled", "listen",
)

HISTORY_KEYS = (
    "generation", "best_fitness", "average_fitness", "best_id",
    "diversity", "cache_hits", "cache_misses", "evaluation_ms",
)


def check_status(doc, require_listen):
    if not isinstance(doc, dict):
        fail(f"/status is not a JSON object: {doc!r}")
    for key in STATUS_KEYS:
        if key not in doc:
            fail(f"/status lacks key '{key}': {sorted(doc)}")
    if doc["state"] not in ("running", "completed"):
        fail(f"/status state is {doc['state']!r}")
    if require_listen and not doc["listen"]:
        fail("/status 'listen' is empty although the server is up")


def check_history(doc):
    if not isinstance(doc, list):
        fail(f"/history is not a JSON array: {type(doc)}")
    for index, row in enumerate(doc):
        for key in HISTORY_KEYS:
            if key not in row:
                fail(f"/history row {index} lacks '{key}': {row}")
        if row["generation"] != index:
            fail(f"/history row {index} has generation "
                 f"{row['generation']} (rows must count up from 0)")
    return len(doc)


def check_champion(doc, expect_present):
    if not isinstance(doc, dict):
        fail(f"/champion is not a JSON object: {doc!r}")
    if not expect_present:
        return
    for key in ("generation", "id", "fitness", "code"):
        if key not in doc:
            fail(f"/champion lacks key '{key}': {sorted(doc)}")
    if not isinstance(doc["code"], list) or not doc["code"]:
        fail("/champion 'code' is empty — champions always have a body")


def check_sse(raw):
    """Validate SSE framing; return the number of generation events."""
    if not raw.startswith("retry:"):
        fail(f"SSE stream does not open with a retry line: {raw[:80]!r}")
    generations = []
    for block in raw.split("\n\n"):
        block = block.strip("\n")
        if not block or block.startswith("retry:"):
            continue
        fields = {}
        for line in block.split("\n"):
            if ":" not in line:
                fail(f"SSE block line without a colon: {line!r}")
            key, _, value = line.partition(":")
            fields[key] = value.strip()
        if fields.get("event") == "end":
            continue
        if fields.get("event") == "alert":
            # Health-watchdog frames: keyless (no id line — a resumed
            # client must get them redelivered) JSON alert objects.
            if "id" in fields:
                fail(f"SSE alert frame carries an id: {block!r}")
            try:
                alert = json.loads(fields.get("data", ""))
            except json.JSONDecodeError as err:
                fail(f"SSE alert data is not JSON: {err}")
            if "rule" not in alert:
                fail(f"SSE alert lacks 'rule': {alert!r}")
            continue
        if fields.get("event") != "generation":
            fail(f"SSE block with unexpected event: {fields!r}")
        for key in ("id", "data"):
            if key not in fields:
                fail(f"SSE generation block lacks '{key}': {block!r}")
        try:
            payload = json.loads(fields["data"])
        except json.JSONDecodeError as err:
            fail(f"SSE data is not JSON: {err}: {fields['data']!r}")
        if payload.get("generation") != int(fields["id"]):
            fail(f"SSE id {fields['id']} != data generation "
                 f"{payload.get('generation')}")
        generations.append(payload["generation"])
    if generations != sorted(generations):
        fail(f"SSE generations out of order: {generations}")
    return len(generations)


def validate_endpoints(base, require_listen):
    """One scrape pass; returns (generations_seen, counters)."""
    status_doc = get_json(base + "/status", "/status")
    check_status(status_doc, require_listen)
    rows = check_history(get_json(base + "/history", "/history"))
    check_champion(get_json(base + "/champion", "/champion"), rows > 0)
    code, metrics_text = get(base + "/metrics")
    if code is None:
        raise ServerGone(f"/metrics: {metrics_text}")
    if code != 200:
        fail(f"/metrics failed: {metrics_text}")
    counters = check_metrics_text(metrics_text)
    code, health = get(base + "/healthz")
    if code is None:
        raise ServerGone(f"/healthz: {health}")
    if code != 200 or json.loads(health).get("status") != "ok":
        fail(f"/healthz unhealthy: {code} {health!r}")
    return rows, counters


def cross_check(scraped, prom_path):
    """Scraped counters must reappear in the sealed metrics.prom, never
    smaller."""
    try:
        with open(prom_path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        fail(f"cannot read {prom_path}: {err}")
    final = check_metrics_text(text, prom_path)
    checked = check_quantiles(text, prom_path)
    for name, value in scraped.items():
        if name not in final:
            fail(f"counter {name} was scraped from /metrics but has no "
                 f"counterpart in {prom_path}")
        if final[name] < value:
            fail(f"counter {name}: final metrics.prom value {final[name]} "
                 f"< last scraped value {value} (counters are "
                 "monotonic; the artifacts must agree with the scrape)")
    print(f"check_metrics: OK: {len(scraped)} scraped counters "
          f"cross-checked against metrics.prom; {checked} histograms' "
          "quantiles lie in their buckets")


def last_csv_row(path):
    """The last data row of a `#`-commented CSV, as {column: text}."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = [line for line in handle.read().splitlines()
                     if line and not line.startswith("#")]
    except OSError as err:
        fail(f"cannot read {path}: {err}")
    if len(lines) < 2:
        fail(f"{path} has no data rows")
    return dict(zip(lines[0].split(","), lines[-1].split(",")))


def close(a, b, absolute):
    """Equal up to @p absolute plus history.csv's 6 significant digits."""
    return abs(float(a) - float(b)) <= absolute + 1e-5 * abs(float(b))


def check_sinks_agree(final, run_dir):
    """The completed /status, /history and /coverage scrapes must agree
    with the run directory's final status.json, history.csv and
    coverage.csv."""
    status_body, history, coverage = final
    with open(os.path.join(run_dir, "status.json"),
              encoding="utf-8") as handle:
        status_file = handle.read()
    if status_body != status_file:
        fail("final /status body differs from status.json:\n"
             f"/status:\n{status_body}\nstatus.json:\n{status_file}")

    row = last_csv_row(os.path.join(run_dir, "history.csv"))
    last = history[-1] if history else {}
    for key in ("generation", "best_id", "cache_hits", "cache_misses"):
        if str(last.get(key)) != row[key]:
            fail(f"last /history row {key}={last.get(key)!r} but "
                 f"history.csv says {row[key]!r}")
    # /history prints diversity with 6 decimals, evaluation_ms with 3.
    for key, absolute in (("best_fitness", 0.0), ("average_fitness", 0.0),
                          ("diversity", 5e-7), ("evaluation_ms", 5e-4)):
        if not close(last[key], row[key], absolute):
            fail(f"last /history row {key}={last[key]!r} but "
                 f"history.csv says {row[key]!r}")

    row = last_csv_row(os.path.join(run_dir, "coverage.csv"))
    for key in ("generation", "cells_new", "cells_seen", "cells_total"):
        if str(coverage.get(key)) != row[key]:
            fail(f"/coverage {key}={coverage.get(key)!r} but the last "
                 f"coverage.csv row says {row[key]!r}")
    for key in ("saturation_pct", "novelty_rate"):
        if f"{coverage[key]:.6f}" != row[key]:
            fail(f"/coverage {key}={coverage[key]!r} but the last "
                 f"coverage.csv row says {row[key]!r}")
    for cls in coverage["classes"]:
        if str(cls["seen"]) != row["seen_" + cls["class"]]:
            fail(f"/coverage class {cls['class']} seen {cls['seen']} "
                 f"but coverage.csv says {row['seen_' + cls['class']]}")
    print("check_metrics: OK: final /status, /history and /coverage "
          "agree with status.json, history.csv and coverage.csv")


def scrape_final(base):
    """@return (status, final): final is (status_body, history,
    coverage) once /status says the run completed, else None."""
    code, body = get(base + "/status")
    if code is None:
        raise ServerGone(f"/status: {body}")
    status = json.loads(body)
    if status["state"] != "completed":
        return status, None
    return status, (body, get_json(base + "/history", "/history"),
                    get_json(base + "/coverage", "/coverage"))


def drive_run_dir(gest_binary, work):
    config = os.path.join(work, "config.xml")
    with open(config, "w", encoding="utf-8") as handle:
        handle.write(DRIVE_CONFIG)
    with running_gest(gest_binary, config, work,
                      os.path.join(work, "out", "status.json")) as run:
        base = f"http://{run.listen}"
        host, port = run.listen.rsplit(":", 1)
        sse = SseReader(host, int(port), timeout=60)
        sse.start()

        # Validation passes every ~0.2 s through the first three
        # quarters of the run; throughout, poll /status often enough to
        # catch the completed heartbeat, which the server keeps serving
        # only while the run seals its manifest.
        scraped = {}
        passes = 0
        final = None
        tick = 0
        while final is None:
            try:
                status, final = scrape_final(base)
                early = (status["generation"] <
                         0.75 * status["total_generations"])
                if early and passes < 50 and tick % 20 == 0:
                    rows, counters = validate_endpoints(
                        base, require_listen=True)
                    scraped.update(counters)
                    passes += 1
            except ServerGone as err:
                fail("the server went away before the completed "
                     f"heartbeat could be scraped: {err}")
            tick += 1
            time.sleep(0.01)
        run.finish()
        if passes == 0:
            fail("the run finished before a single scrape pass — "
                 "raise generations in DRIVE_CONFIG")

        sse.join(timeout=30)
        if sse.error:
            fail(f"SSE read failed: {sse.error}")
        events = check_sse(sse.body())
        if events == 0:
            fail("SSE stream carried no generation events")

        run_dir = os.path.join(work, "out")
        cross_check(scraped, os.path.join(run_dir, "metrics.prom"))
        check_sinks_agree(final, run_dir)
        print(f"check_metrics: OK: {passes} scrape passes, "
              f"{events} SSE generation events, run exit 0")


def free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def drive_listen_only(gest_binary, work):
    listen = f"127.0.0.1:{free_port()}"
    config = os.path.join(work, "listen_only.xml")
    with open(config, "w", encoding="utf-8") as handle:
        handle.write(LISTEN_ONLY_CONFIG.format(port=listen.split(":")[1]))
    with running_gest(gest_binary, config, work) as run:
        # Poll until the first generation is published; refusals are
        # expected only until the server binds.
        status = None
        for _ in range(3000):
            try:
                status = get_json(f"http://{listen}/status", "/status")
                if status["generation"] >= 0:
                    break
            except ServerGone as err:
                if not run.alive():
                    out, err_text = run.process.communicate()
                    fail("listen-only run ended before /status served "
                         f"a generation ({err}):\n{out}{err_text}")
            time.sleep(0.01)
        check_status(status, require_listen=True)
        for key in ("git_sha", "build"):
            if not status.get(key):
                fail(f"listen-only /status has an empty {key!r}")
        if status["listen"] != listen:
            fail(f"listen-only /status listen {status['listen']!r} is "
                 f"not the configured {listen!r}")
        if status.get("gene_entropy_bits", -1) < 0:
            fail("listen-only /status reports no gene_entropy_bits: "
                 f"{status.get('gene_entropy_bits')!r}")
        alerts = status.get("alerts")
        if not isinstance(alerts, dict) or "raised" not in alerts:
            fail(f"listen-only /status lacks the alerts block: {status}")
        run.finish("listen-only run")
        print("check_metrics: OK: listen-only /status carries the build "
              "identity, listen address, gene entropy and alerts")


def drive(gest_binary):
    # The runs execute with cwd inside the scratch dir; a relative
    # binary path (e.g. build/tools/gest) must survive the chdir.
    gest_binary = os.path.abspath(gest_binary)
    with tempfile.TemporaryDirectory(prefix="gest-metrics-") as work:
        checklib.keep_scratch(work)
        drive_run_dir(gest_binary, work)
        drive_listen_only(gest_binary, work)
        checklib.keep_scratch(None)


def main(argv):
    if len(argv) == 3 and argv[1] == "--drive":
        drive(argv[2])
        return 0
    if len(argv) == 2 and not argv[1].startswith("-"):
        base = argv[1].rstrip("/")
        if not base.startswith("http://"):
            base = "http://" + base
        try:
            rows, counters = validate_endpoints(
                base, require_listen=False)
        except ServerGone as err:
            fail(str(err))
        print(f"check_metrics: OK: {base}: {rows} history rows, "
              f"{len(counters)} counters")
        return 0
    print(__doc__.strip(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
