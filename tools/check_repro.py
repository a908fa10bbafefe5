#!/usr/bin/env python3
"""End-to-end validator for gest's provenance + replay-verification layer.

Static mode checks a sealed run directory's provenance artifacts:

  * manifest.json parses, carries the v1 schema, a 64-hex config hash,
    the RNG seed/generator and one checksum entry per artifact;
  * every checksummed artifact exists with its recorded SHA-256;
  * digests.csv carries the `# gest-digests v1` header and one 64-hex
    population digest per recorded generation.

Drive mode exercises the whole audit loop against a gest binary:

  1. run a tiny deterministic GA and `gest verify` the sealed run
     (full replay and --quick must both exit 0);
  2. flip one byte of lineage.csv — verify must now fail naming
     exactly that artifact — then restore it;
  3. rewrite the manifest's seed — a full verify must fail naming the
     first divergent generation (generation 0) — then restore it;
  4. run the same configuration+seed into a second directory and
     `gest compare --json` the two: zero significant deltas.

Usage:
  check_repro.py <run_dir>              validate sealed artifacts
  check_repro.py --drive <gest-binary>  full run/verify/tamper/compare
                                        loop in a scratch directory

With GEST_CHECK_ARTIFACT_DIR set, --drive copies its scratch directory
there before exiting on failure, so CI can upload it.

Exit status 0 when everything holds; 1 with a message otherwise.
"""

import hashlib
import json
import os
import sys
import tempfile

import checklib
from checklib import fail, run_gest

DRIVE_CONFIG = """<?xml version="1.0"?>
<gest_configuration>
  <ga population_size="8" individual_size="8" generations="4" seed="23"
      fitness_cache_size="64"/>
  <library name="arm"/>
  <measurement class="SimPowerMeasurement">
    <config platform="cortex-a15"/>
  </measurement>
  <fitness class="DefaultFitness"/>
  <output directory="{out}"/>
</gest_configuration>
"""





def sha256_of(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def is_hex_digest(text):
    return len(text) == 64 and all(c in "0123456789abcdef" for c in text)


def validate_run(run_dir):
    manifest_path = os.path.join(run_dir, "manifest.json")
    if not os.path.isfile(manifest_path):
        fail(f"no manifest.json in {run_dir}")
    with open(manifest_path, encoding="utf-8") as handle:
        try:
            manifest = json.load(handle)
        except json.JSONDecodeError as err:
            fail(f"manifest.json is not valid JSON: {err}")

    version = manifest.get("gest_manifest_version")
    if version != 1:
        fail(f"unsupported gest_manifest_version {version!r}")
    config = manifest.get("config", {})
    if not is_hex_digest(config.get("hash", "")):
        fail(f"config.hash is not a SHA-256 hex digest: "
             f"{config.get('hash')!r}")
    rng = manifest.get("rng", {})
    if "seed" in rng and not str(rng["seed"]).isdigit():
        fail(f"rng.seed is not an unsigned integer: {rng['seed']!r}")
    if not rng.get("generator"):
        fail("rng.generator is missing or empty")

    artifacts = manifest.get("artifacts")
    if not isinstance(artifacts, list) or not artifacts:
        fail("manifest carries no artifact checksums")
    for entry in artifacts:
        rel = entry.get("path", "")
        recorded = entry.get("sha256", "")
        if not rel or not is_hex_digest(recorded):
            fail(f"malformed artifact entry: {entry!r}")
        path = os.path.join(run_dir, rel)
        if not os.path.isfile(path):
            fail(f"checksummed artifact {rel} is missing")
        actual = sha256_of(path)
        if actual != recorded:
            fail(f"artifact {rel}: recorded sha256 {recorded[:12]}… "
                 f"but file hashes {actual[:12]}…")
        if entry.get("bytes") != os.path.getsize(path):
            fail(f"artifact {rel}: recorded {entry.get('bytes')} bytes "
                 f"but file holds {os.path.getsize(path)}")

    digests_path = os.path.join(run_dir, "digests.csv")
    if not os.path.isfile(digests_path):
        fail(f"no digests.csv in {run_dir}")
    with open(digests_path, encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle]
    if not lines or not lines[0].startswith("# gest-digests v1"):
        fail("digests.csv lacks the `# gest-digests v1` header")
    rows = [line for line in lines[1:]
            if line and not line.startswith("#") and
            not line.startswith("generation,")]
    expected = manifest.get("result", {}).get("digests_sealed")
    if expected is not None and expected != len(rows):
        fail(f"manifest records {expected} sealed digests but "
             f"digests.csv holds {len(rows)} rows")
    for line in rows:
        fields = line.split(",")
        if len(fields) != 3 or not is_hex_digest(fields[2]):
            fail(f"malformed digests.csv row: {line!r}")
    print(f"check_repro: OK: {len(artifacts)} artifacts verified, "
          f"{len(rows)} population digests well-formed")
    return len(rows)


def drive(gest_binary):
    gest_binary = os.path.abspath(gest_binary)
    with tempfile.TemporaryDirectory(prefix="gest-repro-") as work:
        checklib.keep_scratch(work)
        config = os.path.join(work, "config.xml")
        with open(config, "w", encoding="utf-8") as handle:
            handle.write(DRIVE_CONFIG.format(out="runA"))
        run_gest(gest_binary, ["run", config, "--quiet"], work,
                 what="gest run")
        run_a = os.path.join(work, "runA")
        validate_run(run_a)

        # 1. An untampered deterministic run verifies, fully and
        # quickly.
        run_gest(gest_binary, ["verify", run_a, "--quiet"], work,
                 what="gest verify (untampered)")
        run_gest(gest_binary, ["verify", run_a, "--quick", "--quiet"],
                 work, what="gest verify --quick (untampered)")

        # 2. Flip one byte of lineage.csv: verify must fail and name
        # the artifact.
        lineage = os.path.join(run_a, "lineage.csv")
        original = open(lineage, "rb").read()
        tampered = bytearray(original)
        tampered[len(tampered) // 2] ^= 0x01
        with open(lineage, "wb") as handle:
            handle.write(bytes(tampered))
        result = run_gest(gest_binary, ["verify", run_a, "--quiet"],
                          work, expect=1,
                          what="gest verify (tampered lineage)")
        if "lineage.csv" not in result.stdout:
            fail(f"tampered-lineage verify does not name lineage.csv:\n"
                 f"{result.stdout}")
        with open(lineage, "wb") as handle:
            handle.write(original)

        # 3. Rewrite the manifest's seed: the replay must diverge at
        # generation 0.
        manifest_path = os.path.join(run_a, "manifest.json")
        manifest_text = open(manifest_path, encoding="utf-8").read()
        if '"seed": "23"' not in manifest_text:
            fail("manifest does not record the expected seed 23")
        with open(manifest_path, "w", encoding="utf-8") as handle:
            handle.write(
                manifest_text.replace('"seed": "23"', '"seed": "24"'))
        result = run_gest(gest_binary, ["verify", run_a, "--quiet"],
                          work, expect=1,
                          what="gest verify (seed drift)")
        if "generation 0" not in result.stdout:
            fail(f"seed-drift verify does not name the first divergent "
                 f"generation:\n{result.stdout}")
        with open(manifest_path, "w", encoding="utf-8") as handle:
            handle.write(manifest_text)
        run_gest(gest_binary, ["verify", run_a, "--quiet"], work,
                 what="gest verify (restored)")

        # 4. Same configuration + seed into a second directory: compare
        # must report zero significant deltas.
        config_b = os.path.join(work, "config_b.xml")
        with open(config_b, "w", encoding="utf-8") as handle:
            handle.write(DRIVE_CONFIG.format(out="runB"))
        run_gest(gest_binary, ["run", config_b, "--quiet"], work,
                 what="gest run (second)")
        run_b = os.path.join(work, "runB")
        result = run_gest(
            gest_binary, ["compare", run_a, run_b, "--json", "--quiet"],
            work, what="gest compare")
        try:
            report = json.loads(result.stdout)
        except json.JSONDecodeError as err:
            fail(f"gest compare --json output is not valid JSON: {err}\n"
                 f"{result.stdout}")
        comparisons = report.get("comparisons", [])
        if len(comparisons) != 1:
            fail(f"expected one comparison, got {len(comparisons)}")
        deltas = comparisons[0].get("significant_deltas")
        if deltas != 0:
            fail(f"same-seed runs report {deltas} significant deltas:\n"
                 f"{result.stdout}")
        print("check_repro: OK: verify catches tampering and seed "
              "drift; same-seed compare reports zero deltas")
        checklib.keep_scratch(None)


def main(argv):
    if len(argv) == 3 and argv[1] == "--drive":
        drive(argv[2])
        return 0
    if len(argv) == 2 and not argv[1].startswith("-"):
        validate_run(argv[1])
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
