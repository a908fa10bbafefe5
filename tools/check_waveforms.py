#!/usr/bin/env python3
"""Validate waveform artifacts written by gest's signal-capture layer.

Checks the `# gest-waveforms v1` CSV format (flight-recorder captures in
<run_dir>/waveforms/ and `gest probe` output) plus physics sanity:

  * the version comment, `# annotation` and `# signal` headers and the
    `signal,kind,index,time_s,value` rows are well-formed;
  * every declared signal has exactly its declared sample count, with
    contiguous indices and a time base matching its sample rate;
  * the scalar Evaluation annotations agree with the captured traces:
    v_min / v_max / peak_to_peak_v re-derived from the post-warmup
    pdn_voltage_v samples match to 1e-9 (when no samples were dropped),
    the voltage stays below the supply, the thermal transient stays
    inside its endpoints, interval IPC is non-negative and bounded;
  * the spectrum companion (<base>_spectrum.csv), when present, scans
    ascending frequencies with non-negative amplitudes;
  * a directory's index.csv references existing files with fitness
    non-increasing by rank.

Usage:
  check_waveforms.py <file.csv | waveforms_dir>   validate artifacts
  check_waveforms.py --drive <gest-binary>        run a tiny PDN GA with
                                                  <output waveforms="2">,
                                                  validate the sealed
                                                  captures, then `gest
                                                  probe` the run and
                                                  validate that too

With GEST_CHECK_ARTIFACT_DIR set, --drive copies its scratch run
directory there before exiting on failure, so CI can upload it.

Exit status 0 when the artifacts are valid; 1 with a message otherwise.
"""

import math
import os
import sys
import tempfile

import checklib
from checklib import fail, run_gest

TOLERANCE = 1e-9

DRIVE_CONFIG = """<?xml version="1.0"?>
<gest_configuration>
  <ga population_size="8" individual_size="10" generations="4" seed="6"
      threads="2"/>
  <library name="x86"/>
  <measurement class="SimVoltageNoiseMeasurement">
    <config platform="athlon-x4" min_cycles="4096"/>
  </measurement>
  <fitness class="DefaultFitness"/>
  <output directory="out" waveforms="2" stats="false"/>
</gest_configuration>
"""


def parse_csv(path):
    """Parse one gest-waveforms CSV into (annotations, signals, marks).

    signals: name -> dict(unit, rate_hz, warmup, samples=[...],
    declared_samples, dropped). marks: list of (kind, index, time_s).
    """
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as err:
        fail(f"cannot read {path}: {err}")
    if not lines or lines[0] != "# gest-waveforms v1":
        fail(f"{path} lacks the '# gest-waveforms v1' version header")

    annotations = {}
    signals = {}
    body_start = None
    for lineno, line in enumerate(lines[1:], start=2):
        if line.startswith("# annotation "):
            parts = line.split(" ", 3)
            if len(parts) != 4:
                fail(f"{path}:{lineno}: malformed annotation: {line}")
            annotations[parts[2]] = float(parts[3])
        elif line.startswith("# signal "):
            fields = line.split(" ")
            if len(fields) != 8:
                fail(f"{path}:{lineno}: malformed signal header: {line}")
            name = fields[2]
            meta = {}
            for field in fields[3:]:
                key, _, value = field.partition("=")
                meta[key] = value
            for key in ("unit", "rate_hz", "warmup", "samples",
                        "dropped"):
                if key not in meta:
                    fail(f"{path}:{lineno}: signal '{name}' lacks "
                         f"'{key}='")
            signals[name] = {
                "unit": meta["unit"],
                "rate_hz": float(meta["rate_hz"]),
                "warmup": int(meta["warmup"]),
                "declared_samples": int(meta["samples"]),
                "dropped": int(meta["dropped"]),
                "samples": [],
            }
            if signals[name]["rate_hz"] <= 0:
                fail(f"{path}:{lineno}: signal '{name}' has "
                     f"non-positive rate_hz")
        elif line.startswith("#"):
            fail(f"{path}:{lineno}: unexpected comment: {line}")
        else:
            if line != "signal,kind,index,time_s,value":
                fail(f"{path}:{lineno}: expected the column header, "
                     f"got: {line}")
            body_start = lineno
            break
    if body_start is None:
        fail(f"{path} has no column header row")

    marks = []
    for lineno, line in enumerate(lines[body_start:],
                                  start=body_start + 1):
        parts = line.split(",")
        if len(parts) != 5:
            fail(f"{path}:{lineno}: expected 5 columns: {line}")
        name, kind, index, time_s, value = parts
        if kind == "sample":
            if name not in signals:
                fail(f"{path}:{lineno}: sample for undeclared signal "
                     f"'{name}'")
            sig = sig_entry = signals[name]
            if int(index) != len(sig_entry["samples"]):
                fail(f"{path}:{lineno}: signal '{name}' sample index "
                     f"{index} out of order")
            expected_t = int(index) / sig["rate_hz"]
            if not math.isclose(float(time_s), expected_t,
                                rel_tol=1e-12, abs_tol=1e-15):
                fail(f"{path}:{lineno}: signal '{name}' time {time_s} "
                     f"does not match index/rate {expected_t}")
            sample = float(value)
            if not math.isfinite(sample):
                fail(f"{path}:{lineno}: non-finite sample {value}")
            sig_entry["samples"].append(sample)
        elif kind == "mark":
            marks.append((name, int(index), float(time_s)))
        else:
            fail(f"{path}:{lineno}: unknown row kind '{kind}'")

    for name, sig in signals.items():
        if len(sig["samples"]) != sig["declared_samples"]:
            fail(f"{path}: signal '{name}' declares "
                 f"{sig['declared_samples']} samples but carries "
                 f"{len(sig['samples'])}")
    return annotations, signals, marks


def summary_start(sig):
    """First index the summary stats cover (the C++ warmup clamp)."""
    n = len(sig["samples"])
    if sig["warmup"] >= n:
        return n // 2
    return sig["warmup"]


def check_physics(path, annotations, signals, marks):
    voltage = signals.get("pdn_voltage_v")
    if voltage is not None and voltage["samples"]:
        post = voltage["samples"][summary_start(voltage):]
        v_min, v_max = min(post), max(post)
        if voltage["dropped"] == 0:
            for key, derived in (("v_min", v_min), ("v_max", v_max),
                                 ("peak_to_peak_v", v_max - v_min)):
                if key not in annotations:
                    fail(f"{path}: pdn_voltage_v captured but "
                         f"annotation '{key}' is missing")
                if abs(annotations[key] - derived) > TOLERANCE:
                    fail(f"{path}: annotation {key}="
                         f"{annotations[key]!r} disagrees with the "
                         f"trace-derived {derived!r} beyond 1e-9")
        vdd = annotations.get("vdd")
        if vdd is not None and v_min >= vdd:
            fail(f"{path}: post-warmup v_min {v_min} is not below the "
                 f"supply {vdd} — no IR drop under load is unphysical")

    thermal = signals.get("die_temp_c")
    if thermal is not None and thermal["samples"]:
        temps = thermal["samples"]
        lo = min(temps[0], temps[-1]) - 1.0
        hi = max(temps[0], temps[-1]) + 1.0
        for i, temp in enumerate(temps):
            if not lo <= temp <= hi:
                fail(f"{path}: die_temp_c sample {i} ({temp}) "
                     f"overshoots the transient endpoints "
                     f"[{temps[0]}, {temps[-1]}]")

    ipc_wave = signals.get("interval_ipc")
    if ipc_wave is not None:
        for i, value in enumerate(ipc_wave["samples"]):
            if not 0.0 <= value <= 64.0:
                fail(f"{path}: interval_ipc sample {i} ({value}) "
                     f"outside [0, 64]")

    for kind, index, time_s in marks:
        if kind not in ("l1_miss", "l2_miss", "mispredict"):
            fail(f"{path}: unknown mark kind '{kind}'")
        if index < 0 or time_s < 0:
            fail(f"{path}: mark {kind} has negative index/time")


def check_spectrum(csv_path):
    spectrum_path = os.path.splitext(csv_path)[0] + "_spectrum.csv"
    if not os.path.exists(spectrum_path):
        return
    with open(spectrum_path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != "# gest-spectrum v1":
        fail(f"{spectrum_path} lacks the spectrum version header")
    if len(lines) < 4 or not lines[1].startswith("# resonance_hz "):
        fail(f"{spectrum_path} lacks the resonance header")
    if lines[2] != "frequency_hz,amplitude_a":
        fail(f"{spectrum_path} lacks the column header")
    last_freq = 0.0
    for lineno, line in enumerate(lines[3:], start=4):
        freq_text, _, amp_text = line.partition(",")
        freq, amp = float(freq_text), float(amp_text)
        if freq <= last_freq:
            fail(f"{spectrum_path}:{lineno}: frequencies not "
                 f"strictly ascending")
        if amp < 0 or not math.isfinite(amp):
            fail(f"{spectrum_path}:{lineno}: bad amplitude {amp_text}")
        last_freq = freq


def validate_file(path):
    annotations, signals, marks = parse_csv(path)
    if not signals:
        fail(f"{path} declares no signals")
    check_physics(path, annotations, signals, marks)
    check_spectrum(path)
    total = sum(len(s["samples"]) for s in signals.values())
    print(f"check_waveforms: OK: {path}: {len(signals)} signals, "
          f"{total} samples, {len(marks)} marks, "
          f"{len(annotations)} annotations")
    return annotations


def validate_index(directory):
    index_path = os.path.join(directory, "index.csv")
    if not os.path.exists(index_path):
        fail(f"{directory} has no index.csv")
    with open(index_path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != "# gest-waveform-index v2":
        fail(f"{index_path} lacks the index version header")
    if len(lines) < 2 or lines[1] != \
            "rank,id,generation,fitness,csv,spectrum":
        fail(f"{index_path} lacks the column header")
    rows = []
    for lineno, line in enumerate(lines[2:], start=3):
        parts = line.split(",")
        if len(parts) != 6:
            fail(f"{index_path}:{lineno}: expected 6 columns: {line}")
        rank, _, _, fitness = (int(parts[0]), parts[1], parts[2],
                               float(parts[3]))
        for ref in (parts[4], parts[5]):
            if ref and not os.path.exists(os.path.join(directory, ref)):
                fail(f"{index_path}:{lineno}: referenced file {ref} "
                     f"does not exist")
        rows.append((rank, fitness, parts[3]))
    for (rank_a, fit_a, _), (rank_b, fit_b, _) in zip(rows, rows[1:]):
        if rank_b != rank_a + 1:
            fail(f"{index_path}: ranks not consecutive")
        if fit_b > fit_a:
            fail(f"{index_path}: fitness increases from rank {rank_a} "
                 f"({fit_a}) to {rank_b} ({fit_b})")
    if not rows:
        fail(f"{index_path} lists no captures")
    return rows


def validate_dir(directory):
    rows = validate_index(directory)
    champion_fitness = None
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".csv") or name == "index.csv" or \
                name.endswith("_spectrum.csv"):
            continue
        annotations = validate_file(os.path.join(directory, name))
        if champion_fitness is None:
            champion_fitness = annotations
    print(f"check_waveforms: OK: {directory}: index lists "
          f"{len(rows)} captures, champion fitness {rows[0][2]}")
    return rows


def drive(gest_binary):
    # The child runs with cwd inside the scratch dir; keep a relative
    # binary path working.
    gest_binary = os.path.abspath(gest_binary)
    with tempfile.TemporaryDirectory(prefix="gest-waveforms-") as work:
        checklib.keep_scratch(work)
        config = os.path.join(work, "config.xml")
        with open(config, "w", encoding="utf-8") as handle:
            handle.write(DRIVE_CONFIG)
        run_gest(gest_binary, ["run", config, "--quiet"], work)
        out = os.path.join(work, "out")
        rows = validate_dir(os.path.join(out, "waveforms"))

        run_gest(gest_binary, ["probe", config, out, "--quiet"], work)
        probe_dir = os.path.join(out, "probe")
        probe_csvs = [name for name in sorted(os.listdir(probe_dir))
                      if name.endswith(".csv") and
                      not name.endswith("_spectrum.csv")]
        if len(probe_csvs) != 1:
            fail(f"expected one probe capture in {probe_dir}, found "
                 f"{probe_csvs}")
        annotations = validate_file(
            os.path.join(probe_dir, probe_csvs[0]))

        # Determinism across capture paths: the probe re-measures the
        # run's champion, so its peak-to-peak voltage must equal the
        # fitness the GA recorded for it, bit-for-bit within 1e-9.
        champion_fitness = rows[0][1]
        if abs(annotations["peak_to_peak_v"] - champion_fitness) > \
                TOLERANCE:
            fail(f"probe peak_to_peak_v "
                 f"{annotations['peak_to_peak_v']!r} disagrees with "
                 f"the champion fitness {champion_fitness!r}")
        print("check_waveforms: OK: probe capture matches the "
              "champion fitness")
        checklib.keep_scratch(None)


def main(argv):
    if len(argv) == 3 and argv[1] == "--drive":
        drive(argv[2])
        return 0
    if len(argv) == 2 and not argv[1].startswith("-"):
        if os.path.isdir(argv[1]):
            validate_dir(argv[1])
        else:
            validate_file(argv[1])
        return 0
    print(__doc__.strip(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
