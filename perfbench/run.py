#!/usr/bin/env python3
"""GA-run benchmark: GeST searches of three shipped configs.

Usage (from the repository root):

    python3 perfbench/run.py --workload power_a15 --seed 1 --seconds 30 \
        --trace 0

It builds perfbench/ (the gest library plus gest_perfbench) into
.bench_build/, writes the workload's config from configs/ with the given
seed, and then:

  --trace 0  repeats untraced searches without a run directory (one
             process each, closed loop: one search at a time) for
             --seconds, then makes one sealed search, and prints the
             end-to-end metrics as medians over the timed searches;
  --trace 1  rotates untraced searches with and without a run directory
             and traced replays for about half of --seconds, adds one
             search at the other thread count, and prints the per-layer
             metrics.

Every search is checked: its history digest must repeat, match the
replay and the other thread count, its sealed run directory must pass
`gest verify --quick`, and its exact simulated counts must repeat for the
same code and seed. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchstats  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "cmake" / "gest_perfbench"

# Each workload: shipped config, the <ga> and <output> attributes the
# benchmark sets besides seed and output directory, and the number of
# searches a --trace 0 run makes at least, whatever --seconds says.
#
# A search's cost is set by its GA seed (the same seed repeats within 2%),
# but differs by up to 4x between seeds, and more so the longer the GA
# converges. Short searches, many to a run, keep the run's median steady.
#
# setup_children set-up-only processes follow each search, so that
# setup_s, a median over processes, has about 40 of them on every workload.
#
# best_fitness is the mean over exactly the first min_searches searches,
# so it is exact per --seed however many more searches fit. It is a
# quality, not a timing: the mean is used because single-seed fitness
# spreads widely (about 12% on didt_athlon) and a mean varies less than
# a median.
WORKLOADS = {
    "power_a15": {
        "config": "a15_power.xml",
        "ga": {"threads": "1", "generations": "8"},
        "output": {"coverage": "true", "health": "true"},
        "min_searches": 30,
        "setup_children": 0,
    },
    "didt_athlon": {
        "config": "athlon_didt.xml",
        "ga": {"threads": "1", "generations": "8"},
        "output": {},
        "min_searches": 30,
        "setup_children": 0,
    },
    "llc_xgene2": {
        "config": "xgene2_llc_stress.xml",
        "ga": {"threads": "2", "generations": "4"},
        "output": {},
        "min_searches": 9,
        "setup_children": 3,
    },
}

MIN_PAIRS = 2             # search/replay rounds per --trace 1 run
SETUP_REPS = 51           # set-up repetitions per process (median kept)
SEARCH_TIMEOUT_S = 100    # per child process
EVAL_TOLERANCE = 0.05     # platform glue allowed outside the layer spans
ENGINE_TOLERANCE = 0.02   # step spans vs the engine's wall time

LAYERS = {
    "arch": ("arch.decode", "arch.simulate"),
    "power": ("power.average", "power.trace", "power.chip_current"),
    "thermal": ("thermal.chip_temp",),
    "pdn": ("pdn.simulate",),
    "fitness": ("fitness.score",),
}


class BenchError(Exception):
    """The benchmark cannot run here (no sources, build failed)."""


# --- build -----------------------------------------------------------

def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no gest sources under {ROOT / 'src'}")
    cmake_dir = BINARY.parent
    cmake_dir.mkdir(parents=True, exist_ok=True)
    with open(BUILD / "build.log", "a") as out:
        def step(cmd):
            if subprocess.call(cmd, stdout=out, stderr=out) != 0:
                raise BenchError(f"'{' '.join(cmd)}' failed; see "
                                 f"{BUILD / 'build.log'}")
        if not (cmake_dir / "CMakeCache.txt").is_file():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            step(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                  "-DCMAKE_BUILD_TYPE=Release"] + gen)
        jobs = str(min(4, os.cpu_count() or 1))
        step(["cmake", "--build", str(cmake_dir), "-j", jobs])


def code_hash():
    """Hash of every source the measured program is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "configs"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


# --- workload configs --------------------------------------------------

def set_attrs(text, element, attrs):
    """Set attributes on the first <element ...> tag, keeping the rest of
    the text byte for byte."""
    match = re.search(r"<%s\b[^>]*?/?>" % element, text, re.S)
    if not match:
        raise BenchError(f"config has no <{element}> element")
    tag = match.group(0)
    for key, value in attrs.items():
        pattern = re.compile(r'(\s%s=")[^"]*(")' % re.escape(key))
        if pattern.search(tag):
            tag = pattern.sub(lambda m: m.group(1) + value + m.group(2),
                              tag, count=1)
        else:
            end = len(tag) - (2 if tag.endswith("/>") else 1)
            tag = tag[:end].rstrip() + f' {key}="{value}"' + tag[end:]
    return text[:match.start()] + tag + text[match.end():]


def ga_seed(seed, index):
    """GA seed of the index-th search of a run made with --seed."""
    return seed * 1000 + index


def keep_going(started, durations, minimum, seconds):
    """Whether fewer than `minimum` searches have run, or another one of
    the median duration so far still ends within `seconds`."""
    if len(durations) < minimum:
        return True
    return (time.perf_counter() - started + statistics.median(durations)
            <= seconds)


def write_configs(workload, seed, work):
    """Write the generated configs into the new directory `work`: 'main'
    (sealed run dir), 'nodir' (no run dir) and 'other_threads' (no run
    dir, the other thread count)."""
    spec = WORKLOADS[workload]
    work.mkdir(parents=True)
    shipped = ROOT / "configs" / spec["config"]
    if not shipped.is_file():
        raise BenchError(f"missing shipped config {shipped}")
    if (ROOT / "configs" / "templates").is_dir():
        shutil.copytree(ROOT / "configs" / "templates", work / "templates")
    base = set_attrs(shipped.read_text(), "ga",
                     dict(spec["ga"], seed=str(seed)))
    threads = int(spec["ga"]["threads"])
    variants = {
        "main": (threads, "run"),
        "nodir": (threads, ""),
        "other_threads": (2 if threads == 1 else 1, ""),
    }
    paths = {}
    for name, (t, directory) in variants.items():
        text = set_attrs(base, "ga", {"threads": str(t)})
        text = set_attrs(text, "output",
                         dict(spec["output"], directory=directory))
        paths[name] = work / f"{name}.xml"
        paths[name].write_text(text)
    return paths


# --- child processes -----------------------------------------------------

def run_child(args, work, tag):
    """Run gest_perfbench; returns (parsed JSON line, peak RSS in MiB)."""
    out_path, err_path = work / f"{tag}.out", work / f"{tag}.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen([str(BINARY)] + [str(a) for a in args],
                                stdout=out, stderr=err, cwd=work)
        killer = threading.Timer(SEARCH_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{tag}: exit {proc.returncode}: "
                           + err_path.read_text()[-400:])
    lines = out_path.read_text().strip().splitlines()
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def history_digest(path):
    """SHA-256 over history.csv's deterministic columns (generation,
    fitness, ids, unique instructions, diversity, cache counts); the
    *_ms timing columns are left out."""
    h = hashlib.sha256()
    header = None
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            continue
        cols = line.split(",")
        if header is None:
            header = cols
            keep = [i for i, c in enumerate(cols) if not c.endswith("_ms")]
        h.update((",".join(cols[i] for i in keep) + "\n").encode())
    if header is None:
        raise RuntimeError(f"{path} has no rows")
    return h.hexdigest()[:16]


def dir_size(path):
    files = total = 0
    for dirpath, _, names in os.walk(path):
        for name in names:
            files += 1
            total += os.path.getsize(os.path.join(dirpath, name))
    return files, total


class Checks:
    """Correctness checks of one benchmark run; failures are per search."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def search(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def search(config, tag):
    """One untraced search. Returns (result dict, problems)."""
    work = config.parent
    run_dir = work / "run"
    shutil.rmtree(run_dir, ignore_errors=True)
    hist_dir = work / f"{tag}_history"
    shutil.rmtree(hist_dir, ignore_errors=True)
    # Flush earlier searches' run-dir writeback so it does not land in
    # this one's timing.
    os.sync()
    res, rss = run_child(["run", config, SETUP_REPS, hist_dir], work, tag)
    res["peak_rss_mb"] = rss
    res["digest"] = history_digest(hist_dir / "history.csv")
    problems = []
    if res["verify"] is not None:
        if not res["verify"]["ok"]:
            problems.append(f"{tag}: gest verify --quick failed: "
                            + "; ".join(res["verify"]["problems"]))
        res["output_files"], res["output_bytes"] = dir_size(run_dir)
        sealed = history_digest(run_dir / "history.csv")
        if sealed != res["digest"]:
            problems.append(f"{tag}: sealed history.csv digest {sealed} "
                            f"!= rendered {res['digest']}")
    if res["generations"] < 1 or res["measurements"] < 1:
        problems.append(f"{tag}: empty search")
    shutil.rmtree(run_dir, ignore_errors=True)
    return res, problems


def untraced_fingerprint(res):
    return {"digest": res["digest"],
            "best_fitness": res["best_fitness"],
            "sim": res["sim"]}


def compare_ledger(ledger_path, fresh, problems):
    """Exact results must repeat for the same code and GA seed: compare
    with what an earlier run stored, then store what is new."""
    stored = {}
    if ledger_path.is_file():
        stored = json.loads(ledger_path.read_text())
    for key, value in fresh.items():
        if key in stored and stored[key] != value:
            problems.append(f"{key} differs from an earlier run of the "
                            f"same code and seed: {value} != {stored[key]}")
        stored.setdefault(key, value)
    ledger_path.parent.mkdir(parents=True, exist_ok=True)
    ledger_path.write_text(json.dumps(stored, indent=1, sort_keys=True))


# --- --trace 0 -------------------------------------------------------------

def measure_end_to_end(workload, seed, seconds, work, ledger, checks):
    """Searches of consecutive GA seeds without a run directory, one
    process each, one at a time, for about `seconds`; timings are medians
    over them. Then one untimed search of the first GA seed with a sealed
    run directory, which must pass verify and agree."""
    results, durations, setups = [], [], []
    started = time.perf_counter()
    minimum = WORKLOADS[workload]["min_searches"]
    children = WORKLOADS[workload]["setup_children"]
    while keep_going(started, durations, minimum, seconds):
        i = len(results)
        t0 = time.perf_counter()
        gseed = ga_seed(seed, i)
        configs = write_configs(workload, gseed, work / f"s{i}")
        res, problems = search(configs["nodir"], "nodir")
        compare_ledger(ledger(gseed), untraced_fingerprint(res), problems)
        checks.search(problems)
        results.append(res)
        setups.append(res["setup_s"])
        for _ in range(children):
            setups.append(run_child(["setup", configs["nodir"], SETUP_REPS],
                                    configs["nodir"].parent,
                                    "setup")[0]["setup_s"])
        durations.append(time.perf_counter() - t0)
    sealed, problems = search(work / "s0" / "main.xml", "main")
    if untraced_fingerprint(sealed) != untraced_fingerprint(results[0]):
        problems.append(f"sealed search {untraced_fingerprint(sealed)} "
                        f"differs from directory-less "
                        f"{untraced_fingerprint(results[0])}")
    checks.search(problems)
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r["run_s"] for r in results),
        "evals_per_s": statistics.median(
            r["population"] * r["generations"] / r["run_s"]
            for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                         for r in results),
        "best_fitness": statistics.fmean(r["best_fitness"]
                                         for r in results[:minimum]),
    }


# --- --trace 1 -------------------------------------------------------------

def load_csv(path, numeric):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        for key in numeric:
            row[key] = int(row[key])
        rows.append(row)
    return rows


def union_ns(intervals):
    total, end = 0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def analyse_replay(out_dir, replay, threads):
    """Per-layer metrics from spans.csv/evals.csv, plus accounting
    problems."""
    spans = load_csv(out_dir / "spans.csv",
                     ("span", "parent", "thread", "individual", "start_ns",
                      "end_ns"))
    evals = load_csv(out_dir / "evals.csv",
                     ("individual", "thread", "cycles", "simulated_cycles",
                      "instructions", "l1_accesses", "l1_misses",
                      "l2_accesses", "l2_misses", "pdn_cycles",
                      "genome_hash"))
    problems = []
    by_id = {s["span"]: s for s in spans}
    dur = {s["span"]: s["end_ns"] - s["start_ns"] for s in spans}
    steps = [s for s in spans if s["name"].startswith("core.")]
    evaluations = [s for s in spans if s["name"] == "platform.evaluate"]
    layer_ns = {layer: 0 for layer in LAYERS}
    kind_layer = {k: layer for layer, kinds in LAYERS.items()
                  for k in kinds}
    children = {}
    for s in spans:
        if s["name"] in kind_layer:
            layer_ns[kind_layer[s["name"]]] += dur[s["span"]]
            parent = by_id.get(s["parent"])
            if (parent is None or parent["name"] != "platform.evaluate"
                    or s["start_ns"] < parent["start_ns"]
                    or s["end_ns"] > parent["end_ns"]):
                problems.append(f"span {s['span']} ({s['name']}) lies "
                                f"outside its evaluation span")
        elif s["name"] == "platform.evaluate":
            children.setdefault(s["parent"], []).append(s)

    eval_ns = sum(dur[s["span"]] for s in evaluations)
    layers_ns = sum(layer_ns.values())
    glue = eval_ns - layers_ns
    if eval_ns <= 0 or abs(glue) > EVAL_TOLERANCE * eval_ns:
        share = {k: round(v / eval_ns, 4) if eval_ns else None
                 for k, v in layer_ns.items()}
        problems.append(
            f"layer self times {layers_ns} ns do not cover the evaluation "
            f"spans {eval_ns} ns within {EVAL_TOLERANCE:.0%}: platform "
            f"glue {glue} ns unaccounted; layer shares {share}")

    step_ns = covered_ns = phase_ns = 0
    for step in steps:
        kids = children.get(step["span"], [])
        for k in kids:
            if k["start_ns"] < step["start_ns"] or k["end_ns"] > step["end_ns"]:
                problems.append(f"evaluation span {k['span']} lies outside "
                                f"its engine step")
        step_ns += dur[step["span"]]
        covered_ns += union_ns((k["start_ns"], k["end_ns"]) for k in kids)
        if kids:
            phase_ns += (max(k["end_ns"] for k in kids)
                         - min(k["start_ns"] for k in kids))
    step_ids = {s["span"] for s in steps}
    orphans = sum(1 for s in evaluations if s["parent"] not in step_ids)
    if orphans:
        problems.append(f"{orphans} evaluation spans have no engine step "
                        f"as caller")
    wall_ns = replay["wall_s"] * 1e9
    if abs(step_ns - wall_ns) > ENGINE_TOLERANCE * wall_ns:
        problems.append(f"engine step spans {step_ns} ns do not cover the "
                        f"engine wall time {wall_ns:.0f} ns within "
                        f"{ENGINE_TOLERANCE:.0%}: core unaccounted")
    core_self_ns = step_ns - covered_ns
    busy_ns = core_self_ns + eval_ns

    n = len(evals)
    total = {k: sum(e[k] for e in evals) for k in
             ("cycles", "simulated_cycles", "instructions", "l1_accesses",
              "l1_misses", "l2_accesses", "l2_misses", "pdn_cycles")}
    if n != len(evaluations) or n != replay["measurements"]:
        problems.append(f"{n} count rows, {len(evaluations)} evaluation "
                        f"spans, {replay['measurements']} measurements")
    eval_ms = [dur[s["span"]] / 1e6 for s in evaluations]
    tail_pct, tail_ms, tail_beyond = benchstats.tail(eval_ms)

    def ratio(a, b):
        return a / b if b else 0.0

    sec = {layer: ns / 1e9 for layer, ns in layer_ns.items()}
    metrics = {
        "arch.busy_s": sec["arch"],
        "arch.share": ratio(layer_ns["arch"], busy_ns),
        "arch.mcycles_per_s": ratio(total["cycles"] / 1e6, sec["arch"]),
        "arch.stepped_share": ratio(total["simulated_cycles"],
                                    total["cycles"]),
        "arch.steady_hit_share": ratio(
            sum(1 for e in evals if e["simulated_cycles"] < e["cycles"]), n),
        "arch.cycles": total["cycles"],
        "arch.stepped_cycles": total["simulated_cycles"],
        "arch.instructions": total["instructions"],
        "arch.l1_accesses": total["l1_accesses"],
        "arch.l1_misses": total["l1_misses"],
        "arch.l1_miss_rate": ratio(total["l1_misses"], total["l1_accesses"]),
        "arch.l2_accesses": total["l2_accesses"],
        "arch.l2_misses": total["l2_misses"],
        "arch.l2_miss_rate": ratio(total["l2_misses"], total["l2_accesses"]),
        "power.busy_s": sec["power"],
        "power.share": ratio(layer_ns["power"], busy_ns),
        "thermal.busy_s": sec["thermal"],
        "thermal.share": ratio(layer_ns["thermal"], busy_ns),
        "pdn.busy_s": sec["pdn"],
        "pdn.share": ratio(layer_ns["pdn"], busy_ns),
        "pdn.cycles": total["pdn_cycles"],
        "pdn.ns_per_cycle": ratio(layer_ns["pdn"], total["pdn_cycles"]),
        "fitness.busy_s": sec["fitness"],
        "fitness.share": ratio(layer_ns["fitness"], busy_ns),
        "platform.self_s": glue / 1e9,
        "platform.eval_ms.count": len(eval_ms),
        "platform.eval_ms.p50": benchstats.quantile(eval_ms, 0.5),
        "platform.eval_ms.tail": tail_ms,
        "platform.eval_ms.tail_pct": tail_pct,
        "platform.eval_ms.tail_beyond": tail_beyond,
        "core.self_s": core_self_ns / 1e9,
        "core.share": ratio(core_self_ns, busy_ns),
        "core.repeat_genome_share": ratio(
            n - len({e["genome_hash"] for e in evals}), n),
        "core.worker_idle_share": 1.0 - ratio(eval_ns, threads * phase_ns),
    }
    counts = {"evaluations": n, "cycles": total["cycles"],
              "simulated_cycles": total["simulated_cycles"],
              "steady_hits": sum(1 for e in evals
                                 if e["simulated_cycles"] < e["cycles"])}
    return metrics, counts, total, problems


def traced_replay(config, tag, main):
    """One traced replay, checked against the untraced search @main.
    Returns (replay result, per-layer metrics, exact totals, problems)."""
    out_dir = config.parent / tag
    shutil.rmtree(out_dir, ignore_errors=True)
    replay, _ = run_child(["replay", config, out_dir], config.parent, tag)
    metrics, counts, totals, problems = analyse_replay(
        out_dir, replay, main["threads"])
    digest = history_digest(out_dir / "history.csv")
    if digest != main["digest"]:
        problems.append(f"{tag} history digest {digest} != untraced "
                        f"{main['digest']}")
    if replay["best_fitness"] != main["best_fitness"]:
        problems.append(f"{tag} best fitness {replay['best_fitness']!r} "
                        f"!= untraced {main['best_fitness']!r}")
    if counts != main["sim"]:
        problems.append(f"{tag} counts {counts} != untraced {main['sim']}")
    return replay, metrics, totals, problems


def measure_per_layer(workload, seed, seconds, work, ledger, checks):
    gseed = ga_seed(seed, 0)
    configs = write_configs(workload, gseed, work / "s0")
    # Sealed searches, directory-less searches and traced replays rotate,
    # so output.share and trace.overhead_share compare medians taken over
    # the same stretch of time; together they take about half of
    # --seconds. The per-layer metrics come from the first replay.
    mains, nodirs, replays, durations = [], [], [], []
    started = time.perf_counter()
    while keep_going(started, durations, MIN_PAIRS, seconds / 2):
        k = len(durations)
        t0 = time.perf_counter()
        for runs, name in ((mains, "main"), (nodirs, "nodir")):
            res, problems = search(configs[name], f"{name}{k}")
            runs.append(res)
            if untraced_fingerprint(res) != untraced_fingerprint(mains[0]):
                problems.append(f"{name}{k}: digest/fitness/counts differ "
                                f"from main0 (threads={mains[0]['threads']})")
            checks.search(problems)
        replay = traced_replay(configs["main"], f"replay{k}", mains[0])
        checks.search(replay[3])
        replays.append(replay)
        durations.append(time.perf_counter() - t0)
    main = mains[0]
    other, problems = search(configs["other_threads"], "other_threads")
    if untraced_fingerprint(other) != untraced_fingerprint(main):
        problems.append(f"threads={other['threads']} digest/fitness/counts "
                        f"{untraced_fingerprint(other)} differ from "
                        f"threads={main['threads']} "
                        f"{untraced_fingerprint(main)}")
    checks.search(problems)

    _, metrics, totals, _ = replays[0]
    problems = []
    compare_ledger(ledger(gseed),
                   dict(untraced_fingerprint(main), exact=totals), problems)
    checks.search(problems)

    main_s = statistics.median(r["run_s"] for r in mains)
    nodir_s = statistics.median(r["run_s"] for r in nodirs)
    replay_s = statistics.median(r[0]["wall_s"] for r in replays)
    hits, misses = main["cache_hits"], main["cache_misses"]
    metrics.update({
        "core.cache_hit_share": hits / (hits + misses),
        "output.share": 1.0 - nodir_s / main_s,
        "output.files": main["output_files"],
        "output.bytes": main["output_bytes"],
        "config.parse_ms": main["parse_ms"],
        "trace.overhead_share": replay_s / nodir_s - 1.0,
    })
    return metrics, totals


# --- main ------------------------------------------------------------------

def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def print_metrics(workload, seed, metrics, units):
    for name, value in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{workload} seed={seed} {name} = {shown} {units[name]}")


def run(workload, seed, seconds, trace):
    spec = benchmark_spec()
    build()
    work = BUILD / "work" / f"{workload}-{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    ledger_dir = BUILD / "ledger" / code_hash()

    def ledger(gseed):
        return ledger_dir / f"{workload}-{gseed}.json"

    checks = Checks()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    try:
        if trace:
            metrics, totals = measure_per_layer(workload, seed, seconds,
                                                work, ledger, checks)
            print(f"{workload} seed={seed} exact counts: " + ", ".join(
                f"{k}={v}" for k, v in totals.items()))
        else:
            metrics = measure_end_to_end(workload, seed, seconds, work,
                                         ledger, checks)
    except (RuntimeError, ValueError, KeyError, OSError) as exc:
        # A crashed, killed or garbled child: count it, report no metrics.
        checks.attempted += 1
        checks.failed += 1
        checks.problems.append(str(exc))
        metrics = {}
    units = {m["name"]: m["unit"] for m in wanted}
    missing = [name for name in units if name not in metrics]
    for name in missing:
        checks.problems.append(f"metric {name} was not measured")
    metrics = {name: metrics[name] for name in units if name in metrics}
    print_metrics(workload, seed, metrics, units)
    for problem in checks.problems:
        print(f"FAIL {workload} seed={seed}: {problem}")
    print(f"{workload} seed={seed}: {checks.failed} failed of "
          f"{checks.attempted} runs attempted")
    correct = not checks.problems and checks.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed if correct else max(checks.failed, 1),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        return run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
