"""Shared harness of the gest validators (tools/check_*.py and
tools/lineage_to_dot.py).

  * fail() reports "<tool>: FAIL: <message>" and exits 1; when a
    scratch directory was registered with keep_scratch() and
    GEST_CHECK_ARTIFACT_DIR is set, the scratch is copied there first
    for post-mortem;
  * get() / get_json() fetch one URL of a live run's telemetry server;
  * wait_for_listen() reads a running gest's bound server address from
    its status.json heartbeat;
  * running_gest() is the one drive loop: it spawns `gest run`, waits
    for its listen address, and kills the run on leaving the block;
    finish() waits for the exit and checks it;
  * SseReader drains the /events stream over a raw socket;
  * run_gest() runs the gest binary and fails on an unexpected exit;
  * check_metrics_text() validates a Prometheus text exposition — the
    live /metrics body and the sealed metrics.prom alike;
  * check_quantiles() checks each histogram's _quantile series against
    its own le buckets (sealed metrics.prom only: a live scrape can
    race a sample).

The validators run as scripts, so their directory — this one — is on
sys.path and `import checklib` resolves here.
"""

import contextlib
import json
import os
import re
import shutil
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

TOOL = os.path.splitext(os.path.basename(sys.argv[0]))[0]

_scratch = None
_scratch_name = TOOL


def keep_scratch(path, name=None):
    """Copy @p path out on failure (None: stop keeping it), as @p name."""
    global _scratch, _scratch_name
    _scratch = path
    _scratch_name = name or TOOL


def fail(message):
    if _scratch is not None:
        dest = os.environ.get("GEST_CHECK_ARTIFACT_DIR")
        if dest:
            target = os.path.join(dest, _scratch_name)
            shutil.copytree(_scratch, target, dirs_exist_ok=True)
            print(f"{TOOL}: scratch copied to {target}", file=sys.stderr)
    print(f"{TOOL}: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


class ServerGone(Exception):
    """A GET failed at the transport level (refused/reset/timeout).

    Near the end of a driven run this is usually the normal race with
    the server shutting down; callers decide whether it is benign.
    """


def get(url, timeout=5):
    """@return (status, body), or (None, error) on transport failure."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.read().decode("utf-8")
    except (urllib.error.URLError, OSError, TimeoutError) as err:
        return None, str(err)


def get_json(url, what, timeout=5):
    """GET @p url as JSON; ServerGone on transport failure, fail() on a
    non-200 status or an invalid body."""
    status, body = get(url, timeout)
    if status is None:
        raise ServerGone(f"{what}: GET {url} failed: {body}")
    if status != 200:
        fail(f"{what}: GET {url} failed: {body}")
    try:
        return json.loads(body)
    except json.JSONDecodeError as err:
        fail(f"{what}: GET {url} returned invalid JSON: {err}\n"
             f"{body[:400]}")


def wait_for_listen(process, status_path):
    """@return the (ephemeral) host:port the gest @p process serves on,
    once its status.json heartbeat carries it; fail() if it never
    does."""
    for _ in range(600):
        if process.poll() is not None:
            break
        try:
            with open(status_path, encoding="utf-8") as handle:
                listen = json.load(handle).get("listen")
        except (OSError, json.JSONDecodeError):
            listen = None
        if listen:
            return listen
        time.sleep(0.05)
    out, err = process.communicate(timeout=60)
    fail("no listen address appeared in status.json; "
         f"gest exited {process.returncode}:\n{out}{err}")


class DrivenRun:
    """A background `gest run` (see running_gest())."""

    def __init__(self, process, listen):
        self.process = process
        self.listen = listen  # host:port, or None when not waited for

    def alive(self):
        return self.process.poll() is None

    def finish(self, what="gest run", timeout=120):
        """Wait for the run; fail() unless it exits 0. @return (stdout,
        stderr)."""
        out, err = self.process.communicate(timeout=timeout)
        if self.process.returncode != 0:
            fail(f"{what} failed ({self.process.returncode}):\n{out}{err}")
        return out, err


@contextlib.contextmanager
def running_gest(gest, config, cwd, status_path=None):
    """Spawn `gest run <config> --quiet` in @p cwd and yield its
    DrivenRun. With @p status_path, first wait until that status.json
    names the bound server address (DrivenRun.listen). On leaving the
    block — a failed check included — a run still alive is killed."""
    process = subprocess.Popen(
        [gest, "run", config, "--quiet"], cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        listen = (wait_for_listen(process, status_path)
                  if status_path else None)
        yield DrivenRun(process, listen)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()


class SseReader(threading.Thread):
    """Drains /events over a raw socket until the server closes it."""

    def __init__(self, host, port, last_event_id=None, timeout=120):
        super().__init__(daemon=True)
        self.host, self.port = host, port
        self.last_event_id = last_event_id
        self.timeout = timeout
        self.raw = b""
        self.error = None

    def run(self):
        try:
            request = (f"GET /events HTTP/1.1\r\nHost: {self.host}\r\n"
                       "Connection: close\r\n")
            if self.last_event_id is not None:
                request += f"Last-Event-ID: {self.last_event_id}\r\n"
            request += "\r\n"
            with socket.create_connection(
                    (self.host, self.port), timeout=self.timeout) as conn:
                conn.sendall(request.encode())
                while True:
                    chunk = conn.recv(65536)
                    if not chunk:
                        return
                    self.raw += chunk
        except OSError as err:
            self.error = str(err)

    def body(self):
        """The response body; fail() unless it is an event stream."""
        text = self.raw.decode("utf-8", errors="replace")
        head, sep, body = text.partition("\r\n\r\n")
        if not sep:
            fail(f"SSE response has no header/body separator: "
                 f"{text[:200]!r}")
        if "text/event-stream" not in head:
            fail(f"SSE response is not text/event-stream: {head!r}")
        return body

    def blocks(self):
        """The events as {field: value} dicts (retry hints dropped)."""
        out = []
        for block in self.body().split("\n\n"):
            block = block.strip("\n")
            if not block or block.startswith("retry:"):
                continue
            fields = {}
            for line in block.split("\n"):
                key, _, value = line.partition(":")
                fields[key] = value.strip()
            out.append(fields)
        return out


def run_gest(gest, args, cwd, what="", expect=0):
    """Run `gest <args>` in @p cwd; fail() unless it exits @p expect
    (None: any status). @return the CompletedProcess."""
    done = subprocess.run([gest] + args, cwd=cwd, capture_output=True,
                          text=True)
    if expect is not None and done.returncode != expect:
        fail(f"{what or 'gest ' + ' '.join(args)} exited "
             f"{done.returncode}, expected {expect}:\n"
             f"{done.stdout}{done.stderr}")
    return done


SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (-?[0-9.eE+-]+|NaN|[+-]Inf)$")


def check_metrics_text(text, where="/metrics"):
    """Validate Prometheus text exposition (HELP/TYPE comments, one
    sample per line, histogram buckets cumulative and consistent with
    _count); fail() naming @p where otherwise. @return {counter: value}.
    """
    typed = {}
    counters = {}
    histograms = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram"):
                fail(f"{where} line {lineno}: bad TYPE comment: {line}")
            typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            fail(f"{where} line {lineno}: unexpected comment: {line}")
        match = SAMPLE_RE.match(line)
        if not match:
            fail(f"{where} line {lineno}: not a valid sample: {line!r}")
        name, labels, value = match.groups()
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if name not in typed and base not in typed:
            fail(f"{where} line {lineno}: sample '{name}' has no "
                 "preceding # TYPE")
        kind = typed.get(name, typed.get(base))
        if kind == "counter":
            counters[name] = float(value)
        elif kind == "histogram" and name.endswith("_bucket"):
            le = re.search(r'le="([^"]+)"', labels or "")
            if not le:
                fail(f"{where} line {lineno}: bucket without le label")
            histograms.setdefault(base, []).append(
                (le.group(1), float(value)))
        elif kind == "histogram" and name.endswith("_count"):
            histograms.setdefault(base, []).append(
                ("__count__", float(value)))
    for base, rows in histograms.items():
        buckets = [v for le, v in rows if le != "__count__"]
        counts = [v for le, v in rows if le == "__count__"]
        if any(b > a for a, b in zip(buckets[1:], buckets)):
            fail(f"{where} histogram {base}: buckets not cumulative: "
                 f"{buckets}")
        if not buckets or not counts or buckets[-1] != counts[0]:
            fail(f"{where} histogram {base}: le=+Inf bucket "
                 f"{buckets[-1] if buckets else None} != _count "
                 f"{counts[0] if counts else None}")
    if not counters:
        fail(f"{where} exposes no counters at all")
    return counters


QUANTILE_RE = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)_quantile\{quantile="([^"]+)"\} (\S+)$')
BUCKET_RE = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)_bucket\{le="([^"]+)"\} (\S+)$')


def check_quantiles(text, where):
    """Each histogram's _quantile values must be non-decreasing in q,
    and each must lie between the le edge before the first bucket whose
    cumulative count reaches q * _count and that bucket's le; fail()
    naming @p where otherwise. @return the number of histograms
    checked."""
    buckets, quantiles, counts = {}, {}, {}
    for line in text.splitlines():
        match = BUCKET_RE.match(line)
        if match:
            base, le, value = match.groups()
            buckets.setdefault(base, []).append((float(le), float(value)))
            continue
        match = QUANTILE_RE.match(line)
        if match:
            base, q, value = match.groups()
            quantiles.setdefault(base, []).append((float(q), float(value)))
            continue
        name, _, value = line.partition(" ")
        if name.endswith("_count"):
            counts[name[:-len("_count")]] = float(value)
    checked = 0
    for base, series in quantiles.items():
        count = counts.get(base)
        if base not in buckets or count is None:
            fail(f"{where} histogram {base}: _quantile series without "
                 "its buckets or _count")
        if count == 0:
            continue
        series.sort()
        values = [v for _, v in series]
        if any(b < a for a, b in zip(values, values[1:])):
            fail(f"{where} histogram {base}: quantiles decrease in q: "
                 f"{series}")
        for q, value in series:
            lower = float("-inf")
            for le, cumulative in buckets[base]:
                if cumulative >= q * count:
                    break
                lower = le
            if not lower <= value <= le:
                fail(f"{where} histogram {base}: quantile {q} = {value} "
                     f"outside its bucket [{lower}, {le}]")
        checked += 1
    return checked
