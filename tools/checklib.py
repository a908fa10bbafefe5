"""Shared harness of the gest validators (tools/check_*.py and
tools/lineage_to_dot.py).

  * fail() reports "<tool>: FAIL: <message>" and exits 1; when a
    scratch directory was registered with keep_scratch() and
    GEST_CHECK_ARTIFACT_DIR is set, the scratch is copied there first
    for post-mortem;
  * get() / get_json() fetch one URL of a live run's telemetry server;
  * wait_for_listen() reads a running gest's bound server address from
    its status.json heartbeat;
  * SseReader drains the /events stream over a raw socket;
  * run_gest() runs the gest binary and fails on an unexpected exit.

The validators run as scripts, so their directory — this one — is on
sys.path and `import checklib` resolves here.
"""

import json
import os
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
