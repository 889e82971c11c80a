#!/usr/bin/env python3
"""Benchmark of the dedup engine's entry points; run it from the repo root:

    python3 perfbench/run.py --workload pages_full --seed 7 --seconds 35 \
        --trace 0

Starts the measured process (child.py) in a session of its own, watches it
and prints the result as the last line of stdout: one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).
Per-run samples, stage spans and ``Dataset.stats()`` go to a sidecar file
under ``.perfbench_out/``. See NOTES.md for the workloads and metrics.

A call that raises or fails a check counts as failed. A call that hangs
past the watchdog is killed with the whole process session, counted as
failed, and the result is still printed. Exits non-zero, printing no
result, when the measured process fails before its set-up is done.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

from child import OUT_DIR, WORKLOADS, e2e_metrics

CALL_TIMEOUT_S = 90   # one call (~7 s) or the traced pass (~25 s)
DEADLINE_S = 170      # the whole run, inside the 180 s a run may take
GRACE_S = 5           # for Ray's processes to exit after ray.shutdown()


def session_pids(sid: int) -> list[int]:
    pids = []
    for p in os.listdir("/proc"):
        if p.isdigit():
            try:
                if os.getsid(int(p)) == sid:
                    pids.append(int(p))
            except OSError:
                continue
    return pids


def stop_session(sid: int) -> None:
    """Wait for every process of the session to end, killing what is
    left after the grace period."""
    end = time.monotonic() + GRACE_S
    while session_pids(sid) and time.monotonic() < end:
        time.sleep(0.2)
    if session_pids(sid):
        try:
            os.killpg(sid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for p in session_pids(sid):        # outside the group: kill one by one
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while session_pids(sid):
        time.sleep(0.1)


def read_events(path: str) -> list[dict]:
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except FileNotFoundError:
        return []
    evs = []
    for ln in lines:
        try:
            evs.append(json.loads(ln))
        except json.JSONDecodeError:   # a line cut by a kill
            break
    return evs


def hung(evs: list[dict], t_start: float) -> str | None:
    if time.monotonic() - t_start > DEADLINE_S:
        return f"run deadline of {DEADLINE_S} s"
    starts = [e for e in evs if e["ev"] == "start"]
    dones = [e for e in evs if e["ev"] == "done"]
    if len(starts) > len(dones) and \
            time.monotonic() - starts[-1]["t"] > CALL_TIMEOUT_S:
        return f"call {starts[-1]['i']} ran past {CALL_TIMEOUT_S} s"
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{a.workload}-seed{a.seed}-trace{a.trace}-" \
          f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    events = os.path.join(OUT_DIR, f"{tag}.events.jsonl")
    log = os.path.join(OUT_DIR, f"{tag}.log")
    env = dict(os.environ, RAY_USAGE_STATS_ENABLED="0",
               RAY_DATA_DISABLE_PROGRESS_BARS="1")
    t_start = time.monotonic()
    with open(log, "w") as logf:
        child = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(
                os.path.abspath(__file__)), "child.py"),
             "--workload", a.workload, "--seed", str(a.seed),
             "--seconds", str(a.seconds), "--trace", str(a.trace),
             "--events", events,
             "--sidecar", os.path.join(OUT_DIR, f"{tag}.json")],
            stdout=logf, stderr=subprocess.STDOUT, start_new_session=True,
            env=env)
        why = None
        while child.poll() is None:
            why = hung(read_events(events), t_start)
            if why:
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
                break
            time.sleep(0.5)
        stop_session(child.pid)

    evs = read_events(events)
    with open(log) as f:
        tail = f.read()[-4000:]
    result = next((e["result"] for e in evs if e["ev"] == "result"), None)
    setup = next((e for e in evs if e["ev"] == "setup"), None)
    if result is None and setup is None:
        sys.stderr.write(tail)
        print(f"perfbench: the measured process ended (code "
              f"{child.returncode}) before its set-up was done; log: "
              f"{log}", file=sys.stderr)
        return 1
    if result is None:
        # killed by the watchdog or crashed: every unfinished call failed
        sys.stderr.write(tail)
        print(f"perfbench: {why or 'measured process crashed'}; log: {log}",
              file=sys.stderr)
        starts = [e for e in evs if e["ev"] == "start"]
        dones = [e for e in evs if e["ev"] == "done"]
        attempted = max(len(starts), 1)
        ok = sum(1 for d in dones if d["ok"])
        result = {"correct": False, "attempted": attempted,
                  "failed": attempted - ok,
                  "metrics": {} if a.trace else e2e_metrics(setup, dones)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
