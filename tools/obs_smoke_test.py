#!/usr/bin/env python3
"""End-to-end smoke test for ofc-sim's observability surface.

Drives the built CLI binary through the telemetry paths CI cares about:

  1. a scraped run with SLOs + flight recorder writes timeline/health/flight
     JSON that parses and passes tools/check_timeline.py's structural checks;
  2. unwritable output paths (a missing directory, and /dev/full where it
     exists, which opens but fails the write) fail loudly — nonzero exit and
     a stderr line naming the path — for every artifact flag (never a silent
     exit 0);
  3. the negative post-mortem path: --inject-breach-at trips a SIM_ASSERT and
     --dump-on-assert captures a flight dump naming the breach, with the
     process exiting nonzero;
  4. injected faults reach the flight dump: a --crash-node-at run records the
     fault_inject/fault_heal pair next to the node_crash/node_restart it
     caused;
  5. malformed or out-of-range numeric flags, names outside a choice list and
     a bare switch given a value exit nonzero with a message naming the flag
     (never a crash, never a silent empty run);
  6. the shipped CLI reproduces the in-process recovery golden: the run
     tests/golden_test.cpp pins (scrubber quarantines, then a node crash)
     writes a --metrics-json byte-identical to
     tests/testdata/goldens/recovery_metrics.json;
  7. --scrub-interval-s without a cache cluster (--mode=owk-swift) exits 1
     with a message naming the flag;
  8. a fault plan that crashes a node in a mode without a cache cluster
     exits nonzero saying no cluster is wired (not a range error).

Usage: obs_smoke_test.py <path-to-ofc-sim> [--keep-artifacts DIR]
Exit status: 0 clean, 1 failure, 2 usage error.
"""

import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TESTDATA = os.path.join(REPO, "tests", "testdata")

SLO_SPEC = ("warm=lat:ofc.platform.total_ms:p99:250;"
            "shed=rate:ofc.overload.shed/ofc.platform.invocations:0.005")

_failures = []


def fail(msg):
    _failures.append(msg)
    print(f"obs_smoke_test: FAIL: {msg}", file=sys.stderr)


def run(binary, args, timeout=300):
    return subprocess.run([binary] + args, capture_output=True, text=True,
                          timeout=timeout)


def check_scraped_run(binary, outdir):
    timeline = os.path.join(outdir, "timeline.json")
    health = os.path.join(outdir, "health.json")
    flight = os.path.join(outdir, "flight.json")
    proc = run(binary, [
        "--mode=ofc", "--duration-min=5",
        "--scrape-interval-s=10", f"--timeline-json={timeline}",
        f"--slo={SLO_SPEC}", f"--health-json={health}",
        "--flight-recorder", f"--flight-json={flight}",
    ])
    if proc.returncode != 0:
        fail(f"scraped run exited {proc.returncode}: {proc.stderr.strip()}")
        return
    checker = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "check_timeline.py")
    result = subprocess.run(
        [sys.executable, checker, f"--timeline={timeline}",
         f"--health={health}", f"--flight={flight}", "--min-windows=5",
         "--expect-counter=ofc.platform.invocations"],
        capture_output=True, text=True, timeout=60)
    if result.returncode != 0:
        fail(f"check_timeline rejected the artifacts:\n{result.stderr}")


def check_unwritable_outputs(binary):
    paths = ["/nonexistent-ofc-dir/out.json"]
    if os.path.exists("/dev/full"):
        paths.append("/dev/full")
    for bad in paths:
        for flag in ("--metrics-json", "--metrics-csv", "--trace-json",
                     "--timeline-json", "--health-json", "--flight-json"):
            proc = run(binary, ["--mode=ofc", "--duration-min=1",
                                f"{flag}={bad}"])
            if proc.returncode == 0:
                fail(f"{flag}={bad} exited 0; expected a loud failure")
            if bad not in proc.stderr:
                fail(f"{flag}={bad}: stderr does not name the unwritable "
                     f"path: {proc.stderr.strip()!r}")


def check_breach_dump(binary, outdir):
    dump = os.path.join(outdir, "breach_dump.json")
    proc = run(binary, ["--mode=ofc", "--duration-min=2",
                        "--flight-recorder", "--inject-breach-at=30",
                        f"--dump-on-assert={dump}"])
    if proc.returncode == 0:
        fail("--inject-breach-at run exited 0; the seeded breach must abort")
    if not os.path.exists(dump):
        fail("--dump-on-assert produced no dump file for the seeded breach")
        return
    try:
        with open(dump, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except ValueError as e:
        fail(f"breach dump is not valid JSON: {e}")
        return
    if "injected invariant breach" not in doc.get("reason", ""):
        fail(f"breach dump reason does not name the breach: "
             f"{doc.get('reason')!r}")
    if not doc.get("events"):
        fail("breach dump carries no flight events (no causal chain)")


def check_fault_records(binary, outdir):
    flight = os.path.join(outdir, "fault_flight.json")
    proc = run(binary, ["--duration-min=3", "--pretrain=50",
                        "--crash-node-at=1:60:30", "--flight-recorder=100000",
                        f"--flight-json={flight}"])
    if proc.returncode != 0:
        fail(f"fault run exited {proc.returncode}: {proc.stderr.strip()}")
        return
    with open(flight, "r", encoding="utf-8") as f:
        kinds = {event["kind"] for event in json.load(f)["events"]}
    for kind in ("fault_inject", "fault_heal", "node_crash", "node_restart"):
        if kind not in kinds:
            fail(f"--crash-node-at flight dump has no {kind} record")


def check_bad_numeric_flags(binary):
    for arg in ("--workers=abc", "--workers=0", "--duration-min=-3",
                "--duration-min=5x", "--interval-s=0", "--seed=-1",
                "--pretrain=", "--queue-deadline-s=nan",
                "--queue-deadline-s=1e300", "--crash-node-at=1:nan",
                "--crash-node-at=1:60x", "--mode=bogus", "--profile=x",
                "--arrivals=x", "--progress=1"):
        try:
            proc = run(binary, [arg], timeout=60)
        except subprocess.TimeoutExpired:
            fail(f"{arg} still running after 60 s; expected a prompt exit")
            continue
        flag = arg.split("=", 1)[0]
        if proc.returncode <= 0:
            fail(f"{arg} exited {proc.returncode}; expected a nonzero exit "
                 f"(negative = killed by a signal)")
        if flag not in proc.stderr:
            fail(f"{arg}: stderr does not name the flag: "
                 f"{proc.stderr.strip()!r}")


def check_recovery_golden(binary, outdir):
    metrics = os.path.join(outdir, "recovery_metrics.json")
    plan = os.path.join(TESTDATA, "fault_plans", "valid",
                        "quarantine_and_crash.json")
    proc = run(binary, ["--duration-min=6", "--scrub-interval-s=5",
                        f"--fault-plan={plan}", f"--metrics-json={metrics}"])
    if proc.returncode != 0:
        fail(f"recovery run exited {proc.returncode}: {proc.stderr.strip()}")
        return
    golden = os.path.join(TESTDATA, "goldens", "recovery_metrics.json")
    with open(metrics, "rb") as f, open(golden, "rb") as g:
        if f.read() != g.read():
            fail("the CLI's recovery --metrics-json differs from "
                 "tests/testdata/goldens/recovery_metrics.json; the in-process "
                 "golden and the shipped CLI have drifted apart")


def check_scrubber_needs_cluster(binary):
    proc = run(binary, ["--mode=owk-swift", "--scrub-interval-s=5"])
    if proc.returncode != 1:
        fail(f"--mode=owk-swift --scrub-interval-s=5 exited "
             f"{proc.returncode}; expected 1")
    if "--scrub-interval-s needs a cache cluster" not in proc.stderr:
        fail(f"--mode=owk-swift --scrub-interval-s=5: stderr does not say the "
             f"scrubber needs a cache cluster: {proc.stderr.strip()!r}")


def check_fault_plan_needs_cluster(binary):
    proc = run(binary, ["--mode=owk-swift", "--crash-node-at=0:10"])
    if proc.returncode == 0:
        fail("--mode=owk-swift --crash-node-at=0:10 exited 0; expected nonzero")
    if "no cluster is wired" not in proc.stderr:
        fail(f"--mode=owk-swift --crash-node-at=0:10: stderr does not say no "
             f"cluster is wired: {proc.stderr.strip()!r}")


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    binary = sys.argv[1]
    if not os.path.exists(binary):
        print(f"obs_smoke_test: no such binary: {binary}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="ofc-obs-smoke-") as outdir:
        check_scraped_run(binary, outdir)
        check_unwritable_outputs(binary)
        check_breach_dump(binary, outdir)
        check_fault_records(binary, outdir)
        check_bad_numeric_flags(binary)
        check_recovery_golden(binary, outdir)
        check_scrubber_needs_cluster(binary)
        check_fault_plan_needs_cluster(binary)
    if _failures:
        print(f"obs_smoke_test: {len(_failures)} failure(s)", file=sys.stderr)
        return 1
    print("obs_smoke_test: all observability CLI paths behave")
    return 0


if __name__ == "__main__":
    sys.exit(main())
