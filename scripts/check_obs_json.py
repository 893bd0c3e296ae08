#!/usr/bin/env python3
"""Validate the observability JSON artifacts emitted by the SSP tools.

    check_obs_json.py trace <ssp-sim --trace output>
    check_obs_json.py metrics <ssp-adapt --metrics output>

Stdlib only (json + sys): CI must not grow dependencies. Exits non-zero
with a message on the first schema violation.
"""

import json
import sys

KNOWN_PHASES = {"i", "X"}
KNOWN_NAMES = {"trigger", "spawn", "prefetch", "retire", "idle", "throttle"}


def fail(msg):
    sys.stderr.write("check_obs_json: %s\n" % msg)
    sys.exit(1)


def check_trace(doc):
    for key in ("traceEvents", "recorded", "dropped"):
        if key not in doc:
            fail("trace missing key %r" % key)
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        fail("traceEvents must be a non-empty list")
    if doc["recorded"] < len(events):
        fail("recorded (%d) < emitted events (%d)" % (doc["recorded"], len(events)))
    last_ts = -1
    for ev in events:
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in ev:
                fail("event missing key %r: %r" % (key, ev))
        if ev["ph"] not in KNOWN_PHASES:
            fail("unknown phase %r" % ev["ph"])
        if ev["name"] not in KNOWN_NAMES:
            fail("unknown event name %r" % ev["name"])
        if ev["ph"] == "X" and "dur" not in ev:
            fail("span event without dur: %r" % ev)
        if ev["ts"] < last_ts:
            fail("events not sorted by ts (%d after %d)" % (ev["ts"], last_ts))
        last_ts = ev["ts"]
    print(
        "trace ok: %d events, %d recorded, %d dropped"
        % (len(events), doc["recorded"], doc["dropped"])
    )


def check_metrics(doc):
    for key in ("counters", "timers_ms"):
        if key not in doc or not isinstance(doc[key], dict):
            fail("metrics missing object %r" % key)
    counters, timers = doc["counters"], doc["timers_ms"]
    for key in ("adapt.runs", "adapt.slices", "adapt.triggers_inserted"):
        if key not in counters:
            fail("counters missing %r" % key)
    if counters["adapt.runs"] != 1:
        fail("adapt.runs should be 1, got %r" % counters["adapt.runs"])
    stage_timers = [k for k in timers if k.startswith("adapt.")]
    verify_timers = [k for k in timers if k.startswith("verify.")]
    if len(stage_timers) < 6:
        fail("expected >= 6 adapt.* stage timers, got %r" % sorted(timers))
    if not verify_timers:
        fail("expected at least one verify.<pass>_ms timer")
    for key, val in timers.items():
        if not isinstance(val, (int, float)) or val < 0:
            fail("timer %r has non-numeric/negative value %r" % (key, val))
    print(
        "metrics ok: %d counters, %d timers (%d verify passes)"
        % (len(counters), len(timers), len(verify_timers))
    )


def main(argv):
    if len(argv) != 3 or argv[1] not in ("trace", "metrics"):
        fail("usage: check_obs_json.py {trace|metrics} <file.json>")
    try:
        with open(argv[2]) as fp:
            doc = json.load(fp)
    except (OSError, ValueError) as err:
        fail("cannot load %s: %s" % (argv[2], err))
    if argv[1] == "trace":
        check_trace(doc)
    else:
        check_metrics(doc)


if __name__ == "__main__":
    main(sys.argv)
