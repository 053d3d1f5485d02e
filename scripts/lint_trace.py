#!/usr/bin/env python3
"""Strict linter for the chrome://tracing JSON obs::Tracer exports.

Usage: scripts/lint_trace.py <file> [<file> ...]   ("-" reads stdin)

Validates the contract CI smoke jobs rely on (DESIGN.md §9 and §15):

  * the file parses as JSON with a `traceEvents` list;
  * every event carries `name`, `ph`, and `pid`, with `ph` one of
    M / X / i / s / f;
  * X (duration) events carry numeric `ts`, a non-negative `dur`, and a
    `tid`; i (instant) events carry `ts` and a scope `s`; f (flow end)
    events carry `bp` == "e";
  * timestamps are monotonic (non-decreasing) within each (pid, tid) lane —
    the store appends chronologically, so regressions mean clock misuse;
  * every s/f flow pair matches exactly once by (pid, id), with the "f"
    endpoint not earlier than its "s" source;
  * causal structure (events with a numeric `args.span`): a closed child
    span lies inside its closed parent span's interval (same pid, any
    lane — installs parent under the wire-lane flush, hops under their
    send), and every non-zero `parent` / `from_span` / `to_span` reference
    resolves to a recorded span or instant unless the event is flagged
    `orphan`;
  * every pid that carries events has `elmo_tracer_stats` accounting
    metadata, consistent with what it holds: `spans` equals the X count,
    `instants` the i count, and `flows` both the s and the f count; and
    `dropped` > 0 is only legal when the buffer filled (recorded events ==
    max_events).

Exit status 0 when every file is clean, 1 otherwise.
"""

import json
import sys

VALID_PHASES = {"M", "X", "i", "s", "f"}

# %.3f microsecond timestamps round each endpoint independently; a closed
# child may overhang its parent by up to one rounding step per endpoint.
TS_EPS = 0.002


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def lint(path, text):
    errors = []

    def err(i, msg):
        errors.append(f"{path}: event #{i}: {msg}")

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as ex:
        return [f"{path}: not valid JSON: {ex}"]
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        return [f"{path}: missing traceEvents list"]

    tracer_stats = {}       # pid -> args of elmo_tracer_stats
    counts = {}             # pid -> {"X": n, "i": n, "s": n, "f": n}
    last_ts = {}            # (pid, tid) -> last seen ts
    spans = {}              # (pid, span_id) -> (index, ts, end or None)
    flow_ends = {}          # (pid, id) -> {"s": [...], "f": [...]} of (i, ts)
    deferred = []           # causal checks resolved after the full pass

    for i, ev in enumerate(doc["traceEvents"]):
        if not isinstance(ev, dict):
            err(i, "event is not an object")
            continue
        for field in ("name", "ph", "pid"):
            if field not in ev:
                err(i, f"missing required field {field!r}")
        ph = ev.get("ph")
        if ph not in VALID_PHASES:
            err(i, f"unknown phase {ph!r}")
            continue
        pid = ev.get("pid")

        if ph == "M":
            if ev.get("name") == "elmo_tracer_stats":
                tracer_stats[pid] = ev.get("args")
            continue

        if not is_number(ev.get("ts")):
            err(i, f"{ph} event lacks a numeric ts")
            continue
        ts = ev["ts"]
        counts.setdefault(pid, {"X": 0, "i": 0, "s": 0, "f": 0})
        args = ev.get("args") if isinstance(ev.get("args"), dict) else {}

        if ph == "X":
            counts[pid]["X"] += 1
            if "tid" not in ev:
                err(i, "X event lacks a tid")
            if not is_number(ev.get("dur")) or ev["dur"] < 0:
                err(i, "X event lacks a non-negative dur")
            elif is_number(args.get("span")):
                end = None if args.get("open") else ts + ev["dur"]
                spans[(pid, args["span"])] = (i, ts, end)
                if is_number(args.get("parent")) and args["parent"] != 0:
                    deferred.append(("enclose", i, pid, args["parent"],
                                     ts, end, bool(args.get("orphan"))))
        elif ph == "i":
            counts[pid]["i"] += 1
            if ev.get("s") not in ("g", "p", "t"):
                err(i, f"instant event has bad scope {ev.get('s')!r}")
            if is_number(args.get("span")):
                spans[(pid, args["span"])] = (i, ts, ts)
        elif ph in ("s", "f"):
            counts[pid][ph] += 1
            if not is_number(ev.get("id")):
                err(i, f"{ph} flow event lacks a numeric id")
                continue
            if ph == "f" and ev.get("bp") != "e":
                err(i, 'f flow event lacks bp == "e"')
            ends = flow_ends.setdefault((pid, ev["id"]), {"s": [], "f": []})
            ends[ph].append((i, ts))
            if ph == "s":  # both halves carry the same args; check once
                for field in ("from_span", "to_span"):
                    if is_number(args.get(field)) and args[field] != 0:
                        deferred.append(("resolve", i, pid, args[field],
                                         field, bool(args.get("orphan"))))

        lane = (pid, ev.get("tid"))
        if lane in last_ts and ts < last_ts[lane]:
            err(i, f"ts regressed in lane pid={lane[0]} tid={lane[1]} "
                   f"({last_ts[lane]} then {ts})")
        last_ts[lane] = ts

    # --- deferred causal checks ---------------------------------------------
    for check in deferred:
        if check[0] == "enclose":
            _, i, pid, parent, ts, end, orphan = check
            hit = spans.get((pid, parent))
            if hit is None:
                if not orphan:
                    err(i, f"span parent {parent} not recorded on pid {pid} "
                           f"and event not flagged orphan")
                continue
            _, pts, pend = hit
            if ts < pts - TS_EPS:
                err(i, f"child span starts at {ts} before its parent ({pts})")
            if end is not None and pend is not None and end > pend + TS_EPS:
                err(i, f"child span ends at {end} after its parent ({pend})")
        else:
            _, i, pid, span, field, orphan = check
            if (pid, span) not in spans and not orphan:
                err(i, f"flow {field} {span} not recorded on pid {pid} "
                       f"and flow not flagged orphan")

    for (pid, fid), ends in flow_ends.items():
        if len(ends["s"]) != 1 or len(ends["f"]) != 1:
            errors.append(
                f"{path}: flow id {fid} on pid {pid} has {len(ends['s'])} "
                f"source(s) and {len(ends['f'])} end(s); want exactly 1+1")
            continue
        if ends["f"][0][1] < ends["s"][0][1]:
            errors.append(
                f"{path}: flow id {fid} on pid {pid} ends at "
                f"{ends['f'][0][1]} before its source {ends['s'][0][1]}")

    # --- per-pid accounting --------------------------------------------------
    for pid, n in counts.items():
        trc = tracer_stats.get(pid)
        if not isinstance(trc, dict):
            errors.append(f"{path}: pid {pid} carries events but no "
                          f"elmo_tracer_stats metadata")
            continue
        clean = True
        for field in ("spans", "instants", "flows", "orphans", "dropped",
                      "max_events"):
            if not is_number(trc.get(field)):
                errors.append(
                    f"{path}: elmo_tracer_stats lacks numeric {field!r}")
                clean = False
        if not clean:
            continue
        for field, have in (("spans", n["X"]), ("instants", n["i"])):
            if trc[field] != have:
                errors.append(
                    f"{path}: elmo_tracer_stats says {trc[field]} "
                    f"{field}, pid {pid} holds {have}")
        for ph in ("s", "f"):
            if trc["flows"] != n[ph]:
                errors.append(
                    f"{path}: elmo_tracer_stats says {trc['flows']} "
                    f"flows, pid {pid} holds {n[ph]} {ph!r} events")
        recorded = trc["spans"] + trc["instants"] + trc["flows"]
        if recorded > trc["max_events"]:
            errors.append(
                f"{path}: pid {pid} holds {recorded} events, exceeding the "
                f"declared bound {trc['max_events']}")
        if trc["dropped"] > 0 and recorded != trc["max_events"]:
            errors.append(
                f"{path}: pid {pid} dropped {trc['dropped']} events but "
                f"the buffer never filled ({recorded}/{trc['max_events']})")

    if not counts and not tracer_stats:
        errors.append(f"{path}: trace holds no events and no accounting")
    return errors


def main(argv):
    paths = argv[1:] or ["-"]
    failed = False
    for path in paths:
        text = sys.stdin.read() if path == "-" else open(path).read()
        errors = lint("<stdin>" if path == "-" else path, text)
        for e in errors:
            print(e, file=sys.stderr)
        if errors:
            failed = True
        else:
            doc = json.loads(text)
            print(f"{path}: OK ({len(doc['traceEvents'])} trace events)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
