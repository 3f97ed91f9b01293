#!/usr/bin/env python3
"""Validate a Chrome trace-event file produced by `nestql run --trace`.

Usage: check_trace.py TRACE.json [--min-domains N] [--max-domains N]
                      [--require-phase NAME]... [--min-requests N]

Checks, in order:
  - the document parses and has the {"traceEvents": [...]} shape;
  - every event carries name/cat/ph/ts/pid/tid with sane types;
  - every complete event (ph == "X") carries a non-negative dur;
  - phase spans exist, and each --require-phase NAME is present;
  - at least one operator span exists;
  - with --min-requests N, at least N request spans (cat == "request",
    emitted by `nestql serve`) exist, each naming its op in args;
  - spans cover >= --min-domains distinct tids (counting all categories;
    under --jobs N the morsel spans are what spread across domains);
  - with --max-domains N, spans cover at most N distinct tids (a query
    whose probes stay under the executor's row gate runs on one domain
    whatever --jobs says).

Exit 0 when the trace is well-formed, 1 with a FAIL line otherwise.
The checker is schema-only by design: timings vary per host, structure
must not.
"""

import argparse
import json
import sys

REQUIRED_KEYS = {"name", "cat", "ph", "ts", "pid", "tid"}


def fail(msg):
    print(f"FAIL: {msg}")
    return 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("trace")
    ap.add_argument("--min-domains", type=int, default=1)
    ap.add_argument("--max-domains", type=int, default=None)
    ap.add_argument("--require-phase", action="append", default=[])
    ap.add_argument("--min-requests", type=int, default=0)
    args = ap.parse_args()

    try:
        doc = json.load(open(args.trace))
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"{args.trace}: not readable JSON: {e}")

    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return fail("traceEvents missing, not a list, or empty")

    cats = {}
    tids = set()
    phases = set()
    operators = set()
    requests = []
    for i, e in enumerate(events):
        missing = REQUIRED_KEYS - set(e)
        if missing:
            return fail(f"event {i} missing keys {sorted(missing)}: {e}")
        if not isinstance(e["ts"], (int, float)):
            return fail(f"event {i}: non-numeric ts {e['ts']!r}")
        if e["ph"] == "X":
            if not isinstance(e.get("dur"), (int, float)) or e["dur"] < 0:
                return fail(f"event {i}: X event without sane dur: {e}")
        cats[e["cat"]] = cats.get(e["cat"], 0) + 1
        if e["ph"] != "M":
            tids.add(e["tid"])
        if e["cat"] == "phase":
            phases.add(e["name"])
        if e["cat"] == "operator":
            operators.add(e["name"])
        if e["cat"] == "request":
            args_op = (e.get("args") or {}).get("op")
            if args_op != e["name"]:
                return fail(
                    f"request span {i} args.op {args_op!r} != name {e['name']!r}"
                )
            requests.append(e["name"])

    if not phases:
        return fail("no phase spans")
    for name in args.require_phase:
        if name not in phases:
            return fail(f"required phase {name!r} absent (have {sorted(phases)})")
    if not operators:
        return fail("no operator spans")
    if len(requests) < args.min_requests:
        return fail(
            f"only {len(requests)} request span(s), need >= {args.min_requests}"
        )
    if len(tids) < args.min_domains:
        return fail(
            f"only {len(tids)} distinct domain tid(s), need >= {args.min_domains}"
        )

    if args.max_domains is not None and len(tids) > args.max_domains:
        return fail(
            f"{len(tids)} distinct domain tids, need <= {args.max_domains}"
        )

    print(
        f"ok: {len(events)} events, cats {dict(sorted(cats.items()))}, "
        f"{len(tids)} domain(s), phases {sorted(phases)}, "
        f"operators {sorted(operators)}"
        + (f", {len(requests)} request span(s)" if requests else "")
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
