#!/usr/bin/env python3
"""Compare a BENCH_<suite>.json artifact against a baseline artifact.

Usage: check_regression.py [--advisory] CURRENT.json [BASELINE.json]

Exits non-zero when a watched experiment regressed by more than the
threshold against the baseline. When the baseline file is missing the
check is skipped (exit 0) so the first run on a fresh branch — or a run
where the previous artifact could not be downloaded — does not fail.
A missing CURRENT file likewise warns and passes, so an optional bench
stage that produced nothing does not masquerade as a regression.

With --advisory, timing comparisons print WARN instead of FAIL and never
affect the exit status; the structural bloom invariants (which hold on
any hardware) are still enforced. Use --advisory when comparing against
a committed seed baseline from a different machine class, where absolute
ns/run numbers are trajectory hints rather than gates.

Only same-machine comparisons are meaningful for absolute timings, so
this is intended to compare artifacts produced by the same CI runner
class (the previous run on main vs. the current run). The bloom section
is additionally validated structurally: the dangling-heavy configurations
must actually prune, whatever the hardware does to the timings.
"""

import json
import math
import sys

# Headline experiments whose ns/run trajectory gates the build: the
# flatten-to-semijoin pipeline and the hash nest-join, the two operators
# the paper's rewrites lean on.
WATCHED = ["E1-flatten-semijoin", "E2-hash-nestjoin"]
THRESHOLD = 1.25  # fail when current > baseline * THRESHOLD


def ns_per_run(doc):
    out = {}
    for exp in doc.get("experiments", []):
        out[exp["name"]] = exp.get("ns_per_run")
    return out


def bloom_rows(doc):
    return {
        (e["catalog"], e["query"], e["jobs"]): e for e in doc.get("bloom", [])
    }


def usable(x):
    return isinstance(x, (int, float)) and not math.isnan(x) and x > 0


def validate_bloom(doc):
    """Structural invariants that hold on any hardware."""
    rows = doc.get("bloom", [])
    if not rows:
        print("FAIL: artifact has no bloom section")
        return False
    ok = True
    for e in rows:
        where = f"bloom[{e['catalog']}/{e['query']}/jobs={e['jobs']}]"
        if e["bloom_checks"] <= 0:
            print(f"FAIL: {where}: no bloom checks recorded")
            ok = False
        elif e["catalog"] == "all-dangling":
            # Nearly every probe key is absent from the build side, so the
            # filter must prune nearly everything (false positives only).
            rate = e["bloom_prunes"] / e["bloom_checks"]
            if rate < 0.9:
                print(f"FAIL: {where}: prune rate {rate:.2f} < 0.9")
                ok = False
            else:
                print(
                    f"ok: {where}: pruned {e['bloom_prunes']}/{e['bloom_checks']}"
                    f" ({rate:.1%}), query speedup {e['speedup']:.2f}x,"
                    f" operator speedup {e['operator_speedup']:.2f}x"
                )
    return ok


def validate_shred(doc):
    """Structural invariants of the nest-join vs shredding case: the
    query must genuinely have shredded (a fallback would time the nest
    join against itself), the flat-query count must be the bounded
    decomposition the backend promises, and the shredded run must not be
    pathologically slower than the nest join — true on any hardware."""
    shred = doc.get("shred")
    if not shred:
        print("FAIL: artifact has no shred section")
        return False
    ok = True
    if not shred.get("shredded"):
        print("FAIL: shred: bench query fell back to nest-join execution")
        ok = False
    if shred.get("flat_queries", 0) < 2:
        print(f"FAIL: shred: flat_queries = {shred.get('flat_queries')} < 2")
        ok = False
    nest, sh = shred.get("nest_ms"), shred.get("shred_ms")
    if usable(nest) and usable(sh):
        if sh > 25 * nest:
            print(
                f"FAIL: shred: {sh:.2f} ms is more than 25x the nest join"
                f" ({nest:.2f} ms)"
            )
            ok = False
        else:
            print(
                f"ok: shred: nest join {nest:.2f} ms, shredding {sh:.2f} ms"
                f" over {shred.get('flat_queries')} flat queries"
                f" ({shred.get('ratio', float('nan')):.2f}x)"
            )
    return ok


def validate_server(doc):
    """Structural invariants of the server cache tiers: the warm tiers
    must actually have hit their caches, and a result-cache hit (a
    lookup, no execution) must not be slower than a cold compile +
    execute — true on any hardware."""
    srv = doc.get("server")
    if not srv:
        print("FAIL: artifact has no server section")
        return False
    ok = True
    if srv.get("plan_hits", 0) <= 0:
        print("FAIL: server: warm-plan tier recorded no plan-cache hits")
        ok = False
    if srv.get("result_hits", 0) <= 0:
        print("FAIL: server: warm-result tier recorded no result-cache hits")
        ok = False
    cold, warm_result = srv.get("cold_ms"), srv.get("warm_result_ms")
    if usable(cold) and usable(warm_result):
        if warm_result > cold:
            print(
                f"FAIL: server: result-cache hit ({warm_result:.3f} ms) slower"
                f" than cold request ({cold:.3f} ms)"
            )
            ok = False
        else:
            print(
                f"ok: server: cold {cold:.3f} ms, warm-plan"
                f" {srv.get('warm_plan_ms', float('nan')):.3f} ms, warm-result"
                f" {warm_result:.3f} ms"
                f" ({srv.get('result_speedup', float('nan')):.1f}x)"
            )
    # Tail-latency fields are newer than some committed baselines, so
    # their absence is tolerated; when present they must be internally
    # consistent — quantiles ordered and the instrumented run attributed
    # to a real operator — which holds on any hardware.
    p50, p95, p99 = (
        srv.get("request_p50_us"),
        srv.get("request_p95_us"),
        srv.get("request_p99_us"),
    )
    if usable(p50) or usable(p95) or usable(p99):
        if not (usable(p50) and usable(p95) and usable(p99)):
            print(f"FAIL: server: partial latency quantiles (p50={p50} p95={p95} p99={p99})")
            ok = False
        elif not (p50 <= p95 <= p99):
            print(
                f"FAIL: server: quantiles out of order: p50 {p50:.0f} us,"
                f" p95 {p95:.0f} us, p99 {p99:.0f} us"
            )
            ok = False
        elif not srv.get("hot_op"):
            print("FAIL: server: instrumented run attributed no hot operator")
            ok = False
        else:
            print(
                f"ok: server: warm-plan p50 {p50:.0f} us, p95 {p95:.0f} us,"
                f" p99 {p99:.0f} us over {srv.get('latency_samples')} requests,"
                f" hottest operator {srv.get('hot_op')}"
            )
    return ok


def validate_vector(doc):
    """Structural invariants of the columnar-engine case: every benched
    plan must actually run vectorized, with no batch falling back to the
    row closures and no join (hash, sort-merge, band or nested loop)
    running on rows (a silently row-bound plan would still "pass" on
    timings alone), and batch-size sensitivity must have been recorded."""
    rows = doc.get("vector")
    if not rows:
        print("FAIL: artifact has no vector section")
        return False
    ok = True
    for e in rows:
        where = f"vector[{e['query']}]"
        frac = e.get("vectorized_fraction")
        if not usable(frac):
            print(f"FAIL: {where}: plan has no vectorized operators")
            ok = False
            continue
        fell = e.get("kernel_fallbacks")
        if fell is None:
            print(f"FAIL: {where}: kernel fallbacks not recorded")
            ok = False
            continue
        if fell > 0:
            print(f"FAIL: {where}: {fell} batch(es) fell back to row closures")
            ok = False
            continue
        row_ops = e.get("row_operators")
        if row_ops is None:
            print(f"FAIL: {where}: row-bound operators not recorded")
            ok = False
            continue
        # hash-nestjoin(build=left) is the one keyed join built on rows; a
        # nested loop means a case's join was not planned keyed at all
        # (a forced band that fell back to nl-*, say)
        row_joins = [
            op
            for op in row_ops
            if op.startswith(("hash-", "merge-", "nl-"))
            and "build=left" not in op
        ]
        if row_joins:
            print(f"FAIL: {where}: joins ran on rows: {row_joins}")
            ok = False
            continue
        widths = e.get("batch_sensitivity") or []
        if len(widths) < 3:
            print(f"FAIL: {where}: batch-size sensitivity sweep missing")
            ok = False
            continue
        print(
            f"ok: {where}: {e['vector_ms']:.2f} ms,"
            f" {frac:.0%} of operators vectorized, no fallbacks,"
            f" widths {[w['batch'] for w in widths]}"
        )
    return ok


def compare(current, baseline, advisory=False):
    ok = True
    bad = "WARN" if advisory else "FAIL"
    cur_ns, base_ns = ns_per_run(current), ns_per_run(baseline)
    for name in WATCHED:
        c, b = cur_ns.get(name), base_ns.get(name)
        if not usable(c) or not usable(b):
            print(f"skip: {name}: no usable ns/run estimate (cur={c} base={b})")
            continue
        ratio = c / b
        verdict = bad if ratio > THRESHOLD else "ok"
        print(f"{verdict}: {name}: {b:.0f} -> {c:.0f} ns/run ({ratio:.2f}x)")
        if ratio > THRESHOLD and not advisory:
            ok = False
    cur_bloom, base_bloom = bloom_rows(current), bloom_rows(baseline)
    for key, base_e in base_bloom.items():
        cur_e = cur_bloom.get(key)
        if cur_e is None:
            continue
        c, b = cur_e.get("bloom_ms"), base_e.get("bloom_ms")
        if not usable(c) or not usable(b):
            continue
        ratio = c / b
        where = "bloom[%s/%s/jobs=%d]" % key
        verdict = bad if ratio > THRESHOLD else "ok"
        print(f"{verdict}: {where}: {b:.1f} -> {c:.1f} ms ({ratio:.2f}x)")
        if ratio > THRESHOLD and not advisory:
            ok = False
    cur_srv, base_srv = current.get("server") or {}, baseline.get("server") or {}
    for field in ("cold_ms", "warm_plan_ms", "warm_result_ms"):
        c, b = cur_srv.get(field), base_srv.get(field)
        if not usable(c) or not usable(b):
            continue
        ratio = c / b
        verdict = bad if ratio > THRESHOLD else "ok"
        print(f"{verdict}: server.{field}: {b:.3f} -> {c:.3f} ms ({ratio:.2f}x)")
        if ratio > THRESHOLD and not advisory:
            ok = False
    # Tail-latency watch: always advisory. p95 is a single-order
    # statistic over a couple hundred requests, so one scheduler hiccup
    # moves it — worth a WARN in the log, never a gate. Absent on older
    # baselines, in which case there is nothing to compare.
    c, b = cur_srv.get("request_p95_us"), base_srv.get("request_p95_us")
    if usable(c) and usable(b):
        ratio = c / b
        verdict = "WARN" if ratio > THRESHOLD else "ok"
        print(
            f"{verdict}: server.request_p95_us: {b:.0f} -> {c:.0f} us"
            f" ({ratio:.2f}x, advisory)"
        )
    cur_vec = {e["query"]: e for e in current.get("vector") or []}
    base_vec = {e["query"]: e for e in baseline.get("vector") or []}
    for qname, base_e in base_vec.items():
        cur_e = cur_vec.get(qname)
        if cur_e is None:
            continue
        c, b = cur_e.get("vector_ms"), base_e.get("vector_ms")
        if not usable(c) or not usable(b):
            continue
        ratio = c / b
        verdict = bad if ratio > THRESHOLD else "ok"
        print(f"{verdict}: vector[{qname}]: {b:.1f} -> {c:.1f} ms ({ratio:.2f}x)")
        if ratio > THRESHOLD and not advisory:
            ok = False
    cur_sh, base_sh = current.get("shred") or {}, baseline.get("shred") or {}
    c, b = cur_sh.get("shred_ms"), base_sh.get("shred_ms")
    if usable(c) and usable(b):
        ratio = c / b
        verdict = bad if ratio > THRESHOLD else "ok"
        print(f"{verdict}: shred.shred_ms: {b:.2f} -> {c:.2f} ms ({ratio:.2f}x)")
        if ratio > THRESHOLD and not advisory:
            ok = False
    return ok


def main():
    argv = sys.argv[1:]
    advisory = "--advisory" in argv
    argv = [a for a in argv if a != "--advisory"]
    if not argv:
        print(__doc__)
        return 2
    try:
        current = json.load(open(argv[0]))
    except FileNotFoundError:
        print(f"skip: no current artifact at {argv[0]}; nothing to check")
        return 0
    ok = validate_bloom(current)
    ok = validate_shred(current) and ok
    ok = validate_vector(current) and ok
    ok = validate_server(current) and ok
    if len(argv) > 1:
        try:
            baseline = json.load(open(argv[1]))
        except FileNotFoundError:
            print(f"skip: no baseline at {argv[1]}; regression gate skipped")
            return 0 if ok else 1
        ok = compare(current, baseline, advisory=advisory) and ok
    else:
        print("skip: no baseline given; regression gate skipped")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
