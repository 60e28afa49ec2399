#!/usr/bin/env python3
"""Guard the committed perf trajectory (BENCH_*.json) against regressions.

Each BENCH_*.json at the repo root is a spinscope-bench-trajectory-v1
snapshot (see bench/trajectory.hpp) with four guarded metrics:

  domains_per_sec         higher is better
  peak_rss_bytes          lower is better
  allocs_per_domain       lower is better (exact-ish: deterministic workload)
  alloc_bytes_per_domain  lower is better (exact-ish: deterministic workload)

Usage:
  bench_check.py BASELINE CANDIDATE [BASELINE CANDIDATE ...]
      Compare each candidate measurement against its committed baseline;
      exit non-zero if any metric regresses past its tolerance.
  bench_check.py --self-test
      Verify the checker itself: an injected synthetic regression must be
      detected, an identical candidate must pass.

Wall-clock throughput and RSS get wide tolerances (CI machines are noisy);
the allocation counters are per-domain averages of a deterministic workload,
so they get tight ones.
"""

import json
import sys

SCHEMA = "spinscope-bench-trajectory-v1"
OBSERVER_SCHEMA = "spinscope-bench-observer-v1"
SCALE_SCHEMA = "spinscope-bench-scale-v1"

# metric -> (higher_is_better, relative tolerance)
POLICY = {
    "domains_per_sec": (True, 0.40),
    "peak_rss_bytes": (False, 0.40),
    "allocs_per_domain": (False, 0.10),
    "alloc_bytes_per_domain": (False, 0.10),
    # Multi-process map pass (--procs, DESIGN.md §11): high-water worker RSS
    # reported over the heartbeat channel. Wall-clock noisy, so wide.
    "peak_worker_rss_bytes": (False, 0.50),
}
# Allocation metrics are meaningless without the interposer on both sides.
ALLOC_METRICS = {"allocs_per_domain", "alloc_bytes_per_domain"}
# Metrics only multi-process runs produce: silently skipped when the
# committed baseline predates them or was measured without --procs.
OPTIONAL_METRICS = {"peak_worker_rss_bytes"}

# Constrained-observer accuracy table (BENCH_observer.json, DESIGN.md §14):
# metric -> (higher_is_better, relative tolerance, absolute slack).
# Accuracy metrics are deterministic-ish (same seed, same stream; only libm
# rounding can drift), so they get tight relative tolerances plus a small
# absolute slack that keeps near-zero baselines from amplifying noise.
# Wall throughput is CI-machine noise and gets the usual wide band.
OBSERVER_POLICY = {
    "coverage": (True, 0.05, 0.01),
    "within_25ms_share": (True, 0.05, 0.01),
    "mean_abs_err_ms": (False, 0.25, 0.05),
    "packets_per_sec": (True, 0.50, 0.0),
}

# Scale-sweep flatness gate (spinscope-bench-scale-v1, DESIGN.md §15): the
# sweep measures one campaign per population scale inside one process, fewest
# domains first, so process peak RSS is monotone across rows. Out-of-core
# streaming means the biggest-universe row's peak RSS must stay within this
# factor of the smallest's — campaign state growing with the domain count
# shows up as a blown ratio long before any baseline comparison would drift.
# The measured ratio across a 10x domain range is ~1.02; 1.5 leaves room for
# allocator noise while still catching even a bytes-per-domain-scale leak.
SCALE_FLATNESS_LIMIT = 1.5


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    schema = doc.get("schema")
    if schema == SCHEMA:
        if "metrics" not in doc or not isinstance(doc["metrics"], dict):
            raise ValueError(f"{path}: missing metrics object")
    elif schema == OBSERVER_SCHEMA:
        if "rows" not in doc or not isinstance(doc["rows"], dict):
            raise ValueError(f"{path}: missing rows object")
    elif schema == SCALE_SCHEMA:
        if "rows" not in doc or not isinstance(doc["rows"], list):
            raise ValueError(f"{path}: missing rows array")
    else:
        raise ValueError(
            f"{path}: not a {SCHEMA}, {OBSERVER_SCHEMA} or {SCALE_SCHEMA} document"
        )
    return doc


def compare_observer(baseline, candidate, base_name="baseline", cand_name="candidate"):
    """Row-keyed accuracy table comparison. Returns failure strings."""
    failures = []
    cand_rows = candidate.get("rows", {})
    for row_id, base_row in baseline.get("rows", {}).items():
        cand_row = cand_rows.get(row_id)
        if cand_row is None:
            failures.append(f"{row_id}: row missing from candidate")
            continue
        base_metrics = base_row.get("metrics", {})
        cand_metrics = cand_row.get("metrics", {})
        for metric, (higher_better, rel, slack) in OBSERVER_POLICY.items():
            base = base_metrics.get(metric)
            cand = cand_metrics.get(metric)
            if base is None and cand is None:
                continue
            if base is None or cand is None:
                failures.append(f"{row_id}/{metric}: missing from snapshot")
                continue
            if base <= 0:
                continue  # nothing committed to guard against
            if higher_better:
                ok = cand >= base * (1.0 - rel) - slack
                direction = "worse (lower)"
            else:
                ok = cand <= base * (1.0 + rel) + slack
                direction = "worse (higher)"
            status = "ok" if ok else "REGRESSION"
            print(
                f"  {row_id}/{metric}: {base_name} {base:.6g} -> {cand_name} "
                f"{cand:.6g} (tolerance {rel:.0%} + {slack:g}) [{status}]"
            )
            if not ok:
                failures.append(
                    f"{row_id}/{metric}: {cand:.6g} vs baseline {base:.6g} is "
                    f"{direction} than the {rel:.0%} + {slack:g} tolerance"
                )
    return failures


def compare_scale(baseline, candidate, base_name="baseline", cand_name="candidate"):
    """Scale-sweep comparison: per-row metrics vs the committed row of the
    same scale, plus the intrinsic peak-RSS flatness gate on the candidate
    sweep itself. Returns failure strings."""
    failures = []
    cand_rows = candidate.get("rows", [])
    base_rows = baseline.get("rows", [])

    # Flatness: biggest universe vs smallest, on the fresh measurement.
    measured = [
        r for r in cand_rows
        if r.get("domains", 0) > 0 and r.get("metrics", {}).get("peak_rss_bytes", 0) > 0
    ]
    if len(measured) < 2:
        failures.append("scale sweep: candidate needs >= 2 measured rows")
    else:
        smallest = min(measured, key=lambda r: r["domains"])
        biggest = max(measured, key=lambda r: r["domains"])
        ratio = (
            biggest["metrics"]["peak_rss_bytes"] / smallest["metrics"]["peak_rss_bytes"]
        )
        ok = ratio <= SCALE_FLATNESS_LIMIT
        status = "ok" if ok else "REGRESSION"
        print(
            f"  scale-sweep flatness: peak RSS {smallest['metrics']['peak_rss_bytes']} "
            f"({smallest['domains']} domains) -> {biggest['metrics']['peak_rss_bytes']} "
            f"({biggest['domains']} domains), ratio {ratio:.2f} "
            f"(limit {SCALE_FLATNESS_LIMIT}) [{status}]"
        )
        if not ok:
            failures.append(
                f"scale sweep: peak RSS grew {ratio:.2f}x from {smallest['domains']} to "
                f"{biggest['domains']} domains — campaign state is no longer flat in "
                f"the domain count (limit {SCALE_FLATNESS_LIMIT}x)"
            )

    # Per-row trajectory comparison, keyed by scale.
    cand_by_scale = {r.get("scale"): r for r in cand_rows}
    for base_row in base_rows:
        scale = base_row.get("scale")
        cand_row = cand_by_scale.get(scale)
        if cand_row is None:
            failures.append(f"scale sweep: row for scale {scale} missing from candidate")
            continue
        failures += compare_trajectory(
            base_row, cand_row, base_name, cand_name, label=f"scale:{scale:g}"
        )
    return failures


def compare(baseline, candidate, base_name="baseline", cand_name="candidate"):
    """Returns a list of failure strings (empty = pass)."""
    if baseline.get("schema") != candidate.get("schema"):
        return [
            f"schema mismatch: {baseline.get('schema')} vs {candidate.get('schema')}"
        ]
    if baseline.get("schema") == OBSERVER_SCHEMA:
        return compare_observer(baseline, candidate, base_name, cand_name)
    if baseline.get("schema") == SCALE_SCHEMA:
        return compare_scale(baseline, candidate, base_name, cand_name)
    return compare_trajectory(baseline, candidate, base_name, cand_name)


def compare_trajectory(baseline, candidate, base_name="baseline",
                       cand_name="candidate", label=None):
    """Single trajectory-row comparison (also reused per scale-sweep row)."""
    failures = []
    bench = label if label is not None else baseline.get("bench", "?")
    alloc_ok = baseline.get("alloc_probe", 0) and candidate.get("alloc_probe", 0)
    for metric, (higher_better, tolerance) in POLICY.items():
        if metric in ALLOC_METRICS and not alloc_ok:
            continue
        base = baseline["metrics"].get(metric)
        cand = candidate["metrics"].get(metric)
        if metric in OPTIONAL_METRICS and (base is None or cand is None):
            continue
        if base is None or cand is None:
            failures.append(f"{bench}/{metric}: missing from snapshot")
            continue
        if base <= 0:
            continue  # nothing committed to guard against
        ratio = cand / base
        if higher_better:
            ok = ratio >= 1.0 - tolerance
            direction = "slower"
        else:
            ok = ratio <= 1.0 + tolerance
            direction = "larger"
        status = "ok" if ok else "REGRESSION"
        print(
            f"  {bench}/{metric}: {base_name} {base:.6g} -> {cand_name} "
            f"{cand:.6g} ({ratio:.1%} of baseline, tolerance {tolerance:.0%}) "
            f"[{status}]"
        )
        if not ok:
            failures.append(
                f"{bench}/{metric}: {ratio:.2f}x of baseline is {direction} than "
                f"the {tolerance:.0%} tolerance"
            )
    return failures


def self_test():
    baseline = {
        "schema": SCHEMA,
        "bench": "selftest",
        "alloc_probe": 1,
        "metrics": {
            "domains_per_sec": 1000.0,
            "peak_rss_bytes": 100 * 1024 * 1024,
            "allocs_per_domain": 200.0,
            "alloc_bytes_per_domain": 50000.0,
            "peak_worker_rss_bytes": 80 * 1024 * 1024,
        },
    }
    identical = json.loads(json.dumps(baseline))
    print("self-test: identical candidate must pass")
    if compare(baseline, identical):
        print("self-test FAILED: identical candidate was flagged")
        return 1

    print("self-test: injected regressions must each be detected")
    injected = {
        "domains_per_sec": 1000.0 * 0.5,          # 2x slowdown
        "peak_rss_bytes": 100 * 1024 * 1024 * 2,  # 2x footprint
        "allocs_per_domain": 200.0 * 1.5,         # +50% allocations
        "alloc_bytes_per_domain": 50000.0 * 1.5,  # +50% bytes
        "peak_worker_rss_bytes": 80 * 1024 * 1024 * 2,  # 2x worker footprint
    }
    for metric, bad in injected.items():
        regressed = json.loads(json.dumps(baseline))
        regressed["metrics"][metric] = bad
        if not compare(baseline, regressed):
            print(f"self-test FAILED: regression in {metric} was not detected")
            return 1

    print("self-test: optional metrics absent from the baseline must be skipped")
    legacy = json.loads(json.dumps(baseline))
    del legacy["metrics"]["peak_worker_rss_bytes"]
    bloated = json.loads(json.dumps(baseline))
    bloated["metrics"]["peak_worker_rss_bytes"] = 10 * 80 * 1024 * 1024
    if compare(legacy, bloated):
        print("self-test FAILED: optional metric flagged without a baseline")
        return 1

    print("self-test: observer-table regressions must be detected")
    obs_base = {
        "schema": OBSERVER_SCHEMA,
        "rows": {
            "slots16_lru": {
                "metrics": {
                    "coverage": 0.94,
                    "mean_abs_err_ms": 0.25,
                    "within_25ms_share": 0.999,
                    "packets_per_sec": 1e7,
                }
            }
        },
    }
    obs_same = json.loads(json.dumps(obs_base))
    if compare(obs_base, obs_same):
        print("self-test FAILED: identical observer table was flagged")
        return 1
    obs_bad = {
        "coverage": 0.94 * 0.5,          # half the flows lost
        "mean_abs_err_ms": 0.25 * 2.0,   # 2x the error (past rel+slack)
        "within_25ms_share": 0.999 * 0.8,
        "packets_per_sec": 1e7 * 0.3,
    }
    for metric, bad in obs_bad.items():
        regressed = json.loads(json.dumps(obs_base))
        regressed["rows"]["slots16_lru"]["metrics"][metric] = bad
        if not compare(obs_base, regressed):
            print(f"self-test FAILED: observer regression in {metric} not detected")
            return 1
    dropped = json.loads(json.dumps(obs_base))
    dropped["rows"] = {}
    if not compare(obs_base, dropped):
        print("self-test FAILED: missing observer row not detected")
        return 1
    print("self-test: near-zero observer baselines must stay inside the slack")
    tiny = json.loads(json.dumps(obs_base))
    tiny["rows"]["slots16_lru"]["metrics"]["mean_abs_err_ms"] = 0.001
    wobble = json.loads(json.dumps(tiny))
    wobble["rows"]["slots16_lru"]["metrics"]["mean_abs_err_ms"] = 0.04  # < slack
    if compare(tiny, wobble):
        print("self-test FAILED: sub-slack error wobble was flagged")
        return 1

    print("self-test: scale-sweep flatness and per-row regressions must be detected")
    scale_base = {
        "schema": SCALE_SCHEMA,
        "rows": [
            {
                "bench": "scale", "scale": 20000.0, "domains": 2173,
                "alloc_probe": 1,
                "metrics": {"domains_per_sec": 900.0, "peak_rss_bytes": 5000000,
                            "allocs_per_domain": 210.0,
                            "alloc_bytes_per_domain": 52000.0},
            },
            {
                "bench": "scale", "scale": 2000.0, "domains": 21730,
                "alloc_probe": 1,
                "metrics": {"domains_per_sec": 1100.0, "peak_rss_bytes": 5100000,
                            "allocs_per_domain": 190.0,
                            "alloc_bytes_per_domain": 48000.0},
            },
        ],
    }
    scale_same = json.loads(json.dumps(scale_base))
    if compare(scale_base, scale_same):
        print("self-test FAILED: identical scale sweep was flagged")
        return 1
    leaky = json.loads(json.dumps(scale_base))
    leaky["rows"][1]["metrics"]["peak_rss_bytes"] = 3 * 5000000  # grows with domains
    if not compare(scale_base, leaky):
        print("self-test FAILED: non-flat peak RSS across scales not detected")
        return 1
    slow = json.loads(json.dumps(scale_base))
    slow["rows"][0]["metrics"]["domains_per_sec"] = 900.0 * 0.5
    if not compare(scale_base, slow):
        print("self-test FAILED: per-scale throughput regression not detected")
        return 1
    truncated = json.loads(json.dumps(scale_base))
    truncated["rows"] = truncated["rows"][:1]
    if not compare(scale_base, truncated):
        print("self-test FAILED: dropped scale row not detected")
        return 1

    print("self-test: alloc metrics must be skipped without the interposer")
    unprobed = json.loads(json.dumps(baseline))
    unprobed["alloc_probe"] = 0
    unprobed["metrics"]["allocs_per_domain"] = 10 * baseline["metrics"]["allocs_per_domain"]
    if compare(baseline, unprobed):
        print("self-test FAILED: alloc metric flagged despite missing probe")
        return 1

    print("self-test OK")
    return 0


def main(argv):
    args = argv[1:]
    if args == ["--self-test"]:
        return self_test()
    if not args or len(args) % 2 != 0 or any(a.startswith("--") for a in args):
        print(__doc__.strip(), file=sys.stderr)
        return 2

    failures = []
    for i in range(0, len(args), 2):
        base_path, cand_path = args[i], args[i + 1]
        print(f"bench_check: {cand_path} vs committed {base_path}")
        try:
            failures += compare(load(base_path), load(cand_path))
        except (OSError, ValueError, json.JSONDecodeError) as e:
            failures.append(str(e))
            print(f"  error: {e}")

    if failures:
        print(f"\nbench_check: {len(failures)} regression(s):")
        for f in failures:
            print(f"  - {f}")
        print("(intentional? regenerate baselines with: REGEN=1 scripts/ci.sh bench)")
        return 1
    print("\nbench_check: perf trajectory holds")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
