#!/usr/bin/env bash
# spinscope CI driver: configure + build + ctest per lane, one build tree per
# lane (see CMakePresets.json).
#
#   scripts/ci.sh              # default lane (RelWithDebInfo + full ctest)
#   scripts/ci.sh sanitize     # ASan+UBSan lane
#   scripts/ci.sh tsan         # ThreadSanitizer lane (parallel determinism)
#   scripts/ci.sh lint         # clang-tidy lane (compile-only; needs clang-tidy)
#   scripts/ci.sh bench        # perf-trajectory lane: measure BENCH_*.json and
#                              # fail on regression vs the committed baselines
#                              # (REGEN=1 scripts/ci.sh bench re-baselines)
#   scripts/ci.sh chaos        # crash-isolation lane: the multi-process kill
#                              # sweep (SIGKILL workers at every lifecycle
#                              # point), journal, shard-executor and
#                              # proc-plumbing suites, and a kill-then---resume
#                              # bench smoke test
#   scripts/ci.sh diskchaos    # lying-disk lane: the full storage-fault-plan
#                              # x injection-point sweep (ENOSPC, EIO, short
#                              # writes, power loss, bit flips — incl. FaultIo
#                              # under --procs=2), the storage-seam unit suite
#                              # and the journal scrub corpus
#   scripts/ci.sh rss          # out-of-core lane: a mid-scale streaming
#                              # campaign under a hard RLIMIT_AS ceiling — an
#                              # accidental O(domains) allocation fails loudly
#   scripts/ci.sh perfbench    # benchmark lane: perfbench's self-tests, then
#                              # a 1-second run of each BENCHMARK.json
#                              # workload; fails when a run reports
#                              # correct=false
#   scripts/ci.sh all          # default + sanitize + tsan (+ lint if available)
#
# Exit status is non-zero as soon as any configure, build or test step of any
# requested lane fails. Lanes always run from a preset-owned build tree, so a
# stale manual configure can never leak flags into CI results.

set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc 2>/dev/null || echo 4)}"

run_lane() {
    local lane="$1"
    echo "=== lane: ${lane} ==="
    cmake --preset "${lane}" >/dev/null
    cmake --build --preset "${lane}" -j "${JOBS}"
    if [ "${lane}" != "lint" ]; then
        ctest --preset "${lane}" -j "${JOBS}"
    fi
    echo "=== lane ${lane}: OK ==="
}

lint_available() { command -v clang-tidy >/dev/null 2>&1; }

# Perf-trajectory lane: rebuild the release tree, re-measure the committed
# BENCH_*.json snapshots (packet-path microbench + a small Table 1 sweep) and
# gate on scripts/bench_check.py. REGEN=1 refreshes the repo-root baselines
# instead of comparing (commit the updated files with the change that earned
# them).
run_bench_lane() {
    echo "=== lane: bench ==="
    cmake --preset default >/dev/null
    cmake --build --preset default -j "${JOBS}" \
        --target bench_packet_path bench_table1 bench_observer
    python3 scripts/bench_check.py --self-test

    local out="build/bench"
    ./build/bench/bench_packet_path \
        --trajectory="${out}/BENCH_packet_path.json" --trajectory_count=192
    # --procs=2 routes the Table 1 sweep through the multi-process map pass
    # (fork + shared journal + reduce), so the committed BENCH_scale.json also
    # pins the crash-isolated path's throughput and worker footprint. The
    # --scales sweep spans a 10x domain range; bench_check.py gates both the
    # per-row metrics and the flatness of peak RSS across the rows (the
    # out-of-core guarantee of DESIGN.md §15).
    ./build/bench/bench_table1 --scales=20000,6000,2000 --telemetry=off --procs=2 \
        --trajectory="${out}/BENCH_scale.json" >/dev/null
    # Constrained-observer accuracy table (DESIGN.md §14): campaign replay +
    # the synthetic flow sweep incl. the 1M-flow/64K-slot roadmap point.
    # Accuracy tolerances are tight, wall throughput wide (bench_check.py).
    ./build/bench/bench_observer --scale=20000 \
        --trajectory="${out}/BENCH_observer.json" >/dev/null

    if [ "${REGEN:-0}" = "1" ]; then
        cp "${out}/BENCH_packet_path.json" BENCH_packet_path.json
        cp "${out}/BENCH_scale.json" BENCH_scale.json
        cp "${out}/BENCH_observer.json" BENCH_observer.json
        echo "re-baselined BENCH_packet_path.json, BENCH_scale.json and BENCH_observer.json"
    else
        python3 scripts/bench_check.py \
            BENCH_packet_path.json "${out}/BENCH_packet_path.json" \
            BENCH_scale.json "${out}/BENCH_scale.json" \
            BENCH_observer.json "${out}/BENCH_observer.json"
    fi
    echo "=== lane bench: OK ==="
}

# Chaos lane: the crash-isolation suites on their own — the kill sweep
# (SIGKILL at every worker lifecycle point x {1,2,4} procs, reduced output
# must stay byte-identical), the in-process kill-at-every-chunk-boundary
# sweep, hang/poison supervision and the charging rule, journal invariants,
# the run_sharded executor every campaign runs on and the process plumbing
# underneath. All of this also runs in the default lane's
# ctest; this lane is the focused, fast repro loop. It ends with
# end-to-end bench smoke tests of the journal wiring, threads and --procs.
run_chaos_lane() {
    echo "=== lane: chaos ==="
    cmake --preset default >/dev/null
    cmake --build --preset default -j "${JOBS}" \
        --target test_scanner_procpool test_scanner_journal test_scanner_parallel \
        test_util_misc bench_table1
    ./build/tests/test_scanner_procpool
    ./build/tests/test_scanner_journal
    ./build/tests/test_scanner_parallel
    ./build/tests/test_util_misc
    run_resume_smoke
    echo "=== lane chaos: OK ==="
}

# A journaled Table 1 sweep is SIGKILLed once its first batch file is
# published, then rerun with --resume; the printed table must equal an
# unjournaled run's (the timing and "resuming" lines aside). The same then
# holds for a --procs=2 map pass, started in its own session: once its
# supervisor is SIGKILLed, no process of that session may outlive it by a
# second (the workers die with their supervisor).
run_resume_smoke() {
    local work bench=./build/bench/bench_table1
    local args=(--scale=2000 --telemetry=off --threads=2)
    local table_only=(grep -v -e "domains/sec" -e "^resuming from journal"
        -e "^population scale" -e "^map pass:" -e "^reduce:")
    work="$(mktemp -d)"
    "${bench}" "${args[@]}" | "${table_only[@]}" >"${work}/plain.txt"
    kill_at_first_batch "${work}/journal" "${bench}" "${args[@]}" --journal="${work}/journal"
    "${bench}" "${args[@]}" --journal="${work}/journal" --resume |
        "${table_only[@]}" >"${work}/resumed.txt"
    diff -u "${work}/plain.txt" "${work}/resumed.txt"
    echo "resume smoke: killed + resumed table matches the unjournaled run"

    kill_at_first_batch "${work}/procs" setsid "${bench}" "${args[@]}" --procs=2 \
        --journal="${work}/procs"
    "${bench}" "${args[@]}" --procs=2 --journal="${work}/procs" --resume |
        "${table_only[@]}" >"${work}/procs_resumed.txt"
    diff -u "${work}/plain.txt" "${work}/procs_resumed.txt"
    rm -rf "${work}"
    echo "resume smoke: killed + resumed --procs=2 table matches the unjournaled run"
}

# Runs the command after $1 in the background, SIGKILLs it once a batch file
# appears in the journal directory $1, and fails unless that file exists and,
# when the command is `setsid ...`, every process of its session has exited a
# second later.
kill_at_first_batch() {
    local journal="$1"
    shift
    "$@" >/dev/null &
    local pid=$!
    for _ in $(seq 1 400); do
        compgen -G "${journal}/chunk-*.rec" >/dev/null && break
        sleep 0.05
    done
    kill -9 "${pid}" 2>/dev/null || true
    wait "${pid}" 2>/dev/null || true
    if ! compgen -G "${journal}/chunk-*.rec" >/dev/null; then
        echo "resume smoke: the killed run published no batch" >&2
        exit 1
    fi
    if [ "$1" = "setsid" ]; then
        # A zombie (state Z) has died and only awaits its new parent's reap.
        sleep 1
        if ps -o stat= -s "${pid}" | grep -qv '^Z'; then
            echo "resume smoke: processes outlived their supervisor:" >&2
            ps -o pid,stat,args -s "${pid}" >&2
            exit 1
        fi
    fi
}

# Disk-chaos lane: campaigns on a lying disk (DESIGN.md §16). Runs the
# storage-seam unit suite, the FULL fault-plan x injection-point sweep
# (SPINSCOPE_DISKCHAOS_FULL widens the matrix the default ctest lane runs
# reduced: more write/power-loss ordinals, threads {1,2,8}, procs {1,2}),
# and the journal scrub corruption corpus (torn, bit-flipped and corrupt
# record files). Green means: no fault plan can
# make a campaign produce silently-wrong output.
run_diskchaos_lane() {
    echo "=== lane: diskchaos ==="
    cmake --preset default >/dev/null
    cmake --build --preset default -j "${JOBS}" \
        --target test_util_io test_scanner_diskchaos test_scanner_journal
    ./build/tests/test_util_io
    SPINSCOPE_DISKCHAOS_FULL=1 ./build/tests/test_scanner_diskchaos
    ./build/tests/test_scanner_journal
    echo "=== lane diskchaos: OK ==="
}

# Out-of-core lane: run a mid-scale (2.2 M domain) streaming Table 1 campaign
# under a hard RLIMIT_AS ceiling. The streaming population (DESIGN.md §15)
# keeps the campaign's address space flat (~27 MB with a single malloc arena)
# regardless of domain count, so the 96 MB ceiling leaves >3x headroom — an
# accidental O(domains) allocation blows through it and the lane fails loudly
# (bad_alloc abort, or the watchdog timeout when the failure degenerates into
# a chunk-retry crawl). RSS_CEILING_KB overrides the ceiling.
run_rss_lane() {
    echo "=== lane: rss ==="
    cmake --preset default >/dev/null
    cmake --build --preset default -j "${JOBS}" --target bench_table1
    local ceiling_kb="${RSS_CEILING_KB:-98304}"
    (
        ulimit -v "${ceiling_kb}"
        MALLOC_ARENA_MAX=1 timeout 600 ./build/bench/bench_table1 \
            --scale=100 --threads=2 --telemetry=off >/dev/null
    )
    echo "=== lane rss: OK (2.2 M-domain campaign held under $((ceiling_kb / 1024)) MB address space) ==="
}

# Benchmark lane: perfbench/run.py's self-tests (percentile rule, self-time
# arithmetic, input determinism, BENCHMARK.json == spinbench's metric list),
# then one short run per workload. Each run checks its own outputs (Table 1
# and telemetry digests, replica agreement) and ends with a JSON line whose
# "correct" must be true. The numbers of so short a run are not a
# measurement; only correctness is gated here.
run_perfbench_lane() {
    echo "=== lane: perfbench ==="
    python3 perfbench/run.py --selftest
    local workload out
    for workload in sweep_inproc sweep_reduce; do
        out="$(python3 perfbench/run.py --workload "${workload}" --seconds 1)" || true
        printf '%s\n' "${out}"
        if ! printf '%s\n' "${out}" | tail -n 1 | python3 -c \
            'import json, sys; sys.exit(0 if json.loads(sys.stdin.read()).get("correct") is True else 1)'; then
            echo "perfbench lane: ${workload} reported correct=false" >&2
            exit 1
        fi
    done
    echo "=== lane perfbench: OK ==="
}

main() {
    local lanes=("${@:-default}")
    if [ "${1:-}" = "all" ]; then
        lanes=(default sanitize tsan)
        if lint_available; then
            lanes+=(lint)
        else
            echo "note: clang-tidy not on PATH, skipping lint lane" >&2
        fi
    fi
    for lane in "${lanes[@]}"; do
        case "${lane}" in
            default|sanitize|tsan) run_lane "${lane}" ;;
            bench) run_bench_lane ;;
            chaos) run_chaos_lane ;;
            diskchaos) run_diskchaos_lane ;;
            rss) run_rss_lane ;;
            perfbench) run_perfbench_lane ;;
            lint)
                if lint_available; then
                    run_lane lint
                else
                    echo "error: lint lane requires clang-tidy on PATH" >&2
                    exit 2
                fi
                ;;
            *)
                echo "error: unknown lane '${lane}' (default|sanitize|tsan|lint|bench|chaos|diskchaos|rss|perfbench|all)" >&2
                exit 2
                ;;
        esac
    done
}

main "$@"
