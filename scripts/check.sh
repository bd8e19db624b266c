#!/usr/bin/env bash
# One-command verification gate for the zerodeg tree.
#
# Runs, in order:
#   1. hardened build (-DZERODEG_WERROR=ON: -Wconversion -Wshadow ... -Werror)
#      + the full ctest suite, which includes the `lint` label
#      (tools/zerodeg_lint over the tree + the checker's own unit tests)
#   2. the whole-project analyzer in the WERROR tree: include-graph layering
#      (ZD015), RNG-stream collisions (ZD016), ErrorCode discards (ZD017),
#      float reductions (ZD018), stale suppressions (ZD097) — JSON findings
#      for a stable diffable failure summary, and build/include_graph.dot
#      left behind as a reviewable artifact
#   3. the `parallel` label rebuilt under ThreadSanitizer — the data-race
#      gate for the task-pool / sharded-sweep engine
#   4. the `resilience` + `chaos` + `codec` + `traffic` labels rebuilt under
#      ASan+UBSan — the gate for the journal/retry/error paths, the
#      fault-injection/torture machinery (crash-at-every-write-point resume,
#      watchdog cancellation, transport-fault and cross-process
#      distributed-sweep torture), the byte codecs that parse damaged buffers
#      (MD5, CRC-32, frost compressor, recovery, the load cycle) and the
#      traffic engine's index bookkeeping (PS queues compacted in place, the
#      per-host next-departure cache, the per-second diurnal table) — plus
#      cross-process smokes: coordinator + 2 workers over a unix socket with
#      a seeded FaultyTransport, merged journal byte-compared lossless/lossy,
#      and a lease-mode campaign where one worker is SIGKILLed permanently
#      and the survivor must absorb its lease byte-identically
#   5. a compose smoke: sanitizers + -Werror configured together must build
#      (sanitizer instrumentation must not be broken by the warning gate)
#   6. clang-tidy over the exported compile database, when clang-tidy exists
#   7. the perf gate: scripts/bench_ab.py runs zdbench (BENCHMARK.json) on
#      this tree and on its parent — HEAD when the tree has uncommitted
#      changes, else HEAD~1 — in alternating pairs on this machine, and fails
#      when a run fails or an end-to-end median is worse than the parent's
#      by more than that metric's BENCHMARK.json bound
#
# This is the sanitizer matrix PRs 1-2 documented as manual steps, made
# executable.  Every build tree is separate (build/, build-tsan/, build-asan/,
# build-asan-werror/, and zdbench's .bench_build/) so switching configurations
# never causes a full rebuild of another.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
run() { echo "+ $*" >&2; "$@"; }

echo "=== [1/7] hardened warnings + full test suite ===" >&2
run cmake -B build -S . -DZERODEG_WERROR=ON
run cmake --build build -j "$JOBS"
run ctest --test-dir build --output-on-failure -j "$JOBS"

echo "=== [2/7] whole-project analyzer (layering / streams / discards) ===" >&2
run ./build/tools/zerodeg_lint --project --root . \
    --baseline tools/lint/baseline.txt \
    --graph-dot build/include_graph.dot \
    --format=json --error-on-new
echo "project analyzer: build/include_graph.dot written (render with: dot -Tsvg)" >&2

echo "=== [3/7] parallel label under ThreadSanitizer ===" >&2
run cmake -B build-tsan -S . -DZERODEG_SANITIZE=thread
run cmake --build build-tsan -j "$JOBS"
run ctest --test-dir build-tsan -L parallel --output-on-failure -j "$JOBS"

echo "=== [4/7] resilience + chaos + codec + traffic labels under ASan+UBSan ===" >&2
run cmake -B build-asan -S . -DZERODEG_SANITIZE=address,undefined
run cmake --build build-asan -j "$JOBS"
run ctest --test-dir build-asan -L 'resilience|chaos|codec|traffic' --output-on-failure -j "$JOBS"

# Distributed-torture smoke, cross-process: a real coordinator + 2 workers
# (ASan+UBSan instrumented) over a unix socket, both worker links running a
# deterministic FaultyTransport schedule.  The lossy campaign's merged
# journal must be byte-identical to a lossless one.  If any smoke step
# fails, every process log is printed to stderr before the scratch dir goes.
smoke="$(mktemp -d /tmp/zd_smoke.XXXXXX)"
smoke_passed=0
dump_smoke_logs() {
    # Explicit statuses: a bare `return` in a trap reports the failing
    # command's status, and set -e would then skip the cleanup.
    [ "$smoke_passed" = 1 ] && return 0
    for log in "$smoke"/*/*.log; do
        [ -f "$log" ] || continue
        echo "----- ${log#"$smoke"/} -----" >&2
        cat "$log" >&2
    done
    return 0
}
trap 'dump_smoke_logs; rm -rf "$smoke"' EXIT
zd=./build-asan/tools/zerodeg
for mode in lossless lossy; do
    mkdir -p "$smoke/$mode"
    faults=""
    if [ "$mode" = lossy ]; then faults="--net-faults 20100219"; fi
    run "$zd" sweep --coordinator --socket "$smoke/$mode/s.sock" \
        --checkpoint "$smoke/$mode/merged.journal" --seeds 6 --synthetic \
        --idle-timeout-ms 60000 >"$smoke/$mode/coord.log" 2>&1 &
    coord=$!
    for w in 0 1; do
        run "$zd" sweep --worker --socket "$smoke/$mode/s.sock" \
            --checkpoint "$smoke/$mode/w$w.journal" --seeds 6 --synthetic $faults \
            >"$smoke/$mode/w$w.log" 2>&1 &
    done
    wait
    if kill -0 "$coord" 2>/dev/null; then
        echo "distributed smoke: coordinator still running" >&2
        exit 1
    fi
done
run cmp "$smoke/lossless/merged.journal" "$smoke/lossy/merged.journal"
echo "distributed smoke: lossy and lossless campaigns merged byte-identically" >&2

# Kill-a-worker smoke: two lease-mode workers, one SIGKILLed permanently
# mid-campaign.  Whatever the kill lands on (handshake, held lease, or after
# the victim already finished), the coordinator must not wedge: the orphaned
# lease is reassigned to the survivor and the merged journal is still
# byte-identical to the lossless run above.
mkdir -p "$smoke/killed"
run "$zd" sweep --coordinator --socket "$smoke/killed/s.sock" \
    --checkpoint "$smoke/killed/merged.journal" --seeds 6 --synthetic \
    --idle-timeout-ms 60000 >"$smoke/killed/coord.log" 2>&1 &
coord=$!
"$zd" sweep --worker --socket "$smoke/killed/s.sock" \
    --checkpoint "$smoke/killed/victim.journal" --seeds 6 --synthetic \
    >"$smoke/killed/victim.log" 2>&1 &
victim=$!
sleep 0.1
kill -KILL "$victim" 2>/dev/null || true
wait "$victim" 2>/dev/null || true
run "$zd" sweep --worker --socket "$smoke/killed/s.sock" \
    --checkpoint "$smoke/killed/survivor.journal" --seeds 6 --synthetic \
    >"$smoke/killed/survivor.log" 2>&1
wait "$coord"
run cmp "$smoke/lossless/merged.journal" "$smoke/killed/merged.journal"
echo "distributed smoke: campaign survived a SIGKILLed worker byte-identically" >&2
smoke_passed=1

echo "=== [5/7] compose smoke: sanitize + werror together ===" >&2
run cmake -B build-asan-werror -S . -DZERODEG_SANITIZE=address,undefined -DZERODEG_WERROR=ON
run cmake --build build-asan-werror -j "$JOBS" --target zerodeg_core zerodeg_lint

echo "=== [6/7] clang-tidy (optional) ===" >&2
if command -v clang-tidy >/dev/null 2>&1; then
    # compile_commands.json was exported by step 1's configure.
    mapfile -t sources < <(git ls-files 'src/**/*.cpp' 'tools/**/*.cpp')
    run clang-tidy -p build --quiet "${sources[@]}"
else
    echo "clang-tidy not installed; skipping (config: .clang-tidy)" >&2
fi

echo "=== [7/7] perf gate: zdbench A/B against the parent ===" >&2
# The parent of the change under test: uncommitted work is compared with
# HEAD, a committed change with HEAD~1.
base=HEAD~1
if [ -n "$(git status --porcelain)" ]; then base=HEAD; fi
run python3 scripts/bench_ab.py "$base"

echo "check.sh: all gates passed" >&2
