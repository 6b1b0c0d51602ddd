#!/usr/bin/env bash
# Full verification matrix: clang-tidy (when installed), then tier-1 +
# property suites under AddressSanitizer, ThreadSanitizer and an
# UndefinedBehaviorSanitizer leg for the frozen-arena word packing and
# the miner's tidsets. Any
# test failure or sanitizer report (sanitizers make the binary exit
# non-zero) fails the run.
#
# Usage: scripts/check.sh [--fast]
#   --fast   skip the slow-labelled binaries in the sanitizer builds
#            (integration, concurrency, store-level property suites)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 2)"
CTEST_ARGS=(--output-on-failure)
if [[ "${1:-}" == "--fast" ]]; then
  CTEST_ARGS+=(-LE slow)
fi

run_matrix() {
  local build_dir="$1"
  shift
  cmake -B "$build_dir" -S . "$@" >/dev/null
  cmake --build "$build_dir" -j "$JOBS"
  ctest --test-dir "$build_dir" -L tier1 "${CTEST_ARGS[@]}" -j "$JOBS"
  ctest --test-dir "$build_dir" -L prop "${CTEST_ARGS[@]}" -j "$JOBS"
  # The observability suites (metrics, traces, pipeline accounting) are
  # tier1/prop members too, but run the label explicitly so a labelling
  # regression cannot silently drop them from the matrix.
  ctest --test-dir "$build_dir" -L observability "${CTEST_ARGS[@]}" \
        -j "$JOBS"
  # Same for the signature-tree index stack (bitsets, builder tree,
  # frozen arena + its wire parser): the suites most sensitive to memory
  # bugs must provably run under every sanitizer in the matrix.
  ctest --test-dir "$build_dir" -L tpt "${CTEST_ARGS[@]}" -j "$JOBS"
  # And for the lock-free serving layer (epoch reclamation, the no-lock
  # store read path, concurrent predictions on one model): its races and
  # lifetime bugs only exist under concurrency, so the label must
  # provably run in every build of the matrix — most importantly TSan
  # and ASan.
  ctest --test-dir "$build_dir" -L concurrency "${CTEST_ARGS[@]}" \
        -j "$JOBS"
  # And for the incremental-mining pipeline (windowed miner counts,
  # promote/demote differentials against the offline builder, the
  # inline model-build cycle): the exactness contract is the suite
  # most likely to rot silently, so it runs by label in every build.
  ctest --test-dir "$build_dir" -L mining "${CTEST_ARGS[@]}" -j "$JOBS"
}

# Static analysis (config in .clang-tidy). Soft-skipped when clang-tidy
# is not on PATH so the matrix still runs on minimal containers.
if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy: src/ tools/ bench/ =="
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  git ls-files 'src/**/*.cc' 'tools/*.cc' 'bench/*.cc' |
    xargs -P "$JOBS" -n 8 clang-tidy -p build --quiet
else
  echo "== clang-tidy not installed: skipping the tidy leg =="
fi

echo "== plain build: tier1 + prop =="
run_matrix build

echo "== AddressSanitizer: tier1 + prop =="
run_matrix build-asan -DHPM_SANITIZE=address

# Aggressive-free pass over the epoch-reclamation suites: a huge
# quarantine keeps every retired-and-freed view/table poisoned for the
# rest of the run, so an epoch bug that frees a snapshot while a pinned
# reader is still traversing it reports as heap-use-after-free instead
# of silently landing in recycled memory.
echo "== AddressSanitizer, aggressive free: concurrency =="
ASAN_OPTIONS="quarantine_size_mb=256:detect_stack_use_after_return=1" \
  ctest --test-dir build-asan -L concurrency "${CTEST_ARGS[@]}" -j "$JOBS"

echo "== ThreadSanitizer: tier1 + prop =="
run_matrix build-tsan -DHPM_SANITIZE=thread

# The frozen-TPT arena is hand-packed words and raw pointer arithmetic;
# UBSan is the leg that would catch misaligned loads, bad shifts and
# out-of-range enum/int conversions there. The miner's tidsets are the
# same kind of code (word shifts, popcounts over hand-indexed flat
# arrays), so the mining label runs here too. So does the net label:
# the socket read buffer is offset arithmetic over bytes from the peer,
# and its property suite (prop_frame_test) carries no tier1 label. The
# full tier-1 set rides along since the build already exists.
echo "== UndefinedBehaviorSanitizer: tier1 + tpt + mining + net =="
cmake -B build-ubsan -S . -DHPM_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j "$JOBS"
ctest --test-dir build-ubsan -L tier1 "${CTEST_ARGS[@]}" -j "$JOBS"
ctest --test-dir build-ubsan -L tpt "${CTEST_ARGS[@]}" -j "$JOBS"
ctest --test-dir build-ubsan -L mining "${CTEST_ARGS[@]}" -j "$JOBS"
ctest --test-dir build-ubsan -L net "${CTEST_ARGS[@]}" -j "$JOBS"
ctest --test-dir build-ubsan -L concurrency "${CTEST_ARGS[@]}" -j "$JOBS"

echo "== AddressSanitizer + fault hooks: tier1 + fault =="
cmake -B build-fault -S . -DHPM_SANITIZE=address -DHPM_ENABLE_FAULTS=ON >/dev/null
cmake --build build-fault -j "$JOBS"
ctest --test-dir build-fault -L tier1 "${CTEST_ARGS[@]}" -j "$JOBS"
ctest --test-dir build-fault -L fault "${CTEST_ARGS[@]}" -j "$JOBS"
ctest --test-dir build-fault -L concurrency "${CTEST_ARGS[@]}" -j "$JOBS"
# The networked serving + replication stack must provably run with the
# torn-frame / kill-point hooks armed and ASan watching the buffers:
# the wire protocol parses attacker-shaped bytes, and the replication
# sweeps are only meaningful with the fault sites compiled in.
ctest --test-dir build-fault -L net "${CTEST_ARGS[@]}" -j "$JOBS"
ctest --test-dir build-fault -L repl "${CTEST_ARGS[@]}" -j "$JOBS"
# The model-build kill-point sweep (crash between mine, freeze and
# publish, at bootstrap and on rebuilds) only exercises its recovery
# paths with the fault hooks compiled in, and ASan is what catches a
# half-published arena.
ctest --test-dir build-fault -L mining "${CTEST_ARGS[@]}" -j "$JOBS"
./build-fault/tools/hpm_tool faultcheck --seed 1

# The overload-control layer (admission, load shedding, partial fan-out
# answers) is where shutdown/submit and fan-out lane races would live;
# run its suites, plus everything fault- or concurrency-labelled, under
# TSan with the hooks on (armed fault schedules change which code paths the
# epoch readers and the fan-out lanes race through).
echo "== ThreadSanitizer + fault hooks: overload + fault + concurrency + server =="
cmake -B build-tsan-fault -S . -DHPM_SANITIZE=thread \
      -DHPM_ENABLE_FAULTS=ON >/dev/null
cmake --build build-tsan-fault -j "$JOBS"
ctest --test-dir build-tsan-fault \
      -L 'overload|fault|concurrency|net|repl|mining|server' \
      "${CTEST_ARGS[@]}" -j "$JOBS"

echo "check.sh: all green"
