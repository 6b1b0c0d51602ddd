#!/usr/bin/env bash
# Lists the hpm:: functions in libhpm.a that hpm_tool, the served
# binary, cannot reach: code the linker garbage-collects when every
# function sits in its own section. Destructors and Status/StatusOr
# helpers are left out (the compiler emits them wherever a type is
# used, reached or not). Prints one demangled name per line, then the
# count. It only reports; nothing fails on a non-empty list.
#
# Usage: scripts/unreachable.sh [build-dir]   (default: build-unreachable)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-unreachable}"
JOBS="$(nproc 2>/dev/null || echo 2)"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections -Wl,--print-gc-sections" \
  >/dev/null
# The linker prints what it drops only when it links, so force a relink.
rm -f "$BUILD_DIR/tools/hpm_tool"
LOG="$(mktemp)"
trap 'rm -f "$LOG" "$LOG.names"' EXIT
cmake --build "$BUILD_DIR" --target hpm_tool -j "$JOBS" >"$LOG" 2>&1 || {
  cat "$LOG" >&2
  exit 1
}

# "removing unused section '.text.<mangled>' in file '.../libhpm.a(x.o)'";
# a section of a COMDAT group is printed as '.text.<mangled>[<group>]'.
sed -n "s/.*removing unused section '\.text\.\(unlikely\.\)\{0,1\}\(_Z[^'[]*\)[^']*' in file '[^']*libhpm\.a(.*/\2/p" \
  "$LOG" |
  c++filt |
  grep '^hpm::' |
  grep -v '::~' |
  grep -v '^hpm::Status\(Or<[^(]*>\)\{0,1\}::' |
  sort -u >"$LOG.names" || true
cat "$LOG.names"
echo "$(wc -l <"$LOG.names") unreachable hpm:: functions"
