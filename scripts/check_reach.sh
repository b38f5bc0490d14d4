#!/usr/bin/env bash
# Link-level reachability gate: every out-of-line library function is
# reached by a binary that is not a test, or scripts/reach_allowlist.txt
# names it with its reason.
#
# Builds every target, and perfbench/ from outside, in its own directory,
# build-reach/, at -O0 with one section per function and data object,
# linked with --gc-sections, so a function survives in a binary
# only when something the binary runs can call it. (At -O2 a function
# inlined into its only callers loses its out-of-line copy and would look
# unreached.) It then compares the external text symbols (`nm` type T) of
# the 17 libraries with the symbols of every non-test binary: the benches,
# the examples, x2vec_lint and x2vec_perfbench. Inline, template and
# file-local functions are not counted. It fails, naming each one, on
#   - a library function that no non-test binary reaches and the allowlist
#     does not name, and
#   - an allowlist entry that names no such function (a stale entry), or
#     whose reason is not one of the allowlist's four.
#
# Usage:
#   scripts/check_reach.sh
set -euo pipefail
export LC_ALL=C

cd "$(dirname "$0")/.."

BUILD_DIR="build-reach"
JOBS="$(nproc 2>/dev/null || echo 4)"
ALLOWLIST="scripts/reach_allowlist.txt"
REASONS="oracle paper capability layout"

if [[ $# -gt 0 ]]; then
  if [[ "$1" == -h || "$1" == --help ]]; then
    # The whole leading comment block, up to the first code line.
    sed -n '/^[^#]/q; 2,$ s/^# \{0,1\}//p' "$0"
    exit 0
  fi
  echo "check_reach.sh: takes no arguments" >&2
  exit 2
fi

PROBE_FLAGS=(
  -DCMAKE_BUILD_TYPE=Debug
  "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -ffunction-sections -fdata-sections"
  -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
)

step() { echo; echo "== check_reach.sh: $* =="; }

# Every ELF executable outside the test and CMake scratch directories.
non_test_binaries() {
  local file
  while IFS= read -r -d '' file; do
    [[ "$(head -c 4 "$file")" == $'\x7fELF' ]] && echo "$file"
  done < <(find "$BUILD_DIR" -type f -perm -u+x -not -path '*/CMakeFiles/*' \
             -not -path "$BUILD_DIR/tests/*" -print0)
}

step "build every target at -O0, linked with --gc-sections ($BUILD_DIR)"
# Relink every binary, so one whose target is gone cannot count.
if [[ -d "$BUILD_DIR" ]]; then
  non_test_binaries | while IFS= read -r file; do rm -f "$file"; done
fi
cmake -B "$BUILD_DIR" -S . "${PROBE_FLAGS[@]}" > /dev/null
cmake --build "$BUILD_DIR" -j "$JOBS"
cmake -B "$BUILD_DIR/perfbench" -S perfbench "${PROBE_FLAGS[@]}" > /dev/null
cmake --build "$BUILD_DIR/perfbench" -j "$JOBS" --target x2vec_perfbench

step "compare library functions with what non-test binaries link"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

LIBS=("$BUILD_DIR"/src/libx2vec_*.a)
for lib in "${LIBS[@]}"; do
  nm --defined-only "$lib" | awk '$2 == "T" { print $3 }'
done | sort -u > "$WORK/library"

mapfile -t BINARIES < <(non_test_binaries)
if [[ ${#BINARIES[@]} -eq 0 ]]; then
  echo "check_reach.sh: no non-test binary under $BUILD_DIR" >&2
  exit 1
fi
for binary in "${BINARIES[@]}"; do
  nm --defined-only "$binary" | awk '{ print $3 }'
done | sort -u > "$WORK/reached"

# An unreached symbol's qualified name: demangled, without its parameter
# list and the x2vec:: prefix (overloads share a name).
comm -23 "$WORK/library" "$WORK/reached" | c++filt |
  sed -E 's/operator\(\)\(.*$/operator()/; t; s/\(.*$//' |
  sed -E 's/^x2vec:://; s/\[abi:[^]]*\]//g' | sort -u > "$WORK/unreached"

# Allowlist lines are `<qualified name> <reason>`; `#` starts a comment.
sed -E 's/#.*$//; s/[[:space:]]+$//' "$ALLOWLIST" | awk 'NF' > "$WORK/entries"
awk -v reasons=" $REASONS " 'NF < 2 || !index(reasons, " " $NF " ")' \
  "$WORK/entries" > "$WORK/malformed"
sed -E 's/[[:space:]]+[^[:space:]]+$//' "$WORK/entries" | sort -u > "$WORK/allowed"
comm -23 "$WORK/unreached" "$WORK/allowed" > "$WORK/missing"
comm -13 "$WORK/unreached" "$WORK/allowed" > "$WORK/stale"

sed "s/^/$(basename "$ALLOWLIST"): the reason is not one of $REASONS: /" \
  "$WORK/malformed" >&2
sed 's/^/unreached: /; s/$/: no non-test binary links it/' "$WORK/missing" >&2
sed 's/^/stale: /; s/$/: allowlisted, but not an unreached function/' \
  "$WORK/stale" >&2

echo "$(wc -l < "$WORK/library") library functions in ${#LIBS[@]} libraries;" \
  "${#BINARIES[@]} non-test binaries;" \
  "$(wc -l < "$WORK/unreached") unreached names;" \
  "$(wc -l < "$WORK/allowed") allowlisted"
for reason in $REASONS; do
  echo "  $reason: $(awk -v r="$reason" '$NF == r' "$WORK/entries" | wc -l)"
done
if [[ -s "$WORK/malformed" || -s "$WORK/missing" || -s "$WORK/stale" ]]; then
  echo "check_reach.sh: FAILED: delete each unreached function, give it a" \
    "caller, or allowlist it with its reason; delete each stale line" >&2
  exit 1
fi
echo "check_reach.sh: every library function is reached or allowlisted"
