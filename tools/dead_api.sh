#!/usr/bin/env bash
# Lists the avf:: functions that the src/ libraries define but no program
# keeps, and fails if one of them is not in tools/dead_api_allow.txt.
#
# Every non-test program is built at -O0 with one section per function and
# linked with --gc-sections: the 35 programs of the main build (bench/,
# tools/, examples/) and avf_bench from its own CMake project.  At -O0
# nothing is inlined, so a function that no program keeps is reached by no
# program: its only callers are tests or other unkept functions.
#
# Each line of the allow list is one demangled name as printed here,
# followed by "# <reason>".  Allowed names that some program keeps again are
# reported as stale but do not fail the scan.
#
#   tools/dead_api.sh      # builds into build-dead-api/, ~75 s on 4 cores
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=$root/build-dead-api
allow=$root/tools/dead_api_allow.txt
jobs=$(nproc)
flags=(-G Ninja -DCMAKE_BUILD_TYPE=None
       "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

cmake -S "$root" -B "$out/main" "${flags[@]}" > /dev/null
cmake --build "$out/main" -j "$jobs" \
  --target bench-build/all tools/all examples/all > /dev/null
cmake -S "$root/avf_bench" -B "$out/avf_bench" "${flags[@]}" > /dev/null
cmake --build "$out/avf_bench" -j "$jobs" --target avf_bench > /dev/null

programs=()
for dir in "$out/main/bench" "$out/main/tools" "$out/main/examples"; do
  while IFS= read -r f; do programs+=("$f"); done < <(
    find "$dir" -maxdepth 1 -type f -perm -u+x ! -name '*.*' | sort)
done
programs+=("$out/avf_bench/avf_bench")

# Demangled avf:: functions (text symbols) defined in the given files.
functions() {
  nm --defined-only "$@" 2> /dev/null |
    awk '$2 ~ /^[TtWw]$/ && $3 ~ /^_ZN[KVRO]*3avf/ { print $3 }' |
    c++filt | LC_ALL=C sort -u
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
functions $(find "$out/main/src" -name 'libavf_*.a' | sort) > "$tmp/defined"
functions "${programs[@]}" > "$tmp/kept"
LC_ALL=C comm -23 "$tmp/defined" "$tmp/kept" > "$tmp/unkept"

touch "$tmp/allowed"
if [[ -f $allow ]]; then
  bad=$(grep -v -e '^#' -e '^[[:space:]]*$' "$allow" | grep -v ' # .' || true)
  if [[ -n $bad ]]; then
    printf 'dead_api: allow-list line without a reason:\n%s\n' "$bad" >&2
    exit 1
  fi
  grep -v -e '^#' -e '^[[:space:]]*$' "$allow" | sed 's/  *# .*$//' |
    LC_ALL=C sort -u > "$tmp/allowed"
fi
LC_ALL=C comm -23 "$tmp/unkept" "$tmp/allowed" > "$tmp/unlisted"
LC_ALL=C comm -13 "$tmp/unkept" "$tmp/allowed" > "$tmp/stale"

echo "dead_api: ${#programs[@]} programs; $(wc -l < "$tmp/unkept") unkept" \
     "avf:: functions, $(wc -l < "$tmp/unlisted") not in the allow list"
sed 's/^/  unkept: /' "$tmp/unkept"
sed 's/^/  stale allow-list entry (kept or gone): /' "$tmp/stale"
if [[ -s $tmp/unlisted ]]; then
  echo "dead_api: no program calls these; delete them or list them with a" \
       "reason in tools/dead_api_allow.txt:" >&2
  sed 's/^/  /' "$tmp/unlisted" >&2
  exit 1
fi
