#!/usr/bin/env bash
# Byte-for-byte output parity between two source trees.
#
#   scripts/parity.sh PARENT_DIR        (or: make parity PARENT=PARENT_DIR)
#
# Builds lfs_tool and the bench harness in PARENT_DIR and in this tree,
# runs one fixed list of deterministic commands in each, and cmp's the
# outputs pairwise (the bench's closing "[bench completed in N s]"
# wall-clock line excepted).  A change that claims to touch only
# host-side cost (no modelled time, no written byte) must report every
# output identical.  Exits 1 if any output differs.
set -euo pipefail

if [ $# -ne 1 ] || [ ! -d "$1" ]; then
  echo "usage: $0 PARENT_DIR" >&2
  exit 2
fi
here=$(cd "$(dirname "$0")/.." && pwd)
parent=$(cd "$1" && pwd)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

serve="serve --clients 16 --ops 100 --seed 42 --json"
cases=(
  "serve-lfs|lfs_tool $serve --fs lfs"
  "serve-lfs-iodepth8|lfs_tool $serve --fs lfs --io-depth 8"
  "serve-heads2-bgclean|lfs_tool $serve --fs lfs:heads=2 --bg-clean"
  "serve-shard2-iodepth8|lfs_tool $serve --fs shard:2 --io-depth 8"
  "serve-tier25-bgclean|lfs_tool $serve --fs lfs:tier:25 --bg-clean"
  "modelcheck-lfs-iodepth4|lfs_tool modelcheck --fs lfs --io-depth 4 --json"
  "bench-quick-writecost|bench quick writecost"
)

for tree in "$parent" "$here"; do
  (cd "$tree" && dune build bin/lfs_tool.exe bench/main.exe)
done

run() {
  local tree=$1 cmd=$2 exe
  case ${cmd%% *} in
    lfs_tool) exe=$tree/_build/default/bin/lfs_tool.exe ;;
    bench) exe=$tree/_build/default/bench/main.exe ;;
  esac
  # Word splitting of the argument list is intended.  The bench's
  # closing wall-clock line is the one output that may differ.
  # shellcheck disable=SC2086
  (cd "$tree" && "$exe" ${cmd#* }) | sed '/^\[bench completed in /d'
}

status=0
for c in "${cases[@]}"; do
  name=${c%%|*}
  cmd=${c#*|}
  run "$parent" "$cmd" > "$out/$name.parent"
  run "$here" "$cmd" > "$out/$name.change"
  if cmp -s "$out/$name.parent" "$out/$name.change"; then
    echo "identical  $name"
  else
    echo "DIFFERS    $name  ($cmd)"
    status=1
  fi
done
exit $status
