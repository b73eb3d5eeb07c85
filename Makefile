# Convenience targets; everything is plain dune underneath.

# pipefail so `| tee` in verify cannot mask a failing build or test run.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

all:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

bench-quick:
	dune exec bench/main.exe -- quick

micro:
	dune exec bench/main.exe -- micro

examples:
	dune exec examples/quickstart.exe
	dune exec examples/office_workload.exe
	dune exec examples/crash_recovery.exe
	dune exec examples/cleaner_tuning.exe
	dune exec examples/nvram_buffer.exe

verify:
	dune build @all
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

ci:
	dune build @all
	dune runtest
	dune exec bench/main.exe -- quick
	dune exec bin/lfs_tool.exe -- crashtest --workload smallfile --stride 3 --seed 1
	dune exec bin/lfs_tool.exe -- crashtest --workload script --stride 3 --seed 1
	# Model-based crash refinement smoke: random op sequences checked
	# against the pure model at strided commit-order crash points with
	# group commit and io-depth 4 in flight.  Gates on zero divergences
	# for lfs and the shard router, and on determinism — the same seed
	# twice must produce byte-identical JSON.
	dune exec bin/lfs_tool.exe -- modelcheck --fs lfs --seqs 6 --stride 4 --seed 1
	dune exec bin/lfs_tool.exe -- modelcheck --fs shard:2 --seqs 4 --stride 4 --seed 1
	dune exec bin/lfs_tool.exe -- modelcheck --fs lfs --seqs 3 --stride 5 --seed 2 --json > ci-model-a.json
	dune exec bin/lfs_tool.exe -- modelcheck --fs lfs --seqs 3 --stride 5 --seed 2 --json > ci-model-b.json
	cmp ci-model-a.json ci-model-b.json
	rm -f ci-model-a.json ci-model-b.json
	# Stats smoke: exercise a small image (geometry chosen so the cleaner
	# engages), then --check fails on any NaN/negative metric in the JSON.
	dune exec bin/lfs_tool.exe -- mkfs ci-stats.img --blocks 1024 --segment-blocks 64
	dune exec bin/lfs_tool.exe -- stats ci-stats.img --exercise 120 --json --check > ci-stats.json
	dune exec bin/lfs_tool.exe -- stats ci-stats.img --exercise 120 > /dev/null
	rm -f ci-stats.img ci-stats.json
	# Server smoke: a small client sweep over both backends with metric
	# validation, then the determinism gate — the same seed twice must
	# produce byte-identical JSON.
	dune exec bench/main.exe -- server quick
	dune exec bin/lfs_tool.exe -- serve --clients 8 --ops 50 --seed 1 --check > /dev/null
	dune exec bin/lfs_tool.exe -- serve --clients 8 --ops 50 --seed 1 --fs ffs --check > /dev/null
	dune exec bin/lfs_tool.exe -- serve --clients 16 --ops 50 --seed 42 --json --check > ci-serve-a.json
	dune exec bin/lfs_tool.exe -- serve --clients 16 --ops 50 --seed 42 --json --check > ci-serve-b.json
	cmp ci-serve-a.json ci-serve-b.json
	rm -f ci-serve-a.json ci-serve-b.json
	# Background-cleaning smoke: the --bg-clean flag on both backends
	# (a no-op on ffs), the bench sweep, and the determinism gate again
	# with the flag on — idle cleaner steps run on the modelled clock,
	# so equal seeds must still produce byte-identical JSON.
	dune exec bin/lfs_tool.exe -- serve --clients 8 --ops 50 --seed 1 --bg-clean --check > /dev/null
	dune exec bin/lfs_tool.exe -- serve --clients 8 --ops 50 --seed 1 --fs ffs --bg-clean --check > /dev/null
	dune exec bench/main.exe -- bgclean quick
	dune exec bin/lfs_tool.exe -- serve --clients 16 --ops 50 --seed 42 --bg-clean --json --check > ci-bgclean-a.json
	dune exec bin/lfs_tool.exe -- serve --clients 16 --ops 50 --seed 42 --bg-clean --json --check > ci-bgclean-b.json
	cmp ci-bgclean-a.json ci-bgclean-b.json
	rm -f ci-bgclean-a.json ci-bgclean-b.json
	# IO-depth smoke: the queued submit/complete pipeline on both
	# backends, the depth sweep, and the determinism gate — device
	# completions are events on the modelled clock, so equal seeds must
	# still produce byte-identical JSON.
	dune exec bin/lfs_tool.exe -- serve --clients 8 --ops 50 --seed 1 --io-depth 8 --check > /dev/null
	dune exec bin/lfs_tool.exe -- serve --clients 8 --ops 50 --seed 1 --fs ffs --io-depth 8 --check > /dev/null
	dune exec bench/main.exe -- iodepth quick
	dune exec bin/lfs_tool.exe -- serve --clients 16 --ops 50 --seed 42 --io-depth 8 --json --check > ci-iodepth-a.json
	dune exec bin/lfs_tool.exe -- serve --clients 16 --ops 50 --seed 42 --io-depth 8 --json --check > ci-iodepth-b.json
	cmp ci-iodepth-a.json ci-iodepth-b.json
	rm -f ci-iodepth-a.json ci-iodepth-b.json
	# Sharding smoke: both placement policies through the serving engine,
	# an exercised in-memory sharded volume with metric validation, the
	# one-faulted-shard crash sweep, the scaling sweep, and the
	# determinism gate on a sharded volume — equal seeds must produce
	# byte-identical JSON across four independent logs.
	dune exec bin/lfs_tool.exe -- serve --clients 8 --ops 50 --seed 1 --fs shard:4:by_hash --check > /dev/null
	dune exec bin/lfs_tool.exe -- serve --clients 8 --ops 50 --seed 1 --fs shard:4:by_subtree --check > /dev/null
	dune exec bin/lfs_tool.exe -- stats --fs shard:4 --exercise 80 --json --check > /dev/null
	dune exec bin/lfs_tool.exe -- crashtest --fs shard:2 --workload script --stride 7 --seed 1
	dune exec bench/main.exe -- quick shard
	dune exec bin/lfs_tool.exe -- serve --clients 16 --ops 50 --seed 42 --fs shard:4 --io-depth 8 --json --check > ci-shard-a.json
	dune exec bin/lfs_tool.exe -- serve --clients 16 --ops 50 --seed 42 --fs shard:4 --io-depth 8 --json --check > ci-shard-b.json
	cmp ci-shard-a.json ci-shard-b.json
	rm -f ci-shard-a.json ci-shard-b.json
	# Tiered-storage smoke: both promotion policies through the serving
	# engine, the tier crash sweep and refinement check (cuts enumerated
	# over the fast child, so they land inside placement-map writes and
	# demotion copies), the placement/latency bench gates, and the
	# determinism gate on a tiered volume.
	dune exec bin/lfs_tool.exe -- serve --clients 8 --ops 50 --seed 1 --fs lfs:tier:25 --check > /dev/null
	dune exec bin/lfs_tool.exe -- serve --clients 8 --ops 50 --seed 1 --fs lfs:tier:25:promote=2 --check > /dev/null
	dune exec bin/lfs_tool.exe -- stats --fs lfs:tier --exercise 80 --json --check > /dev/null
	dune exec bin/lfs_tool.exe -- crashtest --fs lfs:tier --workload script --stride 7 --seed 1
	dune exec bin/lfs_tool.exe -- modelcheck --fs lfs:tier --seqs 3 --stride 5 --seed 1
	dune exec bench/main.exe -- quick tier
	dune exec bin/lfs_tool.exe -- serve --clients 16 --ops 50 --seed 42 --fs lfs:tier:25:promote=2 --json --check > ci-tier-a.json
	dune exec bin/lfs_tool.exe -- serve --clients 16 --ops 50 --seed 42 --fs lfs:tier:25:promote=2 --json --check > ci-tier-b.json
	cmp ci-tier-a.json ci-tier-b.json
	rm -f ci-tier-a.json ci-tier-b.json
	# Multi-head log smoke: serve on lfs:heads=2 with and without the
	# background cleaner (survivors route through the cold head), metric
	# validation, the crash sweep and refinement check with cuts landing
	# in either head's summary chain, the write-cost segregation gate,
	# and the determinism gate — equal seeds must produce byte-identical
	# JSON with two log heads, bg-clean on and off.
	dune exec bin/lfs_tool.exe -- serve --clients 8 --ops 50 --seed 1 --fs lfs:heads=2 --check > /dev/null
	dune exec bin/lfs_tool.exe -- serve --clients 8 --ops 50 --seed 1 --fs lfs:heads=2 --bg-clean --check > /dev/null
	dune exec bin/lfs_tool.exe -- stats --fs lfs:heads=2 --exercise 80 --json --check > /dev/null
	dune exec bin/lfs_tool.exe -- crashtest --fs lfs:heads=2 --workload script --stride 7 --seed 1
	dune exec bin/lfs_tool.exe -- modelcheck --fs lfs:heads=2 --seqs 3 --stride 5 --seed 1
	dune exec bench/main.exe -- quick writecost
	dune exec bin/lfs_tool.exe -- serve --clients 16 --ops 50 --seed 42 --fs lfs:heads=2 --json --check > ci-heads-a.json
	dune exec bin/lfs_tool.exe -- serve --clients 16 --ops 50 --seed 42 --fs lfs:heads=2 --json --check > ci-heads-b.json
	cmp ci-heads-a.json ci-heads-b.json
	dune exec bin/lfs_tool.exe -- serve --clients 16 --ops 50 --seed 42 --fs lfs:heads=2 --bg-clean --json --check > ci-heads-bg-a.json
	dune exec bin/lfs_tool.exe -- serve --clients 16 --ops 50 --seed 42 --fs lfs:heads=2 --bg-clean --json --check > ci-heads-bg-b.json
	cmp ci-heads-bg-a.json ci-heads-bg-b.json
	rm -f ci-heads-a.json ci-heads-b.json ci-heads-bg-a.json ci-heads-bg-b.json
	# Benchmark harness smoke: build perfbench/lfsbench.exe and run its
	# watchdog self-test, so the declared benchmark cannot rot between
	# full runs.
	python3 perfbench/run.py --selftest

# Output parity against another source tree (e.g. the parent commit,
# unpacked with `git archive <commit> | tar x -C <dir>`): every output of
# a fixed command list must be byte-identical.
parity:
	@test -n "$(PARENT)" || { echo "usage: make parity PARENT=<dir>" >&2; exit 2; }
	scripts/parity.sh "$(PARENT)"

clean:
	dune clean

.PHONY: all test bench bench-quick micro examples verify ci parity clean
