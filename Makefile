.PHONY: all check test fuzz fuzz-quick bench bench-json bench-quick bench-codecs perf-gate maybe-perf-gate server-bench ab-bench storm-bench paging-bench paging-baseline traces dict tune policy-check clean

all:
	dune build

# the tier-1 gate: everything must compile and the test suite must pass.
# fuzz-quick runs first as a fast fail-early pass over every decoder;
# maybe-perf-gate (opt-in via PERF_GATE=1) compares stage wall times
# against the committed baseline BEFORE bench-codecs overwrites it;
# bench-codecs proves every registered codec encodes+decodes and tracks
# the per-stage matrix; policy-check validates the committed serving
# policy against the registry and smoke-runs the tuner; the suite
# itself (one `dune runtest`) then includes the full 10k-iteration
# fuzz layer and the differential tests; ab-bench replays the committed
# flash-crowd trace under the tuned policy vs live scoring and gates
# the diff (deterministic, so it runs unconditionally); paging-bench
# runs the demand-paged execution sweep and holds its fault/stall/ratio
# ceilings (also deterministic — modelled cycles only)
check: fuzz-quick maybe-perf-gate bench-codecs policy-check ab-bench storm-bench paging-bench
	dune build && dune runtest

# off by default (timings on shared runners are noisy); opt in with
#   PERF_GATE=1 make check
maybe-perf-gate:
	@if [ "$(PERF_GATE)" = "1" ]; then $(MAKE) perf-gate; else \
	  echo "perf-gate: skipped (set PERF_GATE=1 to enable)"; fi

# regenerate the per-stage matrix and compare it against the committed
# BENCH_compressor.json: fails if any stage's wall time regressed >25%
# (beyond a 2 ms noise floor). The fresh run is kept next to the
# baseline for inspection; bench-codecs is what refreshes the baseline.
perf-gate:
	dune build bench/perf_gate.exe
	dune exec bench/main.exe -- --quick --codecs-json > BENCH_compressor.new.json
	dune exec bench/perf_gate.exe -- BENCH_compressor.json BENCH_compressor.new.json
	@rm -f BENCH_compressor.new.json
	$(MAKE) server-bench
	dune exec bench/perf_gate.exe -- --server BENCH_server.json

# drive the real daemon over loopback TCP with the seeded streaming-heavy
# mix and write the latency/QPS report to BENCH_server.json; the server
# half of perf-gate then checks the absolute floors (>= 1000 QPS, zero
# corruption, zero errors)
server-bench:
	dune build bin/mccload.exe
	dune exec bin/mccload.exe -- --self --quick --clients 16 --requests 8000 \
	  --stream-pct 70 --chunks 24 --json BENCH_server.json
	@cat BENCH_server.json

# A/B the tuned serving policy against live scoring over the committed
# flash-crowd trace (mccsim ab) and gate the diff: the tuned side may
# not regress bytes-on-wire (>1%) or overall p99 (>10% + 0.5 ms). The
# replay is fully deterministic (modelled latencies), so this runs in
# CI without a noise opt-out.
ab-bench:
	dune build bin/mccsim.exe bench/perf_gate.exe
	dune exec bin/mccsim.exe -- ab traces/flash_crowd.trace \
	  --a-policy POLICY.tune --json --out BENCH_ab.json
	dune exec bench/perf_gate.exe -- --ab BENCH_ab.json

# replay the committed update-storm trace with the update channel on
# and off (mccsim storm) and gate the savings: delta delivery must stay
# at or under 40% of full-redelivery bytes on the update ops, with zero
# client-side decode-verification failures. Deterministic, like ab-bench.
storm-bench:
	dune build bin/mccsim.exe bench/perf_gate.exe
	dune exec bin/mccsim.exe -- storm traces/update_storm.trace \
	  --json --out BENCH_storm.json
	dune exec bench/perf_gate.exe -- --storm BENCH_storm.json

# demand-paged execution sweep: run the profiled corpus under the pager
# in source order vs profile-guided hot layout across resident budgets
# (50/25/12% of the decompressed image), write the fault/stall/ratio
# matrix to BENCH_paging.new.json, and gate it — chunked bytes must be
# exactly invariant under reorder, the hot layout must strictly reduce
# total faults on every point, and the 25%-budget stall overhead stays
# under its pinned ceiling. Modelled cycles only: deterministic, so it
# runs unconditionally in `make check`. Each point also records the cost
# of one page-in (expanding every chunk of the hot image once): minor
# words per chunk, gated at +5% over the committed BENCH_paging.json
# (allocation is deterministic), and best-of-5 microseconds per chunk,
# recorded for attribution but not gated. The committed file is the
# fixed baseline: this target never rewrites it, so passing runs cannot
# creep the bound upward. `make paging-baseline` rewrites it on purpose.
paging-bench:
	dune build bench/main.exe bench/perf_gate.exe
	dune exec bench/main.exe -- --paging-json > BENCH_paging.new.json
	dune exec bench/perf_gate.exe -- --paging BENCH_paging.new.json BENCH_paging.json

# rewrite the committed paging baseline (after a deliberate change to the
# modelled numbers or to page-in allocation; commit it with the reason)
paging-baseline:
	dune build bench/main.exe
	dune exec bench/main.exe -- --paging-json > BENCH_paging.json

# regenerate the golden scenario trace corpus (only needed when the
# generators or the catalog change; the replays of these files are
# regression-checked by dune runtest)
traces:
	dune build bin/mccsim.exe
	for s in steady flash-crowd corruption-burst mixed-profiles paging; do \
	  dune exec bin/mccsim.exe -- record --scenario $$s --catalog quick \
	    --events 400 --seed 42 --out traces/$$(echo $$s | tr - _).trace; \
	  dune exec bin/mccsim.exe -- replay traces/$$(echo $$s | tr - _).trace \
	    > traces/$$(echo $$s | tr - _).report; \
	done
	dune exec bin/mccsim.exe -- record --scenario update-storm \
	  --catalog versioned --events 400 --seed 42 \
	  --out traces/update_storm.trace
	dune exec bin/mccsim.exe -- replay traces/update_storm.trace \
	  > traces/update_storm.report

# regenerate the committed corpus-trained shared dictionary
# (lib/codec/shared_dict_data.ml); the digest-pin test fails when the
# corpus and the committed bytes drift apart
dict:
	dune exec bin/mccdict.exe

test:
	dune runtest

# bounded-seed fuzz pass (~12s): 1500 mutations per untrusted-input
# decoder, same seeds every run
fuzz-quick:
	FUZZ_ITERS=1500 dune exec test/test_fuzz.exe

# full fuzz pass: FUZZ_ITERS mutations per decoder (default 10000)
fuzz:
	dune exec test/test_fuzz.exe

bench:
	dune exec bench/main.exe -- --quick --no-bechamel

bench-json:
	dune exec bench/main.exe -- --quick --json

# compressor-timing slice only: Dict.build in full-scan / incremental /
# parallel modes on the gcc-like point, tracked across PRs
bench-quick:
	dune exec bench/main.exe -- --quick --compressor-json > BENCH_compressor.json
	@cat BENCH_compressor.json

# per-stage codec matrix: bytes-in/bytes-out/wall time for every stage
# of every registered codec on the smallest and largest corpus points,
# written to BENCH_compressor.json for cross-PR tracking
bench-codecs:
	dune exec bench/main.exe -- --quick --codecs-json > BENCH_compressor.json
	@cat BENCH_compressor.json

# regenerate the committed serving-policy table: search the registry's
# (codec x mode) grid per corpus point against each client profile's
# modelled total delivery time and write the argmins to POLICY.tune
tune:
	dune exec bin/mcctune.exe -- -o POLICY.tune

# validate the committed table (parses, current version, references
# only registered whole-image codecs) and smoke-run the tuner on two
# corpus points so a search-path regression fails here, not in serving
policy-check:
	dune exec bin/mcctune.exe -- check POLICY.tune --smoke

clean:
	dune clean
