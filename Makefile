GO ?= go

.PHONY: all build test race vet fmt check fuzz bench bench-check bench-smoke bench-compare explain-smoke chaos-smoke shard-smoke codec-smoke serve-smoke subs-smoke

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fails if any file needs reformatting, and names the offenders.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

check: vet fmt race

fuzz:
	$(GO) test ./internal/page -fuzz FuzzChecksumRoundTrip -fuzztime 30s
	$(GO) test ./internal/query -fuzz FuzzQuery -fuzztime 10s

bench:
	$(GO) test -bench . -benchmem ./...

# The benchmark of record (bench/, its own Go 1.24 module) must keep
# compiling against the internal packages it drives.
bench-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench test -race ./...

# Quick micro-benchmark pass (compile + a short run of every
# benchmark) — catches benchmarks that no longer build or crash.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 50ms ./internal/join/ ./internal/prefetch/ ./internal/page/

# Scan-versus-sweep kernel comparison: Go micro-benchmarks for both
# kernels plus the vtbench kernel figure, which differentially verifies
# the kernels against each other and writes BENCH_pr3.json (wall clock,
# CPU time per phase, allocations via -benchmem).
bench-compare:
	$(GO) test -run '^$$' -bench 'ProbeBatch|Matcher' -benchmem ./internal/join/
	$(GO) run ./cmd/vtbench -figure kernels -scale 64 -benchjson BENCH_pr3.json

# Mid-query abort smoke: the chaos matrix (every algorithm × engine ×
# kernel aborted by cancellation, deadline and permanent faults) under
# the race detector, then an end-to-end vtbench run with a deadline it
# cannot meet — which must exit with the cancellation code (3) and
# leave no temporary files behind (the in-process audits enforce the
# file half; the exit code is asserted here).
chaos-smoke:
	$(GO) test -race -count=1 -run 'TestChaos|TestJoinsSurviveMidJoin|TestJoinsFailCleanlyOnMidJoin|TestSortDrops|TestDoPartitioningDrops|TestDoPartitioningPairCleans' \
		./internal/join/ ./internal/extsort/ ./internal/partition/
	@$(GO) build -o /tmp/vtbench-chaos ./cmd/vtbench; \
	/tmp/vtbench-chaos -figure 7 -scale 8 -timeout 50ms; code=$$?; \
	rm -f /tmp/vtbench-chaos; \
	if [ $$code -ne 3 ]; then \
		echo "vtbench under an unmeetable deadline exited $$code, want 3"; exit 1; \
	fi; \
	echo "chaos-smoke: deadline abort exited 3 as required"

# Time-sharded execution smoke: the shard test matrix (differential
# identity vs the unsharded reference across algorithms × kernels ×
# predicates, ordering determinism, per-shard I/O vs a composed
# reference, and the K-device chaos strikes) under the race detector,
# then the multi-core scaling figure end to end, whose checksum column
# self-verifies sharded-vs-unsharded result identity.
shard-smoke:
	$(GO) test -race -count=1 ./internal/shard/
	$(GO) run ./cmd/vtbench -figure shards -scale 8 -benchjson BENCH_pr7.json

# Compressed page codec smoke: the v2 codec unit suite, the
# format differential matrix (3 algorithms × 2 kernels × 8 predicate
# masks, run twice under v1 for byte + counter identity and once under
# v2 for result identity), the v2 fault matrix, short runs of both v2
# fuzz targets, then the codec figure end to end — which stores every
# workload under both formats and refuses to report a compression
# ratio unless the result checksums agree.
codec-smoke:
	$(GO) test -race -count=1 \
		-run 'TestV2|TestCodecDifferential|TestFromBytesRejects|TestParseFormat|TestFigureCodec' \
		./internal/page/ ./internal/join/ ./internal/experiments/
	$(GO) test ./internal/page -fuzz FuzzV2RoundTrip -fuzztime 10s
	$(GO) test ./internal/page -fuzz FuzzV2CorruptImage -fuzztime 10s
	$(GO) run ./cmd/vtbench -figure codec -scale 64 -benchjson BENCH_pr8.json

# End-to-end EXPLAIN/trace smoke: generate a small input pair, run
# every algorithm with -explain -audit -trace, and let vtjoin's own
# audit verify the written JSON sums exactly to the device counters.
explain-smoke:
	@tmp=$$(mktemp -d); \
	trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/vtgen -tuples 3000 -longlived 200 -keys 40 -seed 1 -o $$tmp/left.csv; \
	$(GO) run ./cmd/vtgen -tuples 3000 -longlived 200 -keys 40 -seed 2 -o $$tmp/right.csv; \
	for algo in partition sortmerge nestedloop; do \
		echo "== $$algo =="; \
		$(GO) run ./cmd/vtjoin -algo $$algo -memory 32 -explain -audit \
			-trace $$tmp/$$algo.json -o /dev/null $$tmp/left.csv $$tmp/right.csv || exit 1; \
	done

# Query service smoke: unit suites for the language, planner, executor
# and server under the race detector, then a real server process
# driven through a scripted client session — load, a verified query, a
# deliberately cancelled query (1 ms server-side timeout on a heavy
# nested-loop join), stats — and a SIGTERM drain. The server verifies
# its own shutdown invariants (buffer pool balanced, zero leaked
# files) and prints the "clean shutdown" line this target greps; a
# missing line or a non-zero exit fails the smoke.
serve-smoke:
	$(GO) test -race -count=1 ./internal/query/ ./internal/plan2/ ./internal/serve/
	@tmp=$$(mktemp -d); \
	trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/vtserve ./cmd/vtserve || exit 1; \
	seq 0 2999 | awk -F, '{i=$$1; printf "%d,%d,%d,%d\n", i%997, i%997+50, i%37, i}' \
		| { echo "vs,ve,key:int,a:int"; cat; } > $$tmp/r.csv; \
	seq 0 2999 | awk -F, '{i=$$1; printf "%d,%d,%d,%d\n", (i*7)%997, (i*7)%997+50, i%37, i}' \
		| { echo "vs,ve,key:int,b:int"; cat; } > $$tmp/s.csv; \
	$$tmp/vtserve -addr 127.0.0.1:7497 -memory 256 -query-memory 16 \
		-load r=$$tmp/r.csv -load s=$$tmp/s.csv 2> $$tmp/server.log & \
	pid=$$!; \
	up=0; \
	for i in $$(seq 1 100); do \
		if $$tmp/vtserve client -addr http://127.0.0.1:7497 -stats >/dev/null 2>&1; then up=1; break; fi; \
		sleep 0.1; \
	done; \
	if [ $$up -ne 1 ]; then echo "server never came up"; cat $$tmp/server.log; exit 1; fi; \
	$$tmp/vtserve client -addr http://127.0.0.1:7497 \
		-q "scan r | join scan s using partition memory 32" > $$tmp/out.csv \
		|| { echo "query session failed"; cat $$tmp/server.log; exit 1; }; \
	rows=$$(($$(wc -l < $$tmp/out.csv) - 1)); \
	if [ $$rows -lt 1 ]; then echo "served join produced no rows"; exit 1; fi; \
	$$tmp/vtserve client -addr http://127.0.0.1:7497 -timeout-ms 1 -expect-status aborted \
		-q "scan r | join scan s using nestedloop memory 16" > /dev/null \
		|| { echo "cancelled query did not abort cleanly"; cat $$tmp/server.log; exit 1; }; \
	$$tmp/vtserve client -addr http://127.0.0.1:7497 -stats | grep -q '"aborted": *1' \
		|| { echo "stats do not count the aborted query"; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid; code=$$?; \
	if [ $$code -ne 0 ]; then \
		echo "server exited $$code after SIGTERM, want 0"; cat $$tmp/server.log; exit 1; \
	fi; \
	grep -q "clean shutdown: pool balanced" $$tmp/server.log \
		|| { echo "no clean-shutdown verification in server log:"; cat $$tmp/server.log; exit 1; }; \
	echo "serve-smoke: $$rows rows served, cancelled query aborted, clean shutdown verified"

# Subscription smoke: the incremental-view, server and steady-state
# harness suites under the race detector, then a real server process
# with a live subscriber — open a subscription, append a batch, assert
# the delta rows arrive on the stream, close client-side — and a
# SIGTERM drain whose clean-shutdown invariants (pool balanced, zero
# leaked files, zero open subscriptions) the server verifies itself.
subs-smoke:
	$(GO) test -race -count=1 ./internal/incremental/ ./internal/serve/
	$(GO) test -race -count=1 -run TestRunFigureSubsSmall ./internal/experiments/
	@tmp=$$(mktemp -d); \
	trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/vtserve ./cmd/vtserve || exit 1; \
	seq 0 499 | awk '{i=$$1; printf "%d,%d,%d,%d\n", i%89, i%89+40, i%13, i}' \
		| { echo "vs,ve,key:int,a:int"; cat; } > $$tmp/r.csv; \
	seq 0 499 | awk '{i=$$1; printf "%d,%d,%d,%d\n", (i*3)%89, (i*3)%89+40, i%13, i}' \
		| { echo "vs,ve,key:int,b:int"; cat; echo "5,now,3,8000"; } > $$tmp/s.csv; \
	{ echo "vs,ve,key:int,a:int"; echo "0,now,3,9001"; echo "10,now,7,9002"; } > $$tmp/delta.csv; \
	$$tmp/vtserve -addr 127.0.0.1:7498 -memory 256 -query-memory 16 \
		-load r=$$tmp/r.csv -load s=$$tmp/s.csv 2> $$tmp/server.log & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	up=0; \
	for i in $$(seq 1 100); do \
		if $$tmp/vtserve client -addr http://127.0.0.1:7498 -stats >/dev/null 2>&1; then up=1; break; fi; \
		sleep 0.1; \
	done; \
	if [ $$up -ne 1 ]; then echo "server never came up"; cat $$tmp/server.log; exit 1; fi; \
	$$tmp/vtserve client -addr http://127.0.0.1:7498 \
		-subscribe "scan r | join scan s using partition memory 16" \
		-max-rows 5 -expect-status client-closed > $$tmp/sub.csv 2> $$tmp/sub.log & \
	subpid=$$!; \
	reg=0; \
	for i in $$(seq 1 100); do \
		if [ -s $$tmp/sub.csv ]; then reg=1; break; fi; \
		sleep 0.1; \
	done; \
	if [ $$reg -ne 1 ]; then echo "subscription header never arrived"; cat $$tmp/sub.log; exit 1; fi; \
	$$tmp/vtserve client -addr http://127.0.0.1:7498 -append r -file $$tmp/delta.csv \
		2> $$tmp/append.log \
		|| { echo "append failed"; cat $$tmp/append.log $$tmp/server.log; exit 1; }; \
	grep -q '"deltaRows":' $$tmp/append.log \
		|| { echo "append reported no delta accounting:"; cat $$tmp/append.log; exit 1; }; \
	if wait $$subpid; then :; else \
		echo "subscriber exited non-zero"; cat $$tmp/sub.log $$tmp/server.log; exit 1; \
	fi; \
	rows=$$(($$(wc -l < $$tmp/sub.csv) - 1)); \
	if [ $$rows -lt 5 ]; then echo "subscriber got $$rows delta rows, want >= 5"; cat $$tmp/sub.csv; exit 1; fi; \
	$$tmp/vtserve client -addr http://127.0.0.1:7498 \
		-q "scan r | join scan s using partition memory 16" 2>/dev/null \
		| grep -q ',now,' \
		|| { echo "ongoing rows lost the now sentinel in served results"; exit 1; }; \
	$$tmp/vtserve client -addr http://127.0.0.1:7498 -stats | grep -q '"subscriptionsOpened": *1' \
		|| { echo "stats do not count the subscription"; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid; code=$$?; \
	if [ $$code -ne 0 ]; then \
		echo "server exited $$code after SIGTERM, want 0"; cat $$tmp/server.log; exit 1; \
	fi; \
	grep -q "clean shutdown: pool balanced" $$tmp/server.log \
		|| { echo "no clean-shutdown verification in server log:"; cat $$tmp/server.log; exit 1; }; \
	echo "subs-smoke: $$rows delta rows streamed, client-closed teardown, clean shutdown verified"
