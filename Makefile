# Convenience entry points; dune is the build system.

.PHONY: all check check-crash check-maintain check-codec check-planner check-serve check-selfobs check-net test bench bench-par bench-recovery bench-obs bench-maintain bench-codec bench-planner bench-overload bench-slo bench-net bench-trend perfbench clean

all:
	dune build

# The gate a change must pass before review: full build (including every
# executable), the whole test suite, and nothing left half-compiled.
check:
	dune build
	dune runtest
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

# parallel query-serving sweep (1/2/4/8 domains; SVR_BENCH_DOMAINS overrides)
bench-par:
	dune exec bench/main.exe -- par

# WAL overhead + recovery-time sweep (writes BENCH_PR3.json)
bench-recovery:
	dune exec bench/main.exe -- recovery

# tracing/metrics overhead gate (writes BENCH_PR4.json + BENCH_PR4.prom)
bench-obs:
	dune exec bench/main.exe -- obs

# crash-safety gate: seeded crash/recover property harness across every
# index method, plus SQL-level recovery and codec damage fuzz
check-crash:
	dune exec test/test_recovery.exe

# online-compaction gate: interleaved update/query/compaction stress
# (serial and 4-domain), invalid-score rejection, MAINTAIN statement,
# plus the compaction crash points inside the recovery harness
check-maintain:
	dune exec test/test_maintain.exe
	dune exec test/test_recovery.exe -- test "crash points"

# maintenance-policy comparison: none / offline rebuild / online
# compaction over an update-heavy timeline (writes BENCH_PR5.json)
bench-maintain:
	dune exec bench/main.exe -- maintain

# posting-codec gate: parametric round-trip/seek/oracle suite over every
# codec, plus the packed-codec crash points and damage fuzz
check-codec:
	dune exec test/test_codec.exe
	dune exec test/test_recovery.exe

# per-codec bytes/posting, decode throughput and conjunctive query cost
# (writes BENCH_PR6.json)
bench-codec:
	dune exec bench/main.exe -- codec

# planner gate: strategy thresholds, planned-vs-manual result equality
# across every method x codec, adversarial re-plan corpus, table-scan
# fallback, stats-catalog counts, plus catalog crash/recovery coverage
check-planner:
	dune exec test/test_planner.exe
	dune exec test/test_recovery.exe -- test engine

# planner vs manual merge strategies over skewed / flat / misestimated
# workloads (writes BENCH_PR7.json)
bench-planner:
	dune exec bench/main.exe -- planner

# overload-safety gate: budget trips and sticky cancellation, degraded-answer
# bound conservativeness (serial and 4-domain) over every early-terminating
# method x codec, admission tiers and shed policies, retry billing and the
# device circuit breaker, server backlog shed + graceful drain, SQL DEADLINE,
# plus writer preference under cancelled-reader churn
check-serve:
	dune exec test/test_serve.exe
	dune exec test/test_maintain.exe -- test rw_lock

# degradation quality vs block budget, admission overhead, flash-crowd
# shed/latency sweep (writes BENCH_PR8.json)
bench-overload:
	dune exec bench/main.exe -- overload

# self-observation gate: burn-rate math, health hysteresis, admission
# feedback, time-series ring, event log bounds, serial vs 4-domain
# snapshot equality
check-selfobs:
	dune exec test/test_selfobs.exe

# SLO alerting lead time, health-driven vs static shedding, observation
# overhead (writes BENCH_PR9.json)
bench-slo:
	dune exec bench/main.exe -- slo

# network front-door gate: wire-protocol codec + framing fuzz + socket
# sessions (pipelining, drain, failure isolation, HTTP endpoints)
check-net:
	dune build
	dune exec test/test_net.exe

# wire overhead, over-the-wire conservativeness under update rounds, and
# the flash-crowd socket sweep (writes BENCH_PR10.json)
bench-net:
	dune exec bench/main.exe -- net

# regression gate: replay the SLO and network benches quickly, then diff
# the fresh BENCH_PR*.json against the committed baselines (HEAD), failing
# on >10% regression of any named headline metric
bench-trend:
	rm -rf _bench_baseline
	mkdir -p _bench_baseline
	for f in $$(git ls-tree --name-only HEAD | grep '^BENCH_PR.*\.json$$'); do \
	  git show HEAD:$$f > _bench_baseline/$$f; \
	done
	SVR_BENCH_PROFILE=quick dune exec bench/main.exe -- slo net
	dune exec bench/trend.exe -- --baseline _bench_baseline

# the repository benchmark (BENCHMARK.json): one seeded workload, one JSON
# line; W is cold_update_mix, warm_read or served_flash
W ?= warm_read
SEED ?= 1
SECS ?= 20
TRACE ?= 0
perfbench:
	python3 perfbench/run.py --workload $(W) --seed $(SEED) --seconds $(SECS) --trace $(TRACE)

clean:
	dune clean
