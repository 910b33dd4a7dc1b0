#!/usr/bin/env sh
# ci.sh — the repository's full verification gate.
#
# Runs, in order: build, formatting check, go vet, a build and vet of
# the nested perfbench module (the root ./... patterns skip it, yet it
# reads core.Config and core.Stats fields), a short traced perfbench
# run per workload as a correctness gate, the project's own linter
# (internal/analysis via cmd/unmasquelint), the full test suite
# under the race detector (plus ten repeats of the probe cache's
# concurrency test, and five of the from-clause's group-testing test,
# whose phase runs several dependent fan-outs), the differential
# engine harness (the vector engine against the test-only
# tree-walking oracle, plus the golden TPC-H extraction pins), every
# fuzz target in smoke mode, an end-to-end traced extraction whose
# JSONL output is schema-validated, the daemon and telemetry
# end-to-ends (the daemon's /metrics and the CLI's -metrics output
# both parse as Prometheus text and agree with the run's ledger or
# profile), the durable probe-cache end-to-ends (a cold then warm
# one-shot CLI run on one -cache-dir, and a warm-daemon restart on a
# cache directory), and a coverage gate on the load-bearing packages.
# Any failure stops the gate.
set -eu

cd "$(dirname "$0")"

echo "== go build"
go build ./...

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== perfbench build + vet (nested module)"
(cd perfbench && go build -o /dev/null . && go vet .)

# perfbench correctness gate: one short traced run per workload. The
# harness checks every job's SQL against the app's result on a fresh
# D_I, that each job's ledger holds its invocations plus both kinds of
# cache hit, and that the traced and untraced runs invoke E equally
# often; its last line must report "correct":true and "failed":0.
echo "== perfbench correctness gate (traced, 1 s per workload)"
for w in cli-sql daemon-cold daemon-warm; do
    pb_last=$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 1 | tail -n 1)
    # jq -e accepts empty input, so a run that printed nothing must fail
    # on its own.
    if [ -z "$pb_last" ] ||
        ! printf '%s\n' "$pb_last" | jq -e '.correct == true and .failed == 0' >/dev/null; then
        echo "perfbench $w: correctness gate failed" >&2
        printf '%s\n' "$pb_last" >&2
        exit 1
    fi
    echo "perfbench $w: correct, 0 failed"
done

echo "== unmasquelint"
go run ./cmd/unmasquelint ./...

# Bounded-equivalence smoke: every workload-corpus query must be
# provably self-equivalent at k=2 — a fast end-to-end pass through the
# canonicalizer, the constraint-aware enumerator and the evaluator of
# internal/analysis/eqcequiv.
echo "== bounded equivalence self-check (k=2)"
for w in tpch tpcds job; do
    go run ./cmd/unmasquelint -equiv-self -schema "$w" -bound 2 | tail -1
done

echo "== go test -race"
go test -race ./...

# The probe cache is shared by every worker of every daemon job: repeat
# its concurrent Put/Get test under the race detector.
echo "== probe cache concurrency (-race -count=10)"
go test -race -count=10 -run '^TestProbeCacheConcurrentPutGet$' ./internal/storage

# The from-clause finds T_E by group testing: each level of its binary
# splitting is one or two fan-outs over the worker pool, and each
# depends on the outcomes of the last. Repeat its property test, which
# runs 1, 2 and 8 workers, under the race detector.
echo "== from-clause group testing (-race -count=5)"
go test -race -count=5 -run '^TestFromClauseGroupTesting$' ./internal/core

# Differential engine harness: the tree-walking oracle lives only in
# internal/sqldb/oracle_test.go. These tests run corpus queries, edge
# cases, random statements and generated predicates on both engines and
# compare results, cancellation ticks and tie ordering; the golden
# TPC-H pins hold whole extractions to the SQL, invocation counts and
# traces both engines produced when each could run the pipeline. The
# oracle-vs-vector benchmark runs once so its result-equality checks
# stay exercised.
echo "== differential engine harness (tree oracle vs vector)"
go test -run 'TestEngineDiff|TestExecDiff|TestVecEval|TestCtxTickParity|TestOrderingDeterministic|TestExtractionGoldenTPCH' \
    ./internal/sqldb ./internal/core
go test -run '^$' -bench BenchmarkOracleVsVector -benchtime 1x ./internal/sqldb

# Fuzz smoke: each native fuzz target runs briefly so a regression in
# a fuzzed invariant (parser round-trip, LIKE matcher, expression
# evaluator, engine equivalence) fails CI even before a long fuzzing
# campaign would.
echo "== fuzz smoke (5s per target)"
go test -fuzz='^FuzzParse$' -fuzztime=5s -run='^$' ./internal/sqlparser
go test -fuzz='^FuzzLike$' -fuzztime=5s -run='^$' ./internal/sqldb
go test -fuzz='^FuzzExprEval$' -fuzztime=5s -run='^$' ./internal/sqldb
go test -fuzz='^FuzzExecDiff$' -fuzztime=5s -run='^$' ./internal/sqldb

# Trace end-to-end: one real extraction with the observability layer
# on, then schema-validate the JSONL it produced (first line must be
# the run header; every probe line must pass the obs validator).
echo "== trace end-to-end"
trace_file=$(mktemp /tmp/unmasque-trace.XXXXXX)
e2e_dir=$(mktemp -d /tmp/unmasqued-e2e.XXXXXX)
cleanup() {
    rm -f "$trace_file"
    rm -rf "$e2e_dir"
    if [ -n "${daemon_pid:-}" ]; then
        kill "$daemon_pid" 2>/dev/null || true
    fi
}
trap cleanup EXIT
go run ./cmd/unmasque -app enki/posts_by_tag -trace "$trace_file" >/dev/null
go run ./cmd/unmasque -validate-trace "$trace_file"

# Daemon end-to-end: boot unmasqued on a random port, submit a
# registered application over HTTP, poll the job to completion, and
# assert (a) the service extracts the same SQL as the one-shot CLI,
# (b) the per-job ledger invariant holds in the result, (c) the
# downloaded trace passes the schema validator, (d) SIGTERM drains
# cleanly with exit status 0.
echo "== daemon end-to-end"
go build -o "$e2e_dir/unmasqued" ./cmd/unmasqued
"$e2e_dir/unmasqued" -addr 127.0.0.1:0 -port-file "$e2e_dir/port" \
    -store "$e2e_dir/jobs.jsonl" -workers 2 2>"$e2e_dir/daemon.log" &
daemon_pid=$!
for _ in $(seq 1 50); do
    if [ -s "$e2e_dir/port" ]; then break; fi
    sleep 0.1
done
addr=$(cat "$e2e_dir/port")
job_id=$(curl -sf -X POST "http://$addr/jobs" -d '{"app":"enki/posts_by_tag"}' | jq -r .id)
state=queued
for _ in $(seq 1 300); do
    state=$(curl -sf "http://$addr/jobs/$job_id" | jq -r .state)
    case "$state" in done|failed|cancelled) break ;; esac
    sleep 0.2
done
if [ "$state" != done ]; then
    echo "daemon e2e: job finished in state $state" >&2
    cat "$e2e_dir/daemon.log" >&2
    exit 1
fi
curl -sf "http://$addr/jobs/$job_id/result" > "$e2e_dir/result.json"
# The one-shot CLI wraps the SQL in `--` comment banners; the service
# returns the bare statement. Compare with comments stripped.
service_sql=$(jq -r .sql "$e2e_dir/result.json" | grep -v '^--')
cli_sql=$(go run ./cmd/unmasque -app enki/posts_by_tag | grep -v '^--')
if [ "$service_sql" != "$cli_sql" ]; then
    echo "daemon e2e: service SQL differs from one-shot CLI" >&2
    printf 'service: %s\ncli:     %s\n' "$service_sql" "$cli_sql" >&2
    exit 1
fi
jq -e '.ledger_events > 0 and .ledger_events == .app_invocations + .cache_hits + .disk_cache_hits' \
    "$e2e_dir/result.json" >/dev/null || {
    echo "daemon e2e: ledger invariant broken in result" >&2
    cat "$e2e_dir/result.json" >&2
    exit 1
}
curl -sf "http://$addr/jobs/$job_id/trace" > "$e2e_dir/trace.jsonl"
go run ./cmd/unmasque -validate-trace "$e2e_dir/trace.jsonl"

# Telemetry end-to-end against the same daemon: (a) /metrics, which
# answers only Prometheus text, must parse under the strict
# text-format validator and carry the job counters, (b) the registry's
# probe counters must equal the ledger of the one job that has run so
# far (the registry is a view of the jobs' ledgers), (c) a live SSE
# subscription opened on a just-submitted job must replay+stream
# frames that pass the stream validator and end at a terminal
# lifecycle state.
echo "== telemetry end-to-end (prom scrape + live SSE)"
curl -sf "http://$addr/metrics" > "$e2e_dir/metrics.prom"
go run ./cmd/unmasque -validate-prom "$e2e_dir/metrics.prom"
grep -q '^unmasque_jobs_done' "$e2e_dir/metrics.prom" || {
    echo "telemetry e2e: unmasque_jobs_done missing from prom exposition" >&2
    cat "$e2e_dir/metrics.prom" >&2
    exit 1
}
prom_probes=$(awk '$1 == "unmasque_probes_total" { print $2 }' "$e2e_dir/metrics.prom")
prom_invocations=$(awk '$1 == "unmasque_app_invocations" { print $2 }' "$e2e_dir/metrics.prom")
if [ "$prom_probes" != "$(jq .ledger_events "$e2e_dir/result.json")" ] ||
    [ "$prom_invocations" != "$(jq .app_invocations "$e2e_dir/result.json")" ]; then
    echo "telemetry e2e: registry disagrees with the job's ledger" >&2
    printf 'probes_total=%s app_invocations=%s\n' "$prom_probes" "$prom_invocations" >&2
    cat "$e2e_dir/result.json" >&2
    exit 1
fi
sse_id=$(curl -sf -X POST "http://$addr/jobs" -d '{"app":"enki/posts_by_tag"}' | jq -r .id)
# The stream closes itself when the job reaches a terminal state;
# --max-time only guards against a hung stream.
curl -s --max-time 120 "http://$addr/jobs/$sse_id/trace/stream" > "$e2e_dir/stream.sse"
go run ./cmd/unmasque -validate-stream "$e2e_dir/stream.sse"
kill -TERM "$daemon_pid"
wait "$daemon_pid"
daemon_pid=
grep -q "drained cleanly" "$e2e_dir/daemon.log" || {
    echo "daemon e2e: no clean drain in daemon log" >&2
    cat "$e2e_dir/daemon.log" >&2
    exit 1
}

# CLI metrics end-to-end: -metrics prints the same exposition as the
# daemon, between its "-- metrics:" banner and the SQL banner. It must
# parse, and its invocation counter must equal the invocations= field
# of the same run's -stats profile line.
echo "== CLI metrics end-to-end (-metrics exposition)"
cli_out=$(go run ./cmd/unmasque -app enki/posts_by_tag -metrics -stats)
printf '%s\n' "$cli_out" |
    awk '/^-- metrics:/ { keep = 1; next } /^--/ { keep = 0 } keep' > "$e2e_dir/cli-metrics.prom"
go run ./cmd/unmasque -validate-prom "$e2e_dir/cli-metrics.prom"
cli_invocations=$(awk '$1 == "unmasque_app_invocations" { print $2 }' "$e2e_dir/cli-metrics.prom")
profile_invocations=$(printf '%s\n' "$cli_out" | sed -n 's/^-- profile:.* invocations=\([0-9]*\) .*/\1/p')
if [ -z "$cli_invocations" ] || [ "$cli_invocations" != "$profile_invocations" ]; then
    echo "cli metrics e2e: unmasque_app_invocations=$cli_invocations, profile invocations=$profile_invocations" >&2
    printf '%s\n' "$cli_out" >&2
    exit 1
fi
echo "cli metrics e2e: unmasque_app_invocations $cli_invocations matches the profile"

# CLI probe-cache end-to-end: two one-shot extractions on the same
# -cache-dir. Both must print the SQL of the cache-less CLI run above;
# the second must do so with zero application invocations, every probe
# replayed from the durable cache (the -stats profile's disk=N, N > 0).
echo "== CLI probe cache end-to-end (-cache-dir, cold then warm)"
cold_out=$(go run ./cmd/unmasque -app enki/posts_by_tag -cache-dir "$e2e_dir/cli-cache" -stats)
warm_out=$(go run ./cmd/unmasque -app enki/posts_by_tag -cache-dir "$e2e_dir/cli-cache" -stats)
cold_sql=$(printf '%s\n' "$cold_out" | grep -v '^--')
warm_sql=$(printf '%s\n' "$warm_out" | grep -v '^--')
if [ "$cold_sql" != "$cli_sql" ] || [ "$warm_sql" != "$cli_sql" ]; then
    echo "cli cache e2e: -cache-dir runs extract different SQL" >&2
    printf 'cold:  %s\nwarm:  %s\nplain: %s\n' "$cold_sql" "$warm_sql" "$cli_sql" >&2
    exit 1
fi
warm_profile=$(printf '%s\n' "$warm_out" | grep '^-- profile:')
case "$warm_profile" in
    *" invocations=0 "*" disk="[1-9]*) echo "cli cache e2e: warm $warm_profile" ;;
    *)
        echo "cli cache e2e: warm run was not served from the probe cache" >&2
        printf '%s\n' "$warm_profile" >&2
        exit 1
        ;;
esac

# Warm-daemon end-to-end: boot the daemon with a durable probe cache,
# run a job cold, SIGTERM-drain it, boot a fresh daemon on the same
# cache directory, and resubmit the identical job. The warm run must
# complete with ZERO application invocations — every probe served from
# the disk tier — and extract the same SQL.
echo "== warm daemon end-to-end (durable probe cache across restart)"
run_cached_job() {
    portfile=$1
    "$e2e_dir/unmasqued" -addr 127.0.0.1:0 -port-file "$portfile" \
        -store "$e2e_dir/jobs-cache.jsonl" -cache-dir "$e2e_dir/cache" \
        -workers 2 2>>"$e2e_dir/daemon-cache.log" &
    daemon_pid=$!
    for _ in $(seq 1 50); do
        if [ -s "$portfile" ]; then break; fi
        sleep 0.1
    done
    caddr=$(cat "$portfile")
    cjob=$(curl -sf -X POST "http://$caddr/jobs" -d '{"app":"enki/posts_by_tag"}' | jq -r .id)
    cstate=queued
    for _ in $(seq 1 300); do
        cstate=$(curl -sf "http://$caddr/jobs/$cjob" | jq -r .state)
        case "$cstate" in done|failed|cancelled) break ;; esac
        sleep 0.2
    done
    if [ "$cstate" != done ]; then
        echo "warm daemon e2e: job finished in state $cstate" >&2
        cat "$e2e_dir/daemon-cache.log" >&2
        exit 1
    fi
    curl -sf "http://$caddr/jobs/$cjob/result"
    kill -TERM "$daemon_pid"
    wait "$daemon_pid"
    daemon_pid=
}
run_cached_job "$e2e_dir/port-cold" > "$e2e_dir/result-cold.json"
run_cached_job "$e2e_dir/port-warm" > "$e2e_dir/result-warm.json"
jq -e '.app_invocations > 0' "$e2e_dir/result-cold.json" >/dev/null || {
    echo "warm daemon e2e: cold run reports zero app invocations" >&2
    cat "$e2e_dir/result-cold.json" >&2
    exit 1
}
jq -e '.app_invocations == 0 and .disk_cache_hits > 0 and
       .ledger_events == .cache_hits + .disk_cache_hits' \
    "$e2e_dir/result-warm.json" >/dev/null || {
    echo "warm daemon e2e: restarted daemon did not serve the job from the durable cache" >&2
    cat "$e2e_dir/result-warm.json" >&2
    exit 1
}
if [ "$(jq -r .sql "$e2e_dir/result-cold.json")" != "$(jq -r .sql "$e2e_dir/result-warm.json")" ]; then
    echo "warm daemon e2e: warm SQL differs from cold SQL" >&2
    exit 1
fi

# Coverage gate: internal/core, internal/sqldb and internal/obs must
# stay at or above the recorded baselines (measured at their
# introduction, minus a small buffer for counting noise).
echo "== coverage gate"
cover_pct() {
    go test -cover "$1" | awk '{for (i=1; i<=NF; i++) if ($i ~ /^[0-9.]+%$/) {sub(/%/, "", $i); print $i; exit}}'
}
check_cover() {
    pkg=$1; floor=$2
    pct=$(cover_pct "$pkg")
    if [ -z "$pct" ]; then
        echo "coverage: could not measure $pkg" >&2
        exit 1
    fi
    echo "coverage: $pkg $pct% (floor $floor%)"
    if awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p < f) }'; then
        echo "coverage: $pkg dropped below $floor%" >&2
        exit 1
    fi
}
check_cover ./internal/core 77.0
check_cover ./internal/sqldb 81.0
check_cover ./internal/obs 80.0
check_cover ./internal/obs/telemetry 80.0
check_cover ./internal/service 78.0
check_cover ./internal/analysis/eqcequiv 80.0
check_cover ./internal/storage 80.0
check_cover ./internal/regal 85.0

# Per-file floor on the execution engine and the canonical encoder:
# the differential harness must actually exercise the plan compiler and
# evaluator (exec.go) and the batch/scan/join code, the
# reference-encoder test the fingerprint and digest hashers, the key
# tests the hash-key encoder (value.go) and the checker's result
# comparisons (result.go), and the engine's one cache, the join-build
# cache (index.go), its invalidation rules every mutator in table.go
# calls, and the clone flavours in database.go must stay tested, not
# just keep the package average up.
echo "== per-file coverage floor (execution engine, cache maintenance, keys and hashers, 80%)"
prof=$(mktemp /tmp/unmasque-cover.XXXXXX)
go test -coverprofile="$prof" ./internal/sqldb >/dev/null
for f in exec.go batch.go vector.go index.go exec_vector.go agg_vector.go sort_vector.go table.go database.go fingerprint.go digest.go result.go value.go; do
    pct=$(awk -v f="internal/sqldb/$f:" \
        'index($1, f) { total += $2; if ($3 > 0) covered += $2 }
         END { if (total == 0) print "0.0"; else printf "%.1f", 100 * covered / total }' "$prof")
    echo "coverage: internal/sqldb/$f $pct% (floor 80%)"
    if awk -v p="$pct" 'BEGIN { exit !(p < 80.0) }'; then
        echo "coverage: internal/sqldb/$f dropped below 80%" >&2
        rm -f "$prof"
        exit 1
    fi
done
rm -f "$prof"

echo "ci: all checks passed"
