#!/bin/sh
# Repository gate: formatting, vet, repo-specific analyzers (edgerepvet),
# build, race-enabled tests, fast-path gates (zero-alloc pricing, fast-on/off
# byte-identity, stale-table fuzz, chaos-on latency smoke), attribution gates
# (zero-alloc off path, byte-identical traces, flight-ring race stress),
# durability (journal/recovery + kill-and-resume byte-identity), the edgerepd daemon drill
# (selfdrive byte-identity + HTTP serve/kill -9/resume with fsync off and on
# + live /slo and /debug/flight probes + SIGTERM flight snapshot), federation gates (3-region
# kill-the-leader drill byte-identity + multi-process kill -9 follower
# promotion), docs link check, example smoke, bench smoke.
# Run before every commit. See ARCHITECTURE.md, "CI".
set -eu

cd "$(dirname "$0")"

echo "== gofmt"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmt" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# await_serving OUT ERR WHAT: wait (up to 10s) for a daemon started with
# stdout in OUT and stderr in ERR to print its bound address, then echo it.
await_serving() {
    i=0
    until grep -q "serving on" "$1" 2>/dev/null; do
        i=$((i+1))
        if [ "$i" -gt 100 ]; then echo "$3" >&2; cat "$2" >&2; exit 1; fi
        sleep 0.1
    done
    sed -n 's/^edgerepd: serving on //p' "$1"
}

echo "== edgerepvet ./... (type-aware repo analyzers; gate + JSON artifact, <30s budget)"
go build -o "$tmp/edgerepvet" ./cmd/edgerepvet
vet_start=$(date +%s)
"$tmp/edgerepvet" -stats ./...
"$tmp/edgerepvet" -json ./... > "$tmp/edgerepvet.json"
vet_elapsed=$(( $(date +%s) - vet_start ))
grep -q '"findings": \[\]' "$tmp/edgerepvet.json" || {
    echo "edgerepvet -json reports findings the exit-code gate missed" >&2; exit 1; }
echo "edgerepvet artifact: $tmp/edgerepvet.json (2 repo scans in ${vet_elapsed}s)"
if [ "$vet_elapsed" -ge 30 ]; then
    echo "edgerepvet repo scans took ${vet_elapsed}s; budget is <30s" >&2
    exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race ./...

echo "== trace gates (zero-alloc inactive emission + deterministic JSONL golden)"
go test -run 'TestTraceEmissionZeroAllocInactive' ./internal/instrument ./internal/core
go test -run 'TestTraceGoldenDeterministic' ./internal/experiments

echo "== attribution gates (zero-alloc off path; byte-identical traces; flight ring race-clean)"
go test -run 'TestAttributionZeroAllocInactive' ./internal/instrument
go test -run 'TestAttributionTraceBytesIdentical|TestAttributionOffNoStageNs' ./internal/server
go test -race -run 'TestFlightRecorderRaceStress' ./internal/instrument

echo "== fast-path gates (zero-alloc pricing; fast-on/off byte-identity; stale-table fuzz under -race)"
go test -run 'TestFastPathZeroAlloc' ./internal/online
go test -run 'TestFastPathEquivalence|TestFastPathByteIdenticalJournalAndTrace' ./internal/online ./internal/server
go test -race -run 'TestFastPathStaleTableFuzz|TestFastPathRestoreChurnRace|TestAckConvoyRegression' ./internal/server
go test -run 'TestFastPathChaosLatencySmoke' ./internal/server
go test -run '^$' -bench 'BenchmarkFastPathPlan' -benchtime 1x ./internal/online

echo "== chaos gates (seeded crash sweep replays clean; failover paths race-clean; wall-clock smoke)"
go test -run 'TestExtChaosTraceDeterministicAndValid' ./internal/experiments
go test -race -run 'Crash|Chaos|Failover|Degraded|Retry' ./internal/online ./internal/sim ./internal/testbed ./internal/invariant
go run ./cmd/edgereptestbed -chaos

echo "== durability gates (journal + recovery under -race; decode fuzz smoke)"
go test -race -run 'Journal|Recover|Resume|Torn|Snapshot|Rehydrate|ProcCrash|StateDump' \
    ./internal/journal ./internal/online ./internal/invariant ./internal/experiments ./internal/testbed
go test -run '^$' -fuzz '^FuzzJournalDecode$' -fuzztime 5s ./internal/journal

echo "== kill-and-resume gate (traced sweep killed mid-write resumes byte-identical)"
go build -o "$tmp/edgerepsim" ./cmd/edgerepsim
"$tmp/edgerepsim" -fig 2 -quick -csv -trace "$tmp/full.jsonl" > "$tmp/full.csv"
"$tmp/edgerepsim" -fig 2 -quick -csv -trace "$tmp/crashed.jsonl" \
    -journal "$tmp/wal" -proc-crash-after 4 > "$tmp/crashed.csv" && {
    echo "proc-crash run was not killed" >&2; exit 1; } || true
"$tmp/edgerepsim" -fig 2 -quick -csv -trace "$tmp/resumed.jsonl" \
    -journal "$tmp/wal" -resume > "$tmp/resumed.csv"
cmp "$tmp/full.csv" "$tmp/resumed.csv"
cmp "$tmp/full.jsonl" "$tmp/resumed.jsonl"

echo "== daemon gate (edgerepd: selfdrive SIGKILL-and-resume byte-identity; HTTP drive / kill -9 / -resume / drain, fsync off and on)"
go build -o "$tmp/edgerepd" ./cmd/edgerepd
# Deterministic selfdrive: an uninterrupted run vs one SIGKILLed (torn WAL
# tail) at decision 6000 and resumed. WAL-only journaling so the resumed
# trace replays the whole history; journal and trace must match byte for byte.
"$tmp/edgerepd" -selfdrive -count 10000 -nosync -snapshot-every 0 \
    -journal "$tmp/dfull-wal" -trace "$tmp/dfull.jsonl" > /dev/null
"$tmp/edgerepd" -selfdrive -count 10000 -nosync -snapshot-every 0 \
    -journal "$tmp/dcrash-wal" -trace "$tmp/ddead.jsonl" -proc-crash-after 6000 > /dev/null 2>&1 && {
    echo "edgerepd proc-crash run was not killed" >&2; exit 1; } || true
"$tmp/edgerepd" -selfdrive -count 10000 -nosync -snapshot-every 0 \
    -journal "$tmp/dcrash-wal" -trace "$tmp/dresumed.jsonl" -resume > /dev/null
cmp "$tmp/dfull.jsonl" "$tmp/dresumed.jsonl"
for f in "$tmp/dfull-wal"/*; do cmp "$f" "$tmp/dcrash-wal/$(basename "$f")"; done
# HTTP: bind a random port, drive real traffic, kill -9, restart with
# -resume (the journal must replay clean), drive again, drain on SIGTERM.
"$tmp/edgerepd" -http 127.0.0.1:0 -journal "$tmp/dhttp-wal" -nosync \
    > "$tmp/dserve1.out" 2> "$tmp/dserve1.err" &
dpid=$!
daddr=$(await_serving "$tmp/dserve1.out" "$tmp/dserve1.err" "edgerepd did not bind")
"$tmp/edgerepd" -drive "$daddr" -count 2000 | grep -q "drive ok: /metrics serves"
kill -9 "$dpid"
wait "$dpid" 2>/dev/null || true
"$tmp/edgerepd" -http 127.0.0.1:0 -journal "$tmp/dhttp-wal" -nosync -resume \
    > "$tmp/dserve2.out" 2> "$tmp/dserve2.err" &
dpid=$!
daddr=$(await_serving "$tmp/dserve2.out" "$tmp/dserve2.err" "edgerepd did not resume")
grep -q "recovered 2000 decisions" "$tmp/dserve2.err"
"$tmp/edgerepd" -drive "$daddr" -count 500 > "$tmp/ddrive2.out"
grep -q "drive ok: /metrics serves" "$tmp/ddrive2.out"
# The observability endpoints must serve live data under drive traffic.
grep -q "drive ok: /slo serves live data" "$tmp/ddrive2.out"
grep -q "drive ok: /debug/flight serves live data" "$tmp/ddrive2.out"
kill -TERM "$dpid"
wait "$dpid"
grep -q "drained" "$tmp/dserve2.err"
# Graceful shutdown drops a flight-recorder snapshot next to the journal.
[ -s "$tmp/dhttp-wal/flight-snapshot.json" ] || {
    echo "SIGTERM drain left no flight-snapshot.json next to the journal" >&2; exit 1; }
grep -q '"entries"' "$tmp/dhttp-wal/flight-snapshot.json"
# fsync on, the daemon default (one group-commit fsync per epoch): drive
# over HTTP, kill -9, -resume. Recovery refuses a divergent journal, so the
# resumed daemon serving at all means the WAL replayed clean; the drive
# fails on any non-200, so "recovered 2000" means exactly one record per
# 200 response.
"$tmp/edgerepd" -http 127.0.0.1:0 -journal "$tmp/dsync-wal" \
    > "$tmp/dsync1.out" 2> "$tmp/dsync1.err" &
dpid=$!
daddr=$(await_serving "$tmp/dsync1.out" "$tmp/dsync1.err" "fsync-on edgerepd did not bind")
"$tmp/edgerepd" -drive "$daddr" -count 2000 | grep -q "drive ok: /metrics serves"
kill -9 "$dpid"
wait "$dpid" 2>/dev/null || true
"$tmp/edgerepd" -http 127.0.0.1:0 -journal "$tmp/dsync-wal" -resume \
    > "$tmp/dsync2.out" 2> "$tmp/dsync2.err" &
dpid=$!
await_serving "$tmp/dsync2.out" "$tmp/dsync2.err" "fsync-on edgerepd did not resume" > /dev/null
grep -q "recovered 2000 decisions" "$tmp/dsync2.err" || {
    echo "fsync-on resume did not recover exactly the 2000 acked decisions" >&2
    cat "$tmp/dsync2.err" >&2; exit 1; }
kill -TERM "$dpid"
wait "$dpid"

echo "== federation gates (replication + failover race-clean; 3-region drill byte-identity; multi-process kill -9 promotion)"
# The shipping/standby/promotion paths and the failover auditor under -race.
go test -race -run 'Ship|Standby|Drill|Failover|Term|Owner' ./internal/federation ./internal/invariant
# In-process 3-region chaos drill: kill the shard-0 leader mid-load, promote
# the warm standby, and require every acked decision exactly-once (the drill
# errors internally otherwise). Run it twice with the same seed: the
# verification trace AND every WAL byte must be identical across runs.
for run in 1 2; do
    mkdir "$tmp/fed$run"
    "$tmp/edgerepd" -selfdrive -regions 3 -count 600 -journal "$tmp/fed$run" \
        -trace "$tmp/fedtrace$run.jsonl" > "$tmp/feddrill$run.out"
    grep -q "drill ok: 600/600 acked exactly-once" "$tmp/feddrill$run.out"
done
cmp "$tmp/fedtrace1.jsonl" "$tmp/fedtrace2.jsonl"
diff -r "$tmp/fed1" "$tmp/fed2" > /dev/null
# The killed shard's ack stream must resume within the promotion budget:
# < 2s of model time between the old leader's last ack and the new one's first.
gap=$(sed -n 's/.*"promotion_gap_model_sec":\([0-9.e+-]*\).*/\1/p' "$tmp/feddrill1.out")
awk "BEGIN { exit !($gap > 0 && $gap < 2) }" || {
    echo "promotion gap ${gap}s of model time; budget is (0, 2)" >&2; exit 1; }
# Multi-process: a real leader daemon, a warm follower shipping its WAL over
# HTTP, kill -9 the leader mid-load, and require the follower to promote
# itself and serve admissions at the bumped term.
"$tmp/edgerepd" -region r0 -journal "$tmp/fedlead-wal" -http 127.0.0.1:0 \
    -segment-bytes 4096 -nosync > "$tmp/fedlead.out" 2> "$tmp/fedlead.err" &
fpid=$!
faddr=$(await_serving "$tmp/fedlead.out" "$tmp/fedlead.err" "federated leader did not bind")
"$tmp/edgerepd" -follow "$faddr" -takeover "$tmp/fedlead-wal" -journal "$tmp/fedpromo-wal" \
    -http 127.0.0.1:0 -heartbeat 100ms -failover-after 3 -nosync \
    > "$tmp/fedfollow.out" 2> "$tmp/fedfollow.err" &
wpid=$!
await_serving "$tmp/fedfollow.out" "$tmp/fedfollow.err" "follower did not bind" > /dev/null
"$tmp/edgerepd" -drive "$faddr" -count 1000 | grep -q "drive ok: /metrics serves"
sleep 0.5  # let the follower ship the sealed prefix
kill -9 "$fpid"
wait "$fpid" 2>/dev/null || true
i=0
until grep -q "promoted to term 2" "$tmp/fedfollow.out" 2>/dev/null; do
    i=$((i+1))
    if [ "$i" -gt 100 ]; then echo "follower never promoted after leader kill -9" >&2; cat "$tmp/fedfollow.err" >&2; exit 1; fi
    sleep 0.1
done
waddr=$(sed -n 's/^edgerepd: serving on //p' "$tmp/fedfollow.out")
"$tmp/edgerepd" -drive "$waddr" -count 500 | grep -q "drive ok: /metrics serves"
kill -TERM "$wpid"
wait "$wpid"
grep -q "drained at term 2" "$tmp/fedfollow.err"

echo "== docs link check (files referenced from the operator docs exist)"
for doc in README.md ARCHITECTURE.md OPERATIONS.md EXPERIMENTS.md DESIGN.md \
           examples/streaming-admission/README.md; do
    base=$(dirname "$doc")
    for tgt in $(grep -o ']([^)]*)' "$doc" | sed 's/^](//; s/)$//'); do
        case "$tgt" in
            http://*|https://*|\#*) continue ;;
        esac
        path=${tgt%%#*}
        [ -n "$path" ] || continue
        if [ ! -e "$base/$path" ]; then
            echo "$doc links to missing file: $tgt" >&2
            exit 1
        fi
    done
done

echo "== example smoke (streaming-admission daemon walkthrough)"
go run ./examples/streaming-admission > /dev/null

echo "== bench smoke"
go test -run '^$' -bench 'BenchmarkAlgorithmsHeadToHead' -benchtime 1x .
go test -run '^$' -bench 'BenchmarkTraceEmissionInactive' -benchtime 1x ./internal/instrument
go test -run '^$' -bench 'BenchmarkApproGTraceInactive' -benchtime 1x ./internal/core

echo "ci.sh: all green"
