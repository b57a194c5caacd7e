#!/bin/sh
# check.sh — the single pre-merge gate (tier-1+ verify).
#
# Runs, in order:
#   1. go build ./...              everything compiles
#   2. go vet ./...                stock vet
#   3. gofmt -l .                  every Go file is gofmt-clean (any output fails)
#   4. csi-vet -strict-ignores     repo-specific determinism/correctness rules
#                                  (incl. interprocedural taint + concurrency),
#                                  failing on stale suppressions; archives the
#                                  machine-readable report as csi-vet.json
#   5. go test -race ./...         full test suite under the race detector
#   6. bench smoke                 one iteration of each mux search
#                                  microbenchmark pair (kernel vs serial), of
#                                  the whole-session simulator benchmarks and
#                                  of the monitor's frame reader and ingest
#   7. traced quickstart           csi-run + csi-analyze with -trace-out/-metrics,
#                                  diffed byte-for-byte against testdata/obs/
#   8. error-exit flush            csi-analyze failing on a missing run file
#                                  still writes its profiles, trace and metrics
#   9. live ops plane smoke        csi-paper -serve probed by livesmoke.go, then
#                                  the traced quickstart again with -serve on
#  10. sweep stdout determinism    two csi-paper table4-ch runs, stdout cmp'd
#  11. half-cache goldens          csi-analyze -half-cache-mb vs testdata/obs/
#  12. perfbench self-check        every benchmark workload at its smallest size
#  13. fuzz smokes                 capture decoders and the -faults parser
#  14. fault goldens               impaired runs are byte-deterministic and the
#                                  degraded inference matches testdata/obs/
#  15. monitor replay              csi-monitord -replay == -batch, byte for byte
#  16. monitor live smoke          frames on stdin: one result per flow
#  17. monitor eviction smoke      a one-slot flow table evicts with a warning
#  18. crash-recovery matrix       kill at each crashpoint, recover, cmp to the
#                                  uninterrupted replay
#  19. fuzz smokes                 WAL salvage, stream ingest, frame codec,
#                                  incremental Step 1
#  20. bounded inference smoke     a one-step work budget yields a partial result
#  21. degradation sweep smoke     TestFaultSweepSmoke
#
# Any failure aborts the gate. Run from anywhere inside the repository.
# `check.sh -quick` trims the crash-recovery matrix to its two
# highest-value points; every other gate runs in full either way.
set -eu

cd "$(dirname "$0")/.."

QUICK=0
[ "${1:-}" = "-quick" ] && QUICK=1

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt -l lists files that need formatting (run gofmt -w):" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== csi-vet ./... (strict ignores; JSON archived as csi-vet.json)"
# The JSON report (findings + stale suppressions + the audited suppression
# inventory) is committed at the repo root so CI reviews diff findings
# structurally instead of parsing text. It is regenerated here on every
# gate run; commit the refreshed file when the inventory legitimately
# changes.
go run ./cmd/csi-vet -strict-ignores -format json ./... > csi-vet.json

echo "== go test -race ./..."
# Explicit per-package timeout: the race detector costs ~10x on the
# inference-heavy packages, which puts internal/core near the default
# 10-minute limit on small (single-core CI) machines.
go test -race -timeout 30m ./...

echo "== bench smoke (1 iteration)"
# One iteration of each mux candidate-search microbenchmark pair (parallel
# kernel vs serial reference), of the session benchmarks that time
# simulator event dispatch and of the monitor's frame reader and ingest
# path, so they cannot rot without failing the gate.
go test -run='^$' -bench='^Benchmark(MuxCandidateSearch|WindowStats)(Serial)?$' \
    -benchtime=1x ./internal/core > /dev/null
go test -run='^$' -bench='^BenchmarkSessionRun(SH|CQ)$' -benchtime=1x ./internal/session > /dev/null
go test -run='^$' -bench='^Benchmark(FrameReader|Ingest)$' -benchtime=1x ./internal/stream > /dev/null

echo "== traced quickstart vs committed obs goldens"
# The same fixed-seed pipeline the TestObsGoldenDeterminism fixture runs,
# but through the real binaries: encode -> stream -> infer, with tracing
# on. Byte-identity against testdata/obs/ proves the CLI wiring, the JSON
# round-trips, and the obs determinism contract end to end. Regenerate the
# goldens with `go test -run TestObsGoldenDeterminism -update .` after an
# intended change.
obstmp=$(mktemp -d)
trap 'rm -rf "$obstmp"' EXIT
go run ./cmd/csi-encode -pasr 1.5 -duration 300 -audio -seed 7 -name golden -o "$obstmp/man.json" > /dev/null
go run ./cmd/csi-run -manifest "$obstmp/man.json" -design SH -bandwidth 4 -duration 90 -seed 7 \
    -o "$obstmp/run.json" -trace-out "$obstmp/run.trace.json" -metrics "$obstmp/run.metrics.txt" > /dev/null
cmp "$obstmp/run.trace.json" testdata/obs/session.trace.json
cmp "$obstmp/run.metrics.txt" testdata/obs/session.metrics.txt
go run ./cmd/csi-analyze -manifest "$obstmp/man.json" -run "$obstmp/run.json" \
    -trace-out "$obstmp/infer.trace.jsonl" -metrics "$obstmp/infer.metrics.txt" > /dev/null
cmp "$obstmp/infer.trace.jsonl" testdata/obs/infer.trace.jsonl
cmp "$obstmp/infer.metrics.txt" testdata/obs/infer.metrics.txt
# The JSONL event log must render as a timeline without error.
go run ./cmd/csi-trace -timeline "$obstmp/infer.trace.jsonl" > /dev/null

echo "== error exits flush every configured output"
# A command that fails still flushes what its flags asked for: csi-analyze
# with a run file that does not exist must exit 1 and leave a non-empty CPU
# profile, a heap profile, a trace and a metrics dump behind (with -serve
# on, so the ops plane is shut down on the same path).
rc=0
go build -o "$obstmp/csi-analyze" ./cmd/csi-analyze
"$obstmp/csi-analyze" -manifest "$obstmp/man.json" -run "$obstmp/missing.json" \
    -serve 127.0.0.1:0 -cpuprofile "$obstmp/err.cpu.prof" -memprofile "$obstmp/err.mem.prof" \
    -trace-out "$obstmp/err.trace.jsonl" -metrics "$obstmp/err.metrics.txt" 2> /dev/null || rc=$?
if [ "$rc" -ne 1 ] || [ ! -s "$obstmp/err.cpu.prof" ] || [ ! -e "$obstmp/err.mem.prof" ] \
    || [ ! -e "$obstmp/err.trace.jsonl" ] || [ ! -e "$obstmp/err.metrics.txt" ]; then
    echo "csi-analyze error exit: rc=$rc (want 1) or a profile, trace or metrics file is missing" >&2
    exit 1
fi

echo "== live ops plane smoke (-serve)"
# csi-paper serves /metrics, /statusz, /healthz etc. while the timing
# experiment runs; livesmoke.go validates the Prometheus exposition and the
# status document against a live process. Then the traced quickstart reruns
# WITH -serve and must stay byte-identical to the committed goldens: the ops
# plane only reads snapshots of the application registry, so serving can
# never perturb a deterministic export.
go build -o "$obstmp/csi-paper" ./cmd/csi-paper
rm -f "$obstmp/serve.addr"
"$obstmp/csi-paper" -scale quick -serve 127.0.0.1:0 -serve-addr-file "$obstmp/serve.addr" timing \
    > /dev/null 2>&1 &
paper_pid=$!
i=0
while [ ! -s "$obstmp/serve.addr" ] && [ "$i" -lt 40 ]; do sleep 0.25; i=$((i+1)); done
go run scripts/livesmoke.go "$(cat "$obstmp/serve.addr")"
wait "$paper_pid"
go run ./cmd/csi-run -manifest "$obstmp/man.json" -design SH -bandwidth 4 -duration 90 -seed 7 \
    -serve 127.0.0.1:0 -o "$obstmp/run2.json" \
    -trace-out "$obstmp/run2.trace.json" -metrics "$obstmp/run2.metrics.txt" > /dev/null 2>&1
cmp "$obstmp/run2.json" "$obstmp/run.json"
cmp "$obstmp/run2.trace.json" testdata/obs/session.trace.json
cmp "$obstmp/run2.metrics.txt" testdata/obs/session.metrics.txt
go run ./cmd/csi-analyze -manifest "$obstmp/man.json" -run "$obstmp/run.json" \
    -serve 127.0.0.1:0 \
    -trace-out "$obstmp/infer2.trace.jsonl" -metrics "$obstmp/infer2.metrics.txt" > /dev/null 2>&1
cmp "$obstmp/infer2.trace.jsonl" testdata/obs/infer.trace.jsonl
cmp "$obstmp/infer2.metrics.txt" testdata/obs/infer.metrics.txt

echo "== csi-paper stdout determinism"
# Identical invocations must print identical bytes: the per-experiment
# wall-clock lines go to stderr, so two runs of one sweep cmp equal.
"$obstmp/csi-paper" -scale quick table4-ch > "$obstmp/paper1.out" 2> /dev/null
"$obstmp/csi-paper" -scale quick table4-ch > "$obstmp/paper2.out" 2> /dev/null
cmp "$obstmp/paper1.out" "$obstmp/paper2.out"

echo "== golden byte-identity with the process half-cache enabled"
# The inference must not change when the process-wide half-enumeration
# cache (DESIGN.md §11) is switched on: rerun the traced quickstart
# analysis with -half-cache-mb and require byte-identity against the same
# committed goldens. (The SQ warm-vs-cold-vs-disabled contract — identical
# candidates, truncation points and accuracy ranges across sessions
# sharing one cache — is pinned by the TestInferHalfCache* and
# TestHalfCache* tests, which ran under -race above.)
go run ./cmd/csi-analyze -manifest "$obstmp/man.json" -run "$obstmp/run.json" \
    -half-cache-mb 64 \
    -trace-out "$obstmp/infer3.trace.jsonl" -metrics "$obstmp/infer3.metrics.txt" > /dev/null
cmp "$obstmp/infer3.trace.jsonl" testdata/obs/infer.trace.jsonl
cmp "$obstmp/infer3.metrics.txt" testdata/obs/infer.metrics.txt

echo "== repository benchmark self-check (perfbench)"
# Every perfbench workload at its smallest size on two seeds, traced and
# untraced, behind the benchmark's correctness gate (replay bytes equal
# stream.Batch, nothing shed or evicted), so the one harness cannot rot
# without failing the gate.
python3 perfbench/run.py --selfcheck > "$obstmp/selfcheck.log" 2>&1 || {
    cat "$obstmp/selfcheck.log" >&2
    exit 1
}

echo "== capture decoder fuzz smoke"
# A few seconds of coverage-guided fuzzing over each run decoder. The static
# seed corpora under internal/capture/testdata/fuzz/ always replay as part of
# `go test`; this smoke additionally exercises the mutation engine so a
# decoder panic cannot land without tripping the gate.
go test -run='^$' -fuzz='^FuzzReadJSON$' -fuzztime=5s ./internal/capture > /dev/null
go test -run='^$' -fuzz='^FuzzReadBinary$' -fuzztime=5s ./internal/capture > /dev/null

echo "== fault spec parser fuzz smoke"
# Same treatment for the -faults flag grammar: the seeded corpus replays in
# go test; the smoke exercises the mutation engine against the parser's
# no-panic / finite-values / canonical-roundtrip contract.
go test -run='^$' -fuzz='^FuzzParseSpec$' -fuzztime=5s ./internal/faults > /dev/null

echo "== fault injection byte determinism vs committed goldens"
# Same seed + same impairment spec must give byte-identical impaired runs
# through the real binary, and the degraded inference over an impaired
# capture must match the committed goldens byte for byte (regenerate with
# `go test -run TestFaultGoldenDeterminism -update .`).
faultspec="loss=0.01,dup=0.005,cross=1,seed=11"
go run ./cmd/csi-run -manifest "$obstmp/man.json" -design SH -bandwidth 4 -duration 90 -seed 7 \
    -faults "$faultspec" -o "$obstmp/fault1.json" > /dev/null 2>&1
go run ./cmd/csi-run -manifest "$obstmp/man.json" -design SH -bandwidth 4 -duration 90 -seed 7 \
    -faults "$faultspec" -o "$obstmp/fault2.json" > /dev/null 2>&1
cmp "$obstmp/fault1.json" "$obstmp/fault2.json"
go run ./cmd/csi-analyze -manifest "$obstmp/man.json" -run "$obstmp/run.json" -faults "$faultspec" \
    -trace-out "$obstmp/fault.trace.jsonl" -metrics "$obstmp/fault.metrics.txt" > /dev/null
cmp "$obstmp/fault.trace.jsonl" testdata/obs/fault.infer.trace.jsonl
cmp "$obstmp/fault.metrics.txt" testdata/obs/fault.infer.metrics.txt

echo "== streaming monitor replay byte-identity"
# The daemon's replay mode must reproduce the offline batch pipeline byte
# for byte over the same frame stream (DESIGN.md §12): pack two recorded
# runs (clean + impaired) into one interleaved recording, run it through
# the incremental monitor (provisional solves every 500 packets) and
# through the batch reference, and compare outputs bit for bit.
go run ./cmd/csi-monitord -pack -o "$obstmp/frames.jsonl" "$obstmp/run.json" "$obstmp/fault1.json"
go run ./cmd/csi-monitord -manifest "$obstmp/man.json" -resolve-every 500 \
    -replay "$obstmp/frames.jsonl" -o "$obstmp/replay.jsonl"
go run ./cmd/csi-monitord -manifest "$obstmp/man.json" \
    -batch "$obstmp/frames.jsonl" -o "$obstmp/batch.jsonl"
cmp "$obstmp/replay.jsonl" "$obstmp/batch.jsonl"

echo "== streaming monitor live-mode smoke (frames on stdin)"
# Live mode (no -replay) sheds instead of blocking and streams each result
# as it commits, so its output is not byte-compared; it must exit 0 with
# exactly one result line per flow, the same flows the batch run reports.
go run ./cmd/csi-monitord -manifest "$obstmp/man.json" -resolve-every 500 \
    -o "$obstmp/live.jsonl" < "$obstmp/frames.jsonl"
flows() { sed -n 's/^{"flow":"\([^"]*\)".*/\1/p' "$1" | sort; }
[ "$(wc -l < "$obstmp/live.jsonl")" -eq "$(wc -l < "$obstmp/batch.jsonl")" ]
[ "$(flows "$obstmp/live.jsonl")" = "$(flows "$obstmp/batch.jsonl")" ]

echo "== streaming monitor eviction smoke (tiny flow table)"
# With a one-slot flow table the second flow's arrival evicts the first to
# a partial result carrying the structured flow_evicted warning — the
# robustness envelope degrades, never crashes.
go run ./cmd/csi-monitord -manifest "$obstmp/man.json" -max-flows 1 \
    -replay "$obstmp/frames.jsonl" -o "$obstmp/evict.jsonl"
grep -q 'flow_evicted' "$obstmp/evict.jsonl"

echo "== crash-recovery matrix (kill -> recover -> byte-identical)"
# Durability gate (DESIGN.md §13): each named crashpoint in
# internal/stream/crashpoint marks a durability boundary; killing the
# daemon there (CSI_CRASHPOINT, exit 86) and restarting against the same
# -state-dir must reproduce the uninterrupted replay byte for byte. First
# the baseline: a durable uninterrupted run must itself match the
# non-durable replay — -state-dir can never perturb output. Under -quick
# only the two highest-value points run (a mid-stream WAL append and the
# published-snapshot boundary); the full matrix covers all seven.
# wal.post_write fires once per control-loop batch of at most 256 frames,
# so hit n/512 always fires, and in the middle of the stream once the
# replay feed keeps the batches full.
go build -o "$obstmp/csi-monitord" ./cmd/csi-monitord
n=$(wc -l < "$obstmp/frames.jsonl")
"$obstmp/csi-monitord" -manifest "$obstmp/man.json" -resolve-every 500 \
    -state-dir "$obstmp/durable-clean" -snapshot-every 8192 \
    -replay "$obstmp/frames.jsonl" -o "$obstmp/durable.jsonl" 2> /dev/null
cmp "$obstmp/durable.jsonl" "$obstmp/replay.jsonl"
crashpoints="wal.pre_append@$((n / 3)) wal.post_append@$((n / 2)) wal.post_write@$((n / 512)) snapshot.pre_rename snapshot.post_rename commit.pre_emit drain.pre_snapshot"
if [ "$QUICK" = 1 ]; then
    crashpoints="wal.post_append@$((n / 2)) snapshot.post_rename"
fi
for pt in $crashpoints; do
    sdir="$obstmp/crash-$(echo "$pt" | tr '.@' '--')"
    rc=0
    CSI_CRASHPOINT="$pt" "$obstmp/csi-monitord" -manifest "$obstmp/man.json" -resolve-every 500 \
        -state-dir "$sdir" -snapshot-every 8192 \
        -replay "$obstmp/frames.jsonl" -o "$sdir.out" > /dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 86 ]; then
        echo "crashpoint $pt: expected exit 86 from the armed run, got $rc" >&2
        exit 1
    fi
    "$obstmp/csi-monitord" -manifest "$obstmp/man.json" -resolve-every 500 \
        -state-dir "$sdir" -snapshot-every 8192 \
        -replay "$obstmp/frames.jsonl" -o "$sdir.out" 2> /dev/null
    cmp "$sdir.out" "$obstmp/replay.jsonl"
done

echo "== WAL record salvage fuzz smoke"
# The WAL scanner against arbitrary segment bytes: salvage must never
# panic, never misclassify a torn tail as corruption, and whatever it
# keeps must re-encode to exactly the valid prefix it reported. Seeds
# mirror the crash matrix's real damage shapes (minimization capped).
go test -run='^$' -fuzz='^FuzzWALRecord$' -fuzztime=5s -fuzzminimizetime=10s \
    ./internal/stream > /dev/null

echo "== stream ingest fuzz smoke"
# The frame decoder and the monitor's ingest/evict/solve machinery under a
# deliberately tiny budget: truncated packets, interleaved flows,
# out-of-order timestamps and mid-handshake eviction must never panic. The
# static corpus under internal/stream/testdata/fuzz/ replays in go test;
# the smoke exercises the mutation engine (minimization capped so a new
# interesting input cannot stall the gate).
go test -run='^$' -fuzz='^FuzzStreamIngest$' -fuzztime=5s -fuzzminimizetime=10s \
    ./internal/stream > /dev/null

echo "== frame codec fuzz smoke"
# The hand-written frame codec against encoding/json on arbitrary bytes:
# decodeFrame must accept, reject and decode exactly as json.Unmarshal, and
# every frame it decodes must re-encode to json.Marshal's bytes.
go test -run='^$' -fuzz='^FuzzFrameCodec$' -fuzztime=5s -fuzzminimizetime=10s \
    ./internal/stream > /dev/null

echo "== incremental Step 1 fuzz smoke"
# A packet sequence split into solves at arbitrary points: the Step 1 state
# carried across the solves must give exactly the Estimation of a fresh
# Estimate of each prefix (DESIGN.md §12).
go test -run='^$' -fuzz='^FuzzIncrementalEstimate$' -fuzztime=5s -fuzzminimizetime=10s \
    ./internal/core > /dev/null

echo "== bounded inference smoke (tiny work budget)"
# A one-step work budget must truncate the inference into a *partial*
# result — exit 0, a structured deadline_exceeded warning on stdout —
# never a hard error (DESIGN.md §10). Uses the quickstart run from above.
go run ./cmd/csi-analyze -manifest "$obstmp/man.json" -run "$obstmp/run.json" \
    -work-budget 1 > "$obstmp/budget.out"
grep -q 'deadline_exceeded' "$obstmp/budget.out"

echo "== degradation sweep smoke"
# One tiny sweep (1 video x 1 trace, clean + one loss level) end to end; the
# full curve is `csi-paper faults`.
go test -run='^TestFaultSweepSmoke$' -count=1 ./internal/experiments > /dev/null

echo "check.sh: all gates passed"
