#!/bin/sh
# Repo checks: build, static analysis (the root module and the bench
# module), the gofmt gate (every Go file in
# the repo, bench/ included, is gofmt-clean), the docs gate (every
# package has a doc comment; no broken references in the top-level
# *.md files),
# the full test suite and the benchmark module's tests (bench/ is its
# own Go module), a race-detector pass over the packages with real
# concurrency (the cell scheduler, the run log it writes through, the
# hottest pooled data structures in the coherence layer, and the
# machine's node-pair table that many goroutines share), smoke
# runs of the atomicsim CLI exercising the manifest/resume path (a
# fresh run, its resume, and a resume after both logs were torn
# mid-append, and a run whose watchdog failed a cell, resumed without
# it) and the
# observability layer (-metrics tables, byte-identical at -par 1 and
# -par 4, and -chrome traces) end to end,
# a full invariant-checked sweep, a cache-corruption/quarantine smoke,
# a custom-machine-spec smoke (-machinefile load, digest-keyed resume,
# spec round trip), a workload-spec smoke (-workloadfile load,
# digest-keyed resume, -workloads name resolution), an app-spec smoke
# (-appfile load, digest-keyed "/app@" cells, resumed byte-identically,
# the conflict-model prediction column), a fleet-sweep smoke
# (-fleet cross-architecture run with bottleneck verdicts, resumed
# byte-identically from the digest-keyed cache), an atomicd job-server
# smoke (submit → poll → dedup → SIGTERM drain, then a second daemon
# whose first cell always panics: the job fails once with no automatic
# re-run, and a resubmission runs it once more), a bench smoke
# enforcing the simulation path's allocation budget, and short
# native-fuzz passes over the run-log parsers (each one-pass codec of
# the cell cache, the cache line, the histogram, the metrics snapshot
# and the workload and app cell results, against encoding/json, and
# the compact-value
# validator against json.Valid), topology hop
# computation, the machine, workload, app and job spec loaders (the
# first three run the one shared loader property, speckit.Property,
# each seeded from its own registry), and the event queue's express
# lane (Schedule against a heap-only reference) and park lane (parked
# spinner chains, unbounded and with a budget, against real repeat
# events), and finally prints the non-test Go line count per
# package (scripts/loc.sh) without gating on it. Run from the repo root.
set -eu

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== (cd bench && go vet ./...)"
# bench/ is its own module, which the root go vet does not reach.
(cd bench && go vet ./...)

echo "== gofmt -l (tracked and new Go files, bench/ included)"
unformatted=$(gofmt -l $(git ls-files --cached --others --exclude-standard '*.go'))
if [ -n "$unformatted" ]; then
    echo "gofmt would reformat:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== docs check (package comments + markdown references)"
go run ./scripts/docscheck

echo "== go test ./..."
go test ./...

echo "== (cd bench && go test ./...)"
# The benchmark is its own module (bench/go.mod replaces atomicsmodel by
# ../), so the root test run does not reach it; it imports harness,
# runlog, jobs, apps, predict, bottleneck, metrics and workload, and its
# smoke test checks every workload against its golden digest.
(cd bench && go test ./...)

echo "== go test -race ./internal/harness ./internal/coherence ./internal/runlog ./internal/jobs ./internal/machine"
go test -race ./internal/harness ./internal/coherence ./internal/runlog ./internal/jobs ./internal/machine

echo "== atomicsim -manifest smoke run"
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
go run ./cmd/atomicsim -quick -quiet -exp F3 -machine XeonE5 \
    -manifest "$dir/run" > "$dir/fresh.txt"
go run ./cmd/atomicsim -quick -quiet -exp F3 -machine XeonE5 \
    -resume "$dir/run" > "$dir/resumed.txt" 2> "$dir/resume.log"
cmp "$dir/fresh.txt" "$dir/resumed.txt" || {
    echo "resumed tables differ from fresh run" >&2
    exit 1
}
go run ./cmd/atomicsim -checkmanifest "$dir/run"
# The manifest must contain cell records and a run summary, and the
# resumed run must have replayed at least one cell from the cache.
grep -q '"type":"cell"' "$dir/run/manifest.jsonl"
grep -q '"type":"run"' "$dir/run/manifest.jsonl"
grep -q '"cached":true' "$dir/run/manifest.jsonl"

echo "== watchdog-then-resume smoke (a timed-out cell is finished by -resume)"
# No cell is retried inside a run: cells are deterministic, so a retry
# repeats the failure. A cell the watchdog failed is computed again by
# -resume, which replays everything the failed run finished.
# Built, not run with go run, which reports any failure as exit 1.
go build -o "$dir/atomicsim" ./cmd/atomicsim
rc=0
"$dir/atomicsim" -quick -quiet -exp F3 -machine XeonE5 -par 1 \
    -celltimeout 1ns -manifest "$dir/wdrun" > /dev/null 2> "$dir/wd.log" || rc=$?
[ "$rc" = 1 ] || {
    echo "a 1ns watchdog run exited $rc, want 1" >&2
    exit 1
}
"$dir/atomicsim" -checkmanifest "$dir/wdrun" | grep -q 'manifest ok'
grep -q '"timed_out":true' "$dir/wdrun/manifest.jsonl" || {
    echo "the manifest records no timed-out cell" >&2
    exit 1
}
"$dir/atomicsim" -quick -quiet -exp F3 -machine XeonE5 \
    -resume "$dir/wdrun" > "$dir/wd_resumed.txt"
cmp "$dir/fresh.txt" "$dir/wd_resumed.txt" || {
    echo "tables resumed after a watchdog failure differ from the fresh run" >&2
    exit 1
}

echo "== torn-tail resume smoke (both logs torn mid-append, then resumed twice)"
# A run killed mid-append leaves a torn final line in manifest.jsonl and
# cells.jsonl. The resume must recompute the lost cell and match the
# fresh tables, and must end both files at a record boundary before it
# appends: the manifest then validates, and a second resume finds
# nothing left to quarantine.
cp -r "$dir/run" "$dir/tornrun"
for f in manifest.jsonl cells.jsonl; do
    p="$dir/tornrun/$f"
    size=$(wc -c < "$p")
    last=$(tail -n 1 "$p" | wc -c)
    head -c $((size - last / 2 - 1)) "$p" > "$p.tmp"
    mv "$p.tmp" "$p"
done
go run ./cmd/atomicsim -quick -quiet -exp F3 -machine XeonE5 \
    -resume "$dir/tornrun" > "$dir/torn_resumed.txt" 2> "$dir/torn.log"
grep -q 'torn final write' "$dir/torn.log" || {
    echo "torn cache line was not reported" >&2
    exit 1
}
cmp "$dir/fresh.txt" "$dir/torn_resumed.txt" || {
    echo "tables resumed after a torn tail differ from the fresh run" >&2
    exit 1
}
go run ./cmd/atomicsim -checkmanifest "$dir/tornrun"
go run ./cmd/atomicsim -quick -quiet -exp F3 -machine XeonE5 \
    -resume "$dir/tornrun" > /dev/null 2> "$dir/torn2.log"
if grep -q 'quarantined' "$dir/torn2.log"; then
    echo "second resume after a torn tail quarantined again:" >&2
    cat "$dir/torn2.log" >&2
    exit 1
fi

echo "== observability smoke run (-metrics tables, -chrome trace)"
go run ./cmd/atomicsim -quick -quiet -exp F3 -machine XeonE5 -metrics \
    > "$dir/metrics.txt"
grep -q 'metrics (F3)' "$dir/metrics.txt"
# Metrics must not perturb results: the table prefix matches the plain run.
head -n "$(wc -l < "$dir/fresh.txt")" "$dir/metrics.txt" | cmp - "$dir/fresh.txt" || {
    echo "-metrics changed the result tables" >&2
    exit 1
}
go run ./cmd/atomictrace -threads 4 -ops 20 -chrome "$dir/trace.json" \
    > /dev/null 2>&1
grep -q '"traceEvents"' "$dir/trace.json"
# Metrics tables must not depend on the worker count: cells complete in
# any order, and experiments that fan out more than once reuse cell
# indices, so this pins the row order of every experiment's table.
go run ./cmd/atomicsim -quick -quiet -metrics -par 1 > "$dir/metrics_p1.txt"
go run ./cmd/atomicsim -quick -quiet -metrics -par 4 > "$dir/metrics_p4.txt"
cmp "$dir/metrics_p1.txt" "$dir/metrics_p4.txt" || {
    echo "-metrics output differs between -par 1 and -par 4" >&2
    exit 1
}

echo "== invariant-checked sweep (-check must change nothing and find nothing)"
go run ./cmd/atomicsim -quick -quiet > "$dir/plain.txt"
go run ./cmd/atomicsim -quick -quiet -check > "$dir/checked.txt" 2> "$dir/check.log"
cmp "$dir/plain.txt" "$dir/checked.txt" || {
    echo "-check changed the result tables" >&2
    exit 1
}
if grep -q 'invariant:' "$dir/check.log"; then
    echo "invariant violations in a clean sweep:" >&2
    cat "$dir/check.log" >&2
    exit 1
fi

echo "== fault-injection smoke (corrupt cache quarantined, tables still byte-identical)"
go run ./cmd/atomicsim -quick -quiet -exp F3 -machine XeonE5 \
    -manifest "$dir/faultrun" > "$dir/fault_fresh.txt"
# Flip one byte inside a cached cell's value payload, the way bad disk
# would: the loader must quarantine the line (digest mismatch or
# unparseable entry) and recompute that cell.
awk 'NR==2 {
    pos = index($0, "\"value\"") + 12
    c = substr($0, pos, 1)
    print substr($0, 1, pos-1) (c == "x" ? "y" : "x") substr($0, pos+1)
    next
} {print}' "$dir/faultrun/cells.jsonl" > "$dir/faultrun/cells.tmp"
mv "$dir/faultrun/cells.tmp" "$dir/faultrun/cells.jsonl"
go run ./cmd/atomicsim -quick -quiet -exp F3 -machine XeonE5 \
    -resume "$dir/faultrun" > "$dir/fault_resumed.txt" 2> "$dir/fault.log"
grep -q 'quarantined' "$dir/fault.log" || {
    echo "corrupt cache line was not quarantined" >&2
    exit 1
}
cmp "$dir/fault_fresh.txt" "$dir/fault_resumed.txt" || {
    echo "recomputed tables differ after cache corruption" >&2
    exit 1
}
go run ./cmd/atomicsim -checkmanifest "$dir/faultrun" | grep -q 'manifest ok'
# Injected faults must fail loudly, not silently: a targeted mid-cell
# panic is recovered, reported, and reflected in the exit code.
if go run ./cmd/atomicsim -quick -quiet -exp F3 -machine XeonE5 \
    -faults panic=100@0 > /dev/null 2> "$dir/panic.log"; then
    echo "injected panic did not fail the run" >&2
    exit 1
fi
grep -q 'injected panic at event 100' "$dir/panic.log"

echo "== custom machine spec smoke (-machinefile, digest-keyed resume)"
# A machine loaded from a JSON spec file must run end to end, resume
# byte-identically from its own digest-keyed cache namespace, and its
# cell keys must carry the Name@digest form.
go run ./cmd/atomicsim -quick -quiet -exp F1 \
    -machinefile examples/machines/epyc.json \
    -manifest "$dir/specrun" > "$dir/spec_fresh.txt"
go run ./cmd/atomicsim -quick -quiet -exp F1 \
    -machinefile examples/machines/epyc.json \
    -resume "$dir/specrun" > "$dir/spec_resumed.txt"
cmp "$dir/spec_fresh.txt" "$dir/spec_resumed.txt" || {
    echo "-machinefile resume differs from fresh run" >&2
    exit 1
}
grep -q '"cached":true' "$dir/specrun/manifest.jsonl"
grep -q 'EPYC@' "$dir/specrun/manifest.jsonl" || {
    echo "spec-built machine cells are not digest-keyed" >&2
    exit 1
}
# Spec round trip: the same file through the facade parses, builds, and
# re-canonicalizes to a fixed point (covered in depth by TestSpecRoundTrip;
# this guards the shipped example file itself).
go run ./cmd/atomicmodel -machinefile examples/machines/epyc.json \
    -primitive FAA -threads 8 > /dev/null
# An unknown machine name must fail and list what is registered.
if go run ./cmd/atomicsim -quick -quiet -exp F1 -machines bogus \
    > /dev/null 2> "$dir/bogus.log"; then
    echo "unknown -machines name did not fail" >&2
    exit 1
fi
grep -q 'registered:' "$dir/bogus.log"

echo "== workload spec smoke (-workloadfile, digest-keyed resume)"
# A workload loaded from a JSON spec file must run end to end as the W
# suite, resume byte-identically from its own digest-keyed cache
# namespace, and its cell keys must carry the "/wl@digest" form.
go run ./cmd/atomicsim -quick -quiet \
    -workloadfile examples/workloads/swap-ladder.json \
    -manifest "$dir/wlrun" > "$dir/wl_fresh.txt"
go run ./cmd/atomicsim -quick -quiet \
    -workloadfile examples/workloads/swap-ladder.json \
    -resume "$dir/wlrun" > "$dir/wl_resumed.txt"
cmp "$dir/wl_fresh.txt" "$dir/wl_resumed.txt" || {
    echo "-workloadfile resume differs from fresh run" >&2
    exit 1
}
grep -q '"cached":true' "$dir/wlrun/manifest.jsonl"
grep -q '/wl@' "$dir/wlrun/manifest.jsonl" || {
    echo "workload spec cells are not digest-keyed" >&2
    exit 1
}
# Registered presets resolve by name; an unknown one fails and lists
# what is registered.
go run ./cmd/atomicsim -quick -quiet -workloads open-loop-faa \
    -machines Ideal8 > /dev/null
if go run ./cmd/atomicsim -quick -quiet -workloads bogus \
    > /dev/null 2> "$dir/wlbogus.log"; then
    echo "unknown -workloads name did not fail" >&2
    exit 1
fi
grep -q 'registered:' "$dir/wlbogus.log"

echo "== app spec smoke (-appfile, digest-keyed resume, prediction column)"
# An app loaded from a JSON spec file must run end to end as the A
# suite, resume byte-identically from its own digest-keyed cache
# namespace, key its cells "/app@digest", and carry the conflict
# model's prediction column.
go run ./cmd/atomicsim -quick -quiet -machines XeonE5 \
    -appfile examples/apps/elimination-sweep.json \
    -manifest "$dir/apprun" > "$dir/app_fresh.txt"
go run ./cmd/atomicsim -quick -quiet -machines XeonE5 \
    -appfile examples/apps/elimination-sweep.json \
    -resume "$dir/apprun" > "$dir/app_resumed.txt"
cmp "$dir/app_fresh.txt" "$dir/app_resumed.txt" || {
    echo "-appfile resume differs from fresh run" >&2
    exit 1
}
grep -q '"cached":true' "$dir/apprun/manifest.jsonl"
grep -q '/app@' "$dir/apprun/manifest.jsonl" || {
    echo "app spec cells are not digest-keyed" >&2
    exit 1
}
grep -q 'model Mops' "$dir/app_fresh.txt" || {
    echo "A-suite table is missing the conflict-model prediction column" >&2
    exit 1
}
# Registered presets resolve by name; an unknown one fails and lists
# what is registered.
go run ./cmd/atomicsim -quick -quiet -apps faa-counter \
    -machines Ideal8 > /dev/null
if go run ./cmd/atomicsim -quick -quiet -apps bogus \
    > /dev/null 2> "$dir/appbogus.log"; then
    echo "unknown -apps name did not fail" >&2
    exit 1
fi
grep -q 'registered:' "$dir/appbogus.log"

echo "== fleet sweep smoke (-fleet cross-architecture run, digest-keyed resume)"
# A fleet sweep must print per-machine bottleneck verdicts and a
# cross-architecture summary, and an interrupted sweep must resume
# byte-identically: every cell replays from the digest-keyed cache,
# metrics snapshots included, so the rollup is recomputable offline.
go run ./cmd/atomicsim -quick -quiet -fleet -machines XeonE5,Grace \
    -workloadfile examples/workloads/swap-ladder.json \
    -manifest "$dir/fleetrun" > "$dir/fleet_fresh.txt"
go run ./cmd/atomicsim -quick -quiet -fleet -machines XeonE5,Grace \
    -workloadfile examples/workloads/swap-ladder.json \
    -resume "$dir/fleetrun" > "$dir/fleet_resumed.txt"
cmp "$dir/fleet_fresh.txt" "$dir/fleet_resumed.txt" || {
    echo "-fleet resume differs from fresh run" >&2
    exit 1
}
grep -q '"cached":true' "$dir/fleetrun/manifest.jsonl"
grep -q '/wl@' "$dir/fleetrun/manifest.jsonl" || {
    echo "fleet cells are not digest-keyed" >&2
    exit 1
}
grep -q 'bottleneck' "$dir/fleet_fresh.txt" || {
    echo "fleet report is missing the bottleneck verdict column" >&2
    exit 1
}
grep -q 'FLEET summary' "$dir/fleet_fresh.txt" || {
    echo "fleet report is missing the cross-architecture summary" >&2
    exit 1
}

echo "== atomicd smoke (job server: submit, poll, dedup, drain; failed job runs once, resubmit re-runs it)"
# The job daemon must serve a quick job end to end, deduplicate an
# identical resubmit against the cache (200, not 202, and no second
# execution), answer health checks, and drain clean on SIGTERM: exit 0,
# addr file removed, journal left with nothing pending.
go build -o "$dir/atomicd" ./cmd/atomicd
"$dir/atomicd" -dir "$dir/adrun" -quiet &
atomicd_pid=$!
# A failed check below must not leave the daemon under test running.
trap 'kill "$atomicd_pid" 2>/dev/null || true; rm -rf "$dir"' EXIT
for _ in $(seq 1 100); do
    [ -s "$dir/adrun/atomicd.addr" ] && break
    sleep 0.1
done
addr=$(cat "$dir/adrun/atomicd.addr")
job='{"machines":["XeonE5"],"workloads":["high-faa"],"quick":true}'
code=$(curl -s -o "$dir/submit1.json" -w '%{http_code}' \
    -X POST "http://$addr/jobs" -d "$job")
[ "$code" = 202 ] || { echo "first submit returned $code, want 202" >&2; exit 1; }
jobid=$(sed -n 's/.*"id": *"\(j[a-f0-9]*\)".*/\1/p' "$dir/submit1.json" | head -n 1)
curl -s "http://$addr/jobs/$jobid?wait=60s" > "$dir/poll.json"
grep -q '"state": *"done"' "$dir/poll.json" || {
    echo "job did not reach done:" >&2; cat "$dir/poll.json" >&2; exit 1
}
curl -s "http://$addr/jobs/$jobid/result" | grep -q 'threads' || {
    echo "job result is not a rendered table" >&2; exit 1
}
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$addr/jobs" -d "$job")
[ "$code" = 200 ] || { echo "dup submit returned $code, want 200 (dedup)" >&2; exit 1; }
curl -s "http://$addr/healthz" | grep -q '"executed": *1' || {
    echo "dedup re-executed the job" >&2; exit 1
}
# App-spec jobs go through the same pipeline: submit one, wait, and the
# result must be an A-suite table with the prediction column.
appjob='{"machines":["XeonE5"],"apps":["treiber"],"quick":true}'
code=$(curl -s -o "$dir/submit_app.json" -w '%{http_code}' \
    -X POST "http://$addr/jobs" -d "$appjob")
[ "$code" = 202 ] || { echo "app job submit returned $code, want 202" >&2; exit 1; }
appjobid=$(sed -n 's/.*"id": *"\(j[a-f0-9]*\)".*/\1/p' "$dir/submit_app.json" | head -n 1)
curl -s "http://$addr/jobs/$appjobid?wait=60s" | grep -q '"state": *"done"' || {
    echo "app job did not reach done" >&2; exit 1
}
curl -s "http://$addr/jobs/$appjobid/result" | grep -q 'model Mops' || {
    echo "app job result is missing the prediction column" >&2; exit 1
}
# The health check surfaces the shared cell cache's traffic counters.
curl -s "http://$addr/healthz" | grep -q '"cacheHits"' || {
    echo "healthz is missing the cell-cache counters" >&2; exit 1
}
kill -TERM "$atomicd_pid"
wait "$atomicd_pid" || { echo "atomicd drain exited nonzero" >&2; exit 1; }
[ ! -e "$dir/adrun/atomicd.addr" ] || {
    echo "addr file survived the drain" >&2; exit 1
}
"$dir/atomicd" -checkjournal "$dir/adrun" | grep -q '0 pending' || {
    echo "drained journal still has pending jobs" >&2; exit 1
}
# A job runs once per submission. On a daemon whose first cell always
# panics, a job ends failed after one execution (nothing re-runs it on
# its own); a resubmission is admitted again (202), runs once more and
# fails the same way, and the daemon still drains clean.
"$dir/atomicd" -dir "$dir/adfail" -quiet -faults panic=1@0 -par 1 &
atomicd_pid=$!
for _ in $(seq 1 100); do
    [ -s "$dir/adfail/atomicd.addr" ] && break
    sleep 0.1
done
addr=$(cat "$dir/adfail/atomicd.addr")
for want in 1 2; do
    code=$(curl -s -o "$dir/fail_submit.json" -w '%{http_code}' \
        -X POST "http://$addr/jobs" -d "$job")
    [ "$code" = 202 ] || { echo "submit $want of a failing job returned $code, want 202" >&2; exit 1; }
    jobid=$(sed -n 's/.*"id": *"\(j[a-f0-9]*\)".*/\1/p' "$dir/fail_submit.json" | head -n 1)
    curl -s "http://$addr/jobs/$jobid?wait=60s" | grep -q '"state": *"failed"' || {
        echo "failing job did not end failed on submit $want" >&2; exit 1
    }
    curl -s "http://$addr/healthz" | grep -q "\"executed\": *$want\b" || {
        echo "after submit $want of a failing job, healthz does not show $want executions:" >&2
        curl -s "http://$addr/healthz" >&2; exit 1
    }
done
kill -TERM "$atomicd_pid"
wait "$atomicd_pid" || { echo "atomicd drain after a failed job exited nonzero" >&2; exit 1; }
"$dir/atomicd" -checkjournal "$dir/adfail" | grep -q '0 pending' || {
    echo "drained journal still has pending jobs after a failed job" >&2; exit 1
}
trap 'rm -rf "$dir"' EXIT

echo "== bench smoke (allocation budget on the simulation path)"
# The coherence access path must stay allocation-free, and a full cell
# must stay within a one-time pool-build budget (the steady state is
# zero allocations; at 100 iterations the build cost amortizes to a few
# objects per op). A regression to per-event allocation shows up as
# hundreds of allocs/op and fails here before it lands.
go test -run XXX -bench 'BenchmarkCoherenceAccess$' -benchtime 100x -benchmem \
    ./internal/coherence | tee "$dir/bench_coh.txt"
awk '/BenchmarkCoherenceAccess/ { if ($(NF-1) + 0 != 0) exit 1 }' "$dir/bench_coh.txt" || {
    echo "coherence access path allocates (allocs/op > 0)" >&2
    exit 1
}
go test -run XXX -bench 'BenchmarkFullCell$' -benchtime 100x -benchmem \
    ./internal/harness | tee "$dir/bench_cell.txt"
awk '/BenchmarkFullCell/ { if ($(NF-1) + 0 > 20) exit 1 }' "$dir/bench_cell.txt" || {
    echo "full-cell allocations regressed (allocs/op > 20 at 100 iterations)" >&2
    exit 1
}
# The cells the memoizer fast-forwards in full F3 (72 threads, full
# window; Load, CAS, CAS2, FAA) hold the same budget: the memoizer's
# scratch is pooled with the cell, so a jump allocates nothing.
go test -run XXX -bench 'BenchmarkMemoizedCell$' -benchtime 100x -benchmem \
    ./internal/harness | tee "$dir/bench_memo.txt"
awk '/BenchmarkMemoizedCell/ { if ($(NF-1) + 0 > 20) exit 1 }' "$dir/bench_memo.txt" || {
    echo "memoized-cell allocations regressed (allocs/op > 20 at 100 iterations)" >&2
    exit 1
}
# The read-mix cells, whose runs of hits park in budgeted chains, hold
# the same budget.
go test -run XXX -bench 'BenchmarkReadMixCell$' -benchtime 100x -benchmem \
    ./internal/harness | tee "$dir/bench_readmix.txt"
awk '/BenchmarkReadMixCell/ { if ($(NF-1) + 0 > 20) exit 1 }' "$dir/bench_readmix.txt" || {
    echo "read-mix-cell allocations regressed (allocs/op > 20 at 100 iterations)" >&2
    exit 1
}
# An app cell allocates its structure, per-thread contexts and result
# once per cell (about 100-200 objects) and nothing per operation; a
# per-operation allocation adds thousands per cell.
go test -run XXX -bench 'BenchmarkAppCell$' -benchtime 100x -benchmem \
    ./internal/harness | tee "$dir/bench_app.txt"
awk '/BenchmarkAppCell/ { if ($(NF-1) + 0 > 400) exit 1 }' "$dir/bench_app.txt" || {
    echo "app-cell allocations regressed (allocs/op > 400 at 100 iterations)" >&2
    exit 1
}

echo "== fuzz smoke (runlog parsers, cache line, histogram, metrics-snapshot and cell-result codecs vs encoding/json, compact-value validator vs json.Valid, job journal replay, topology hops, coherence value chains, machine/workload/app/job specs, Schedule's express lane vs heap-only, park lane with unbounded and budgeted chains)"
go test -run FuzzNothing -fuzz FuzzCacheLoad -fuzztime 5s ./internal/runlog > /dev/null
go test -run FuzzNothing -fuzz FuzzManifestValidate -fuzztime 5s ./internal/runlog > /dev/null
go test -run FuzzNothing -fuzz FuzzCacheLine -fuzztime 5s ./internal/runlog > /dev/null
go test -run FuzzNothing -fuzz FuzzHistogramJSON -fuzztime 5s ./internal/stats > /dev/null
go test -run FuzzNothing -fuzz FuzzSnapshotJSON -fuzztime 5s ./internal/metrics > /dev/null
go test -run FuzzNothing -fuzz FuzzValidCompact -fuzztime 5s ./internal/canonjson > /dev/null
go test -run FuzzNothing -fuzz FuzzResultJSON -fuzztime 5s ./internal/workload > /dev/null
go test -run FuzzNothing -fuzz FuzzRunResultJSON -fuzztime 5s ./internal/apps > /dev/null
go test -run FuzzNothing -fuzz FuzzJournalReplay -fuzztime 5s ./internal/jobs > /dev/null
go test -run FuzzNothing -fuzz FuzzHops -fuzztime 5s ./internal/topology > /dev/null
go test -run FuzzNothing -fuzz FuzzProtocolValueChain -fuzztime 5s ./internal/coherence > /dev/null
go test -run FuzzNothing -fuzz FuzzSpecLoad -fuzztime 5s ./internal/machine > /dev/null
go test -run FuzzNothing -fuzz FuzzWorkloadSpecLoad -fuzztime 5s ./internal/workload > /dev/null
go test -run FuzzNothing -fuzz FuzzAppSpecLoad -fuzztime 5s ./internal/apps > /dev/null
go test -run FuzzNothing -fuzz FuzzExpressLaneOrder -fuzztime 5s ./internal/sim > /dev/null
go test -run FuzzNothing -fuzz FuzzParkedLane -fuzztime 5s ./internal/sim > /dev/null
go test -run FuzzNothing -fuzz FuzzJobSpecLoad -fuzztime 5s ./internal/jobs > /dev/null

echo "== non-test Go lines per package (informational, not gated)"
sh scripts/loc.sh

echo "ok"
