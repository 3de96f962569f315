#!/usr/bin/env bash
# Offline CI gate: format, lint, build, test, then smoke-test the CLI's
# observability path end to end. Everything runs with --offline — the
# workspace has no registry dependencies by design.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy (deny warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo build --release"
cargo build --offline --release --workspace

echo "== cargo test"
cargo test --offline --workspace -q

echo "== bench: netbench gate (fmt, clippy, self-tests, --quick smoke runs) and digests"
# Every workload's output digest at seed 1993. netbench checks each pass
# only against its own warm-up, so this table is what catches a change
# to what a workload computes. A change that means to alter a workload's
# output updates its row here, and says why.
netbench_digests="stream-sdsc 0d0f0022f4d34b87
ingest-pcapng 827260d07c5e8766
collect-zipf 752949928d0e9bfb
grid-paper bcda7db26082c78b"
# netbench is a workspace of its own, so nothing above compiles it, yet
# it links the public APIs of nettrace, streamkit, collectd, sampling
# and faultkit: a change that breaks one of them must fail here.
benchmark/check.sh
# The table's rows arrive on the loop's stdin; netbench gets /dev/null so
# that it can never read the rows still to be checked.
while read -r workload want; do
    got="$(cargo run --offline --release -q --manifest-path benchmark/Cargo.toml -- \
        run --seed 1993 --workload "$workload" --seconds 1 < /dev/null |
        sed -n 's/.* digest \([0-9a-f]*\)$/\1/p')"
    if [ "$got" != "$want" ]; then
        echo "netbench $workload seed-1993 digest '$got', want $want" >&2
        exit 1
    fi
done <<< "$netbench_digests"

echo "== smoke: synthesize + score with --metrics"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
bin=target/release/netsample
"$bin" synth "$tmpdir/pop.pcap" --seconds 10 --seed 7 --metrics 2> "$tmpdir/synth.metrics" | grep -q "wrote"
grep -q "netsynth_packets_generated_total" "$tmpdir/synth.metrics"
"$bin" score "$tmpdir/pop.pcap" --interval 20 --replications 3 --metrics \
    --trace "$tmpdir/events.jsonl" 2> "$tmpdir/score.metrics" | grep -q "mean phi"
grep -q "nettrace_packets_read_total" "$tmpdir/score.metrics"
grep -q "sampling_packets_selected_total" "$tmpdir/score.metrics"
grep -q '"kind":"span"' "$tmpdir/events.jsonl"

echo "== par: serial/parallel equivalence + pool determinism smoke"
# The paper's five methods must score bit-identically at any pool
# width; the equivalence suite pins jobs 1 vs 4 (and 8) against each
# other with exact f64 bit comparisons.
cargo test --offline -q -p sampling --test par_equivalence
# Determinism smoke: the parkit suite run twice under heavy test-thread
# interleaving must print the same stdout (panic-hook chatter on stderr
# is timing-dependent by nature; wall-clock lines are normalized away).
for pass in 1 2; do
    cargo test --offline -q -p parkit -- --test-threads=8 \
        2>/dev/null | sed -E 's/finished in [0-9.]+s/finished in Xs/' \
        > "$tmpdir/par.$pass.out"
done
diff "$tmpdir/par.1.out" "$tmpdir/par.2.out" || {
    echo "parkit test output is nondeterministic across runs" >&2
    exit 1
}

echo "== fuzz: seeded fault-injection campaign (deterministic, offline)"
# Fixed-seed mutation campaign over pcap/pcapng parsing plus
# state-machine fuzzing of the samplers and the disparity metric. Any
# finding (panic, incorrect accept, salvage inconsistency) exits 1.
# Running it twice and diffing byte-for-byte pins determinism: the
# whole campaign is a pure function of the seed.
for pass in 1 2; do
    "$bin" fuzz --seed 1993 --mutations 10000 --cases 1000 \
        > "$tmpdir/fuzz.$pass.out"
done
diff "$tmpdir/fuzz.1.out" "$tmpdir/fuzz.2.out" || {
    echo "fuzz campaign is nondeterministic across runs" >&2
    exit 1
}
grep -q "findings: 0" "$tmpdir/fuzz.1.out"
# The lossy ingest path salvages a mid-record truncation the strict
# reader refuses.
head -c "$(( $(stat -c %s "$tmpdir/pop.pcap") - 7 ))" "$tmpdir/pop.pcap" > "$tmpdir/cut.pcap"
if "$bin" analyze "$tmpdir/cut.pcap" > /dev/null 2>&1; then
    echo "strict analyze accepted a truncated capture" >&2
    exit 1
fi
"$bin" analyze "$tmpdir/cut.pcap" --lossy | grep -q "lossy ingest (pcap)"

echo "== stream: one-pass windowed characterization (stdin, deterministic)"
# The streaming engine is a pure function of the capture bytes: piping
# the same capture through stdin twice must print byte-identical
# output and per-window JSONL, and reading the same capture as a file
# must match the pipe. rss_kb, a process reading, is the one JSONL
# field masked before the compare.
for pass in 1 2; do
    "$bin" stream - --window 2000 --interval 50 --jsonl "$tmpdir/stream.$pass.jsonl" \
        < "$tmpdir/pop.pcap" > "$tmpdir/stream.$pass.out"
done
"$bin" stream "$tmpdir/pop.pcap" --window 2000 --interval 50 \
    --jsonl "$tmpdir/stream.file.jsonl" > "$tmpdir/stream.file.out"
for run in 1 2 file; do
    sed -E 's/"rss_kb":[0-9]+/"rss_kb":0/' "$tmpdir/stream.$run.jsonl" \
        > "$tmpdir/stream.$run.masked"
done
diff "$tmpdir/stream.1.out" "$tmpdir/stream.2.out" || {
    echo "stream output is nondeterministic across runs" >&2
    exit 1
}
cmp "$tmpdir/stream.1.masked" "$tmpdir/stream.2.masked" || {
    echo "stream --jsonl output is nondeterministic across runs" >&2
    exit 1
}
diff "$tmpdir/stream.1.out" "$tmpdir/stream.file.out" || {
    echo "stream differs between stdin and file ingestion" >&2
    exit 1
}
cmp "$tmpdir/stream.1.masked" "$tmpdir/stream.file.masked" || {
    echo "stream --jsonl differs between stdin and file ingestion" >&2
    exit 1
}
grep -q "mean phi=" "$tmpdir/stream.1.out"
# Simple random sampling draws exactly n = 2000/50 = 40 of every full
# 2000-packet window, not only of the first.
"$bin" stream "$tmpdir/pop.pcap" --method random --interval 50 --window 2000 \
    --jsonl "$tmpdir/stream.random.jsonl" > /dev/null
full="$(grep -c '"packets":2000,' "$tmpdir/stream.random.jsonl" || true)"
off="$(grep '"packets":2000,' "$tmpdir/stream.random.jsonl" | grep -vc '"selected":40,' || true)"
if [ "$full" -lt 2 ] || [ "$off" -ne 0 ]; then
    echo "stream --method random: $off of $full full windows did not select 40" >&2
    cat "$tmpdir/stream.random.jsonl" >&2
    exit 1
fi
# A capture that ends mid-record is a data error (sysexits 65) carrying
# the byte offset of the broken record, like the salvage reader reports.
if "$bin" stream "$tmpdir/cut.pcap" --window 1000 > /dev/null 2> "$tmpdir/stream.err"; then
    echo "stream accepted a truncated capture" >&2
    exit 1
else
    code=$?
    if [ "$code" -ne 65 ]; then
        echo "stream exited $code on a truncated capture, want 65" >&2
        exit 1
    fi
fi
grep -q "at byte" "$tmpdir/stream.err"

echo "== serve: live telemetry plane (mid-run scrapes + soak RSS bound)"
# Run a rate-paced soak with the scrape server on an ephemeral port.
# While it streams, scrape /metrics twice over plain TCP (bash /dev/tcp)
# and require a valid exposition whose ingest counter strictly
# increases between scrapes — proof the registry is being read live,
# not from an end-of-run snapshot. Then the soak itself must pass its
# RSS budget (exit 1 otherwise).
"$bin" --serve 127.0.0.1:0 stream --soak 40 --window 2000 --pace-pps 20000 \
    --interval 50 > "$tmpdir/soak.out" 2> "$tmpdir/soak.err" &
soak_pid=$!
port=""
for _ in $(seq 1 100); do
    port="$(sed -n 's/^netsample: serving on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$tmpdir/soak.err" | head -n1)"
    [ -n "$port" ] && break
    sleep 0.1
done
if [ -z "$port" ]; then
    echo "serve address never appeared on stderr" >&2
    kill "$soak_pid" 2>/dev/null || true
    exit 1
fi
scrape() {
    exec 3<>"/dev/tcp/127.0.0.1/$port"
    printf 'GET %s HTTP/1.0\r\n\r\n' "$1" >&3
    cat <&3
    exec 3<&- 3>&-
}
# The ingest counters register when the pipeline spins up, a moment
# after the server binds — poll until the first scrape sees them.
for _ in $(seq 1 100); do
    scrape /metrics > "$tmpdir/scrape.1" || true
    grep -q "^stream_packets_ingested_total " "$tmpdir/scrape.1" && break
    sleep 0.1
done
scrape /healthz > "$tmpdir/healthz.out"
sleep 0.7
scrape /metrics > "$tmpdir/scrape.2"
grep -q "# TYPE stream_packets_ingested_total counter" "$tmpdir/scrape.1"
grep -q "# TYPE proc_rss_kb gauge" "$tmpdir/scrape.1"
grep -q '"status":"ok"' "$tmpdir/healthz.out"
ing1="$(sed -n 's/^stream_packets_ingested_total \([0-9]*\)$/\1/p' "$tmpdir/scrape.1")"
ing2="$(sed -n 's/^stream_packets_ingested_total \([0-9]*\)$/\1/p' "$tmpdir/scrape.2")"
if [ -z "$ing1" ] || [ -z "$ing2" ] || [ "$ing2" -le "$ing1" ]; then
    echo "ingest counter did not increase between scrapes ('$ing1' -> '$ing2')" >&2
    kill "$soak_pid" 2>/dev/null || true
    exit 1
fi
wait "$soak_pid" || {
    echo "soak run failed (RSS budget or stream error):" >&2
    cat "$tmpdir/soak.out" "$tmpdir/soak.err" >&2
    exit 1
}
grep -Eq "soak: windows=40 .*ok|rss unavailable" "$tmpdir/soak.out"

echo "== watch: alert rules + scrape-driven gate (both directions)"
# Load two rules into a served soak: 'quiet' can never fire, 'tripwire'
# fires on the first telemetry tick. `watch --fail-on` must gate both
# ways against the same live server: exit 0 on the quiet rule, exit 1
# (and only 1) on the tripped one — that asymmetry is what CI pipelines
# hang an alerting regression gate on.
cat > "$tmpdir/watch.rules" <<'RULES'
# ci.sh watch-stage rules
rule quiet    value(telemetry_samples_total) > 1000000000
rule tripwire value(telemetry_samples_total) >= 1 for 1
RULES
"$bin" --serve 127.0.0.1:0 --rules "$tmpdir/watch.rules" \
    --telemetry-interval-ms 100 stream --soak 80 --window 2000 \
    --pace-pps 20000 --interval 50 \
    > "$tmpdir/wsoak.out" 2> "$tmpdir/wsoak.err" &
wsoak_pid=$!
wport=""
for _ in $(seq 1 100); do
    wport="$(sed -n 's/^netsample: serving on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$tmpdir/wsoak.err" | head -n1)"
    [ -n "$wport" ] && break
    sleep 0.1
done
if [ -z "$wport" ]; then
    echo "watch-stage serve address never appeared on stderr" >&2
    kill "$wsoak_pid" 2>/dev/null || true
    exit 1
fi
# While the server is still up: the monitoring path's self-fidelity
# check must be reporting φ for the systematic strides k=2,5,10 over
# the RSS and channel-depth series, and /series must answer JSON.
scrape_w() {
    exec 3<>"/dev/tcp/127.0.0.1/$wport"
    printf 'GET %s HTTP/1.0\r\n\r\n' "$1" >&3
    cat <&3
    exec 3<&- 3>&-
}
# The channel-depth fidelity gauge is the last to appear (the pipeline
# must publish its depth gauges before the store can snapshot them), so
# it is the readiness condition for the whole set.
for _ in $(seq 1 100); do
    scrape_w /metrics > "$tmpdir/watch.metrics" 2>/dev/null || true
    grep -Fq 'series="stream_channel_depth{stage=\"transform\"}",k="10"' \
        "$tmpdir/watch.metrics" && break
    sleep 0.1
done
for k in 2 5 10; do
    for pat in \
        "series_fidelity_phi_x1000{series=\"proc_rss_kb\",k=\"$k\"}" \
        'series="stream_channel_depth{stage=\"transform\"}",k="'"$k"'"'; do
        grep -Fq "$pat" "$tmpdir/watch.metrics" || {
            echo "fidelity gauge missing from /metrics: $pat" >&2
            kill "$wsoak_pid" 2>/dev/null || true
            exit 1
        }
    done
done
scrape_w '/series?name=proc_rss_kb&step=5' > "$tmpdir/watch.series"
grep -q '"key":"proc_rss_kb"' "$tmpdir/watch.series" || {
    echo "/series did not return the proc_rss_kb key" >&2
    kill "$wsoak_pid" 2>/dev/null || true
    exit 1
}
# Clean direction: the quiet rule exists and never fires -> exit 0,
# with sparklines and alert state on stdout.
"$bin" watch "127.0.0.1:$wport" --for 5 --interval-ms 150 --fail-on quiet \
    > "$tmpdir/watch.ok.out" || {
    echo "clean watch direction failed (want exit 0):" >&2
    cat "$tmpdir/watch.ok.out" >&2
    kill "$wsoak_pid" 2>/dev/null || true
    exit 1
}
grep -q "alert quiet" "$tmpdir/watch.ok.out" || {
    echo "clean watch never printed the quiet alert line" >&2
    kill "$wsoak_pid" 2>/dev/null || true
    exit 1
}
grep -q "watch: rule 'quiet' ok" "$tmpdir/watch.ok.out" || {
    echo "clean watch missing its ok summary" >&2
    kill "$wsoak_pid" 2>/dev/null || true
    exit 1
}
# Tripped direction: the tripwire rule fires -> exit 1, not 0 and not
# any other failure class.
if "$bin" watch "127.0.0.1:$wport" --for 5 --interval-ms 150 --fail-on tripwire \
    > "$tmpdir/watch.trip.out" 2> "$tmpdir/watch.trip.err"; then
    echo "watch exited 0 while its --fail-on rule was firing" >&2
    kill "$wsoak_pid" 2>/dev/null || true
    exit 1
else
    code=$?
    if [ "$code" -ne 1 ]; then
        echo "watch exited $code on a firing rule, want 1" >&2
        kill "$wsoak_pid" 2>/dev/null || true
        exit 1
    fi
fi
grep -q "fired during the watch" "$tmpdir/watch.trip.err" || {
    echo "tripped watch exit 1 but missing its diagnostic" >&2
    cat "$tmpdir/watch.trip.err" >&2
    kill "$wsoak_pid" 2>/dev/null || true
    exit 1
}
# A typo'd rule name must be a data error (65), never a silent pass.
if "$bin" watch "127.0.0.1:$wport" --for 1 --fail-on no_such_rule \
    > /dev/null 2> "$tmpdir/watch.typo.err"; then
    echo "watch exited 0 for an unknown --fail-on rule" >&2
    kill "$wsoak_pid" 2>/dev/null || true
    exit 1
else
    code=$?
    if [ "$code" -ne 65 ]; then
        echo "watch exited $code for an unknown rule, want 65" >&2
        kill "$wsoak_pid" 2>/dev/null || true
        exit 1
    fi
fi
wait "$wsoak_pid" || {
    echo "watch-stage soak failed:" >&2
    cat "$tmpdir/wsoak.out" "$tmpdir/wsoak.err" >&2
    exit 1
}

echo "== flows: inversion smoke + determinism + calibration battery"
# Synthesize the flow-id-carrying Zipf pack the inversion subcommand is
# built for, smoke the estimator table, and pin determinism end to end:
# the JSONL replication log must be byte-identical across runs, and the
# calibration battery (tests/flow_inversion_calibration.rs) must pass
# twice in a row — inversion is a pure function of (trace bytes,
# interval, replication offset).
"$bin" synth "$tmpdir/zipf.pcap" --profile zipf --seconds 20 --seed 1993 | grep -q "wrote"
"$bin" flows "$tmpdir/zipf.pcap" --method systematic --interval 100 \
    > "$tmpdir/flows.out"
grep -q "flow inversion: 1-in-100 systematic" "$tmpdir/flows.out"
grep -qE '^ *em ' "$tmpdir/flows.out"
for pass in 1 2; do
    "$bin" flows "$tmpdir/zipf.pcap" --interval 50 \
        --jsonl "$tmpdir/flows.$pass.jsonl" > /dev/null
done
cmp "$tmpdir/flows.1.jsonl" "$tmpdir/flows.2.jsonl" || {
    echo "flows --jsonl output is nondeterministic across runs" >&2
    exit 1
}
# A 1-in-0 selection is a usage error (64); a capture that ends
# mid-record is a data error (65) — same contract as score/stream.
if "$bin" flows "$tmpdir/zipf.pcap" --interval 0 > /dev/null 2>&1; then
    echo "flows accepted --interval 0" >&2
    exit 1
else
    code=$?
    if [ "$code" -ne 64 ]; then
        echo "flows exited $code on --interval 0, want 64" >&2
        exit 1
    fi
fi
if "$bin" flows "$tmpdir/cut.pcap" > /dev/null 2>&1; then
    echo "flows accepted a truncated capture" >&2
    exit 1
else
    code=$?
    if [ "$code" -ne 65 ]; then
        echo "flows exited $code on a truncated capture, want 65" >&2
        exit 1
    fi
fi
for pass in 1 2; do
    cargo test --offline -q --test flow_inversion_calibration
done

echo "== pinned: CLI experiment outputs against recorded checksums"
# The stages above check only that two runs agree. This table pins what
# `score` (Experiment::run_with), `sweep` (run_grid_with), `flows`
# (FlowExperiment::run_grid_with) and `stream` print for the smoke
# captures (pop.pcap: 10 s, seed 7; zipf.pcap: 20 s, seed 1993), as
# `cksum` of stdout or of the JSONL file (stream's with rss_kb masked).
# The `serve` row is the collector's JSONL for 3 tenants × 2 interfaces
# on 4 shards, whose queue sheds a quarter of every window and whose
# flow budget evicts, so every report and summary field is exercised.
# A change that means to alter one of these outputs updates its row
# here, and says why.
pinned_cksums="score 260734417 283
sweep 4087357925 518
flows 1150908164 2447
stream 2358929523 703
serve 3318558044 3657"
pinned_output() {
    case "$1" in
        score) "$bin" score "$tmpdir/pop.pcap" --interval 20 --replications 3 ;;
        sweep) "$bin" sweep "$tmpdir/pop.pcap" --replications 3 ;;
        flows)
            "$bin" flows "$tmpdir/zipf.pcap" --interval 50 \
                --jsonl "$tmpdir/pinned.flows.jsonl" > /dev/null
            cat "$tmpdir/pinned.flows.jsonl"
            ;;
        stream)
            "$bin" stream "$tmpdir/pop.pcap" --window 2000 --interval 50 \
                --jsonl "$tmpdir/pinned.stream.jsonl" > /dev/null
            sed -E 's/"rss_kb":[0-9]+/"rss_kb":0/' "$tmpdir/pinned.stream.jsonl"
            ;;
        serve)
            "$bin" serve --shards 4 --tenants 3 --interfaces 2 --windows 4 \
                --window-packets 4000 --lane-queue 3000 --lane-flow-budget 200 \
                --flows-per-window 400 --interval 10 --seed 1993 \
                --jsonl "$tmpdir/pinned.serve.jsonl" > /dev/null
            cat "$tmpdir/pinned.serve.jsonl"
            ;;
    esac
}
while read -r output want; do
    got="$(pinned_output "$output" < /dev/null | cksum)"
    if [ "$got" != "$want" ]; then
        echo "pinned $output output checksum '$got', want '$want'" >&2
        exit 1
    fi
done <<< "$pinned_cksums"
# sweep's x4 granularity ladder must stop before it overflows (at 2^63),
# not wrap to 0 and grow without end: the widest --max-interval must exit
# 0 well inside an address-space cap and a time limit (both set in a
# subshell, so they bind only this run), and its first seven lines must
# be the default sweep's table.
if ! ( ulimit -v 600000; exec timeout 120 "$bin" --jobs 1 sweep "$tmpdir/pop.pcap" \
    --replications 3 --max-interval 18446744073709551615 ) \
    < /dev/null > "$tmpdir/sweep.max.out" 2> "$tmpdir/sweep.max.err"; then
    echo "sweep --max-interval u64::MAX did not exit 0:" >&2
    cat "$tmpdir/sweep.max.err" >&2
    exit 1
fi
if [ "$(head -n 7 "$tmpdir/sweep.max.out")" != "$(pinned_output sweep < /dev/null)" ]; then
    echo "sweep --max-interval u64::MAX does not open with the default sweep" >&2
    exit 1
fi
# Hostile numeric arguments, each run inside the same address-space cap
# and time limit, with the exit code it must give. serve's shard and lane
# counts have ceilings (4,096 each), and a synthetic lane's window one of
# u32::MAX packets (a flow's quota is a u32), all checked before anything
# is allocated: usage errors (64). A reservoir's buffer grows with its
# window instead of reserving its capacity, so a capacity far past any
# window must run (0).
while read -r want args; do
    # shellcheck disable=SC2086 # $args holds the verb and its flags
    if ( ulimit -v 600000; exec timeout 120 "$bin" --jobs 1 $args ) \
        < /dev/null > /dev/null 2> "$tmpdir/hostile.err"; then
        code=0
    else
        code=$?
    fi
    if [ "$code" -ne "$want" ]; then
        echo "$args exited $code, want $want:" >&2
        cat "$tmpdir/hostile.err" >&2
        exit 1
    fi
done <<HOSTILE
64 serve --shards 4294967295 --windows 1 --window-packets 1000 --flows-per-window 10
64 serve --tenants 4294967295 --interfaces 1 --windows 1 --window-packets 1000 --flows-per-window 10
64 serve --shards 1 --tenants 1 --interfaces 1 --windows 1 --window-packets 4294967297 --flows-per-window 1
0 serve --method reservoir --capacity 4294967296 --windows 1 --window-packets 1000 --flows-per-window 10
0 stream $tmpdir/pop.pcap --window 1000 --method reservoir --capacity 18446744073709551615
HOSTILE

echo "== collect: sharded collector (determinism + live shard gauges + soak)"
# The collector's contract: reports are a pure function of (seed, fleet,
# method). The same config run twice must be byte-identical, and an
# S-shard run must merge to the exact bytes of the single-shard run —
# only the summary line differs (it carries the shard count), so it is
# stripped before the cross-shard compare.
for pass in 1 2; do
    "$bin" serve --shards 4 --tenants 3 --interfaces 2 --windows 3 \
        --window-packets 4000 --flows-per-window 400 --interval 10 \
        --seed 1993 --jsonl "$tmpdir/collect.$pass.jsonl" > /dev/null
done
cmp "$tmpdir/collect.1.jsonl" "$tmpdir/collect.2.jsonl" || {
    echo "serve --jsonl output is nondeterministic across runs" >&2
    exit 1
}
"$bin" serve --shards 1 --tenants 3 --interfaces 2 --windows 3 \
    --window-packets 4000 --flows-per-window 400 --interval 10 \
    --seed 1993 --jsonl "$tmpdir/collect.single.jsonl" > /dev/null
grep -v '"summary"' "$tmpdir/collect.1.jsonl" > "$tmpdir/collect.multi.reports"
grep -v '"summary"' "$tmpdir/collect.single.jsonl" > "$tmpdir/collect.single.reports"
cmp "$tmpdir/collect.multi.reports" "$tmpdir/collect.single.reports" || {
    echo "multi-shard reports diverge from the single-shard run" >&2
    exit 1
}
# Live shard telemetry: a draining collector on an ephemeral port must
# expose the per-shard gauges mid-run.
"$bin" --serve 127.0.0.1:0 serve --shards 2 --tenants 2 --interfaces 2 \
    --windows 100000 --window-packets 5000 --flows-per-window 200 \
    --interval 10 --duration-ms 6000 \
    > "$tmpdir/collect.live.out" 2> "$tmpdir/collect.live.err" &
collect_pid=$!
port=""
for _ in $(seq 1 100); do
    port="$(sed -n 's/^netsample: serving on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$tmpdir/collect.live.err" | head -n1)"
    [ -n "$port" ] && break
    sleep 0.1
done
if [ -z "$port" ]; then
    echo "collect-stage serve address never appeared on stderr" >&2
    kill "$collect_pid" 2>/dev/null || true
    exit 1
fi
for _ in $(seq 1 100); do
    scrape /metrics > "$tmpdir/collect.scrape" || true
    grep -q '^collectd_shard_flows{shard="0"} ' "$tmpdir/collect.scrape" && break
    sleep 0.1
done
for want in \
    'collectd_shard_flows{shard="0"} ' \
    'collectd_shard_flows{shard="1"} ' \
    'collectd_shard_evictions{shard="0"} ' \
    'collectd_routing_imbalance_x1000 ' \
    'collectd_live_flows '; do
    grep -q "^$want" "$tmpdir/collect.scrape" || {
        echo "mid-run scrape is missing $want" >&2
        kill "$collect_pid" 2>/dev/null || true
        exit 1
    }
done
wait "$collect_pid" || {
    echo "draining collector run failed:" >&2
    cat "$tmpdir/collect.live.out" "$tmpdir/collect.live.err" >&2
    exit 1
}
grep -q "(drained)" "$tmpdir/collect.live.out"
# ROADMAP soak target: ≥1M aggregate live flows across 4 shards × 8
# lanes, exit 1 on a missed target. Routing parks 3 of the 8 lanes on one
# shard, so the busiest shard holds 3 × 150,000 live flows. The 10M
# reference run is documented in EXPERIMENTS.md.
"$bin" serve --shards 4 --tenants 2 --interfaces 4 --windows 2 \
    --window-packets 300000 --flows-per-window 150000 \
    --lane-flow-budget 200000 --interval 10 \
    --target-flows 1000000 \
    > "$tmpdir/collect.soak.out"
grep -q "soak: max_live_flows=1200000 target=1000000 ok" "$tmpdir/collect.soak.out"
grep -q "^flows: max_live=1200000 max_shard=450000 " "$tmpdir/collect.soak.out"

echo "CI OK"
