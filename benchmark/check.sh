#!/usr/bin/env bash
# Gate for the benchmark crate: format, lint, self-tests, and quick
# smoke runs of both commands. The root ci.sh does not build this
# separate workspace. Runs offline from any directory.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy (deny warnings)"
cargo clippy --offline --all-targets -- -D warnings

echo "== cargo test"
cargo test --offline -q

echo "== smoke: run --quick and trace --quick"
bench() { cargo run --offline --release -q -- "$@"; }
tmpdir=target/check
rm -rf "$tmpdir"
mkdir -p "$tmpdir"
bench run --quick --seed 7 --json "$tmpdir/run.json" > "$tmpdir/run.out"
tail -n 1 "$tmpdir/run.out" | grep -q '"correct": true'
grep -q '"nproc"' "$tmpdir/run.json"
bench trace --quick --seed 7 --spans "$tmpdir/spans.jsonl" > "$tmpdir/trace.out"
tail -n 1 "$tmpdir/trace.out" | grep -q '"correct": true'
grep -q '"name":"nettrace.next_batch"' "$tmpdir/spans.jsonl"
# A trace sink in the environment is refused with a usage error.
status=0
NETSAMPLE_TRACE="$tmpdir/t.jsonl" bench run --quick > /dev/null 2>&1 || status=$?
if [ "$status" -ne 64 ]; then
    echo "run with NETSAMPLE_TRACE set exited $status, want 64" >&2
    exit 1
fi
echo "ok"
