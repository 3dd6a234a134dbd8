#!/usr/bin/env bash
# serve-smoke.sh — end-to-end smoke test of the wanperf serve daemon,
# suitable for CI: build the binary, train a registry on the small
# workload, boot the daemon, and walk the whole lifecycle:
#
#   /healthz → /readyz → /predict (edge + global + bad request)
#   → /predict/batch (NDJSON rows, rate parity with the singleton path,
#     whole-batch 400 on a bad line, whole-batch 429 + Retry-After under
#     overload, batch metrics on /metrics, every row scored in code space)
#   → corrupt-registry reload is rejected, last good registry keeps serving
#   → SIGHUP hot reload promotes a new generation
#   → SIGTERM drains gracefully within the deadline, exit 0
#
# Quantized (code-space) answers are checked bit for bit against the
# float forest by the serve package's TestServeMatchesFloatForest and
# TestServeFloatFallback, and on a real registry by wanbench's
# serve.answers_match_registry check; this script covers the lifecycle.
#
# Usage: scripts/serve-smoke.sh [port]
set -eu

cd "$(dirname "$0")/.."
port="${1:-18729}"
addr="127.0.0.1:$port"
url="http://$addr"

tmp="$(mktemp -d)"
pid=""
pid3=""
cleanup() {
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
    [ -n "$pid3" ] && kill -9 "$pid3" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

fail() { echo "serve-smoke: FAIL: $*" >&2; exit 1; }
step() { echo "serve-smoke: $*" >&2; }

step "building wanperf"
go build -o "$tmp/wanperf" ./cmd/wanperf

step "training registry (small workload)"
"$tmp/wanperf" registry -small -out "$tmp/registry.json" 2>/dev/null
[ -s "$tmp/registry.json" ] || fail "registry not written"

step "starting daemon on $addr"
"$tmp/wanperf" serve -registry "$tmp/registry.json" -addr "$addr" \
    -drain-timeout 5s -watch -1s >"$tmp/serve.log" 2>&1 &
pid=$!

for i in $(seq 1 50); do
    curl -sf "$url/healthz" >/dev/null 2>&1 && break
    kill -0 "$pid" 2>/dev/null || { cat "$tmp/serve.log" >&2; fail "daemon died on startup"; }
    sleep 0.2
done
curl -sf "$url/healthz" >/dev/null || fail "healthz never came up"
step "healthz ok"

[ "$(curl -s -o /dev/null -w '%{http_code}' "$url/readyz")" = 200 ] || fail "readyz not ready"
step "readyz ok"

predict() { curl -s -X POST -H 'Content-Type: application/json' --data "$1" "$url/predict"; }

resp="$(predict '{"src":"smoke","dst":"smoke","features":{"C":4,"Nf":100}}')"
echo "$resp" | grep -q '"model":"global"' || fail "global prediction failed: $resp"
echo "$resp" | grep -q '"generation":1' || fail "unexpected boot generation: $resp"
step "predict ok ($resp)"

# encoding/json HTML-escapes ">", so edge keys appear as SRC-\u003eDST.
edge_key="$(grep -o '"[^"]*-\\u003e[^"]*"' "$tmp/registry.json" | head -1 | tr -d '"' | sed 's/-\\u003e/->/')"
if [ -n "$edge_key" ]; then
    resp="$(predict "{\"src\":\"${edge_key%%->*}\",\"dst\":\"${edge_key##*->}\",\"features\":{\"C\":4,\"P\":4,\"Nf\":100,\"Nb\":1e9}}")"
    echo "$resp" | grep -q '"model":"edge:' || fail "edge prediction failed: $resp"
    step "edge predict ok ($edge_key)"
fi

code="$(curl -s -o /dev/null -w '%{http_code}' -X POST --data '{"features":{}}' "$url/predict")"
[ "$code" = 400 ] || fail "empty-features request returned $code, want 400"
step "bad request rejected with 400"

# Batch front door: NDJSON in, one response line per input line, in
# input order, with the rate byte-identical to the singleton path.
step "batch predict: 3-row NDJSON (with a blank line) through /predict/batch"
bbody='{"src":"smoke","dst":"smoke","features":{"C":4,"Nf":100}}

{"src":"smoke","dst":"smoke","features":{"C":8,"P":2,"Nf":7,"Nb":1e8}}
{"src":"smoke","dst":"smoke","features":{"C":4,"Nf":100}}'
bresp="$(curl -s -X POST -H 'Content-Type: application/x-ndjson' --data-binary "$bbody" "$url/predict/batch")"
[ "$(printf '%s\n' "$bresp" | wc -l)" = 3 ] || fail "batch answered $(printf '%s\n' "$bresp" | wc -l) lines, want 3: $bresp"
if printf '%s\n' "$bresp" | grep -qv '"rate":'; then fail "batch line missing rate: $bresp"; fi
srate="$(curl -s -X POST -H 'Content-Type: application/json' \
    --data '{"src":"smoke","dst":"smoke","features":{"C":4,"Nf":100}}' "$url/predict" | sed 's/.*"rate"://; s/[,}].*//')"
brate="$(printf '%s\n' "$bresp" | head -1 | sed 's/.*"rate"://; s/[,}].*//')"
[ "$brate" = "$srate" ] || fail "batch rate $brate != singleton rate $srate"
step "batch predict ok (3 rows, rates match singleton path)"

code="$(curl -s -o /dev/null -w '%{http_code}' -X POST \
    --data-binary "$(printf '%s\n%s' '{"src":"a","dst":"b","features":{"C":1}}' '{not json}')" "$url/predict/batch")"
[ "$code" = 400 ] || fail "malformed batch line returned $code, want 400"
curl -s -X POST --data-binary '{not json}' "$url/predict/batch" | grep -q 'line 1' \
    || fail "batch 400 does not name the offending line"
step "malformed batch rejected whole with 400 and line number"

curl -s "$url/metrics" | grep -q '^serve_batch_rows_bucket' || fail "serve_batch_rows histogram not exported"
curl -s "$url/metrics" | grep -q '^serve_batch_requests' || fail "serve_batch_requests counter not exported"
step "batch metrics exported (serve_batch_rows, serve_batch_requests)"

# The registry is histogram-trained and every row so far was finite, so
# every scored row — edge and global, singleton and batch — walked the
# code-space forest; none fell back to the float forest.
curl -s "$url/metrics" | grep -q '^serve_kernel_rows{path="code"} [1-9]' || fail "no rows scored in code space"
curl -s "$url/metrics" | grep -q '^serve_kernel_rows{path="float"} 0$' || fail "rows fell back to the float forest"
step "every row scored in code space (serve_kernel_rows)"

# Shed under overload, deterministically: a daemon with a 1ns queue
# timeout sheds every admitted batch on queue-wait — the whole batch is
# one 429 with Retry-After, never a partial answer, never a 5xx.
step "batch shed under overload (1ns queue timeout daemon)"
addr3="127.0.0.1:$((port+2))"
url3="http://$addr3"
"$tmp/wanperf" serve -registry "$tmp/registry.json" -addr "$addr3" \
    -queue-timeout 1ns -drain-timeout 5s -watch -1s >"$tmp/serve3.log" 2>&1 &
pid3=$!
for i in $(seq 1 50); do
    curl -sf "$url3/healthz" >/dev/null 2>&1 && break
    kill -0 "$pid3" 2>/dev/null || { cat "$tmp/serve3.log" >&2; fail "shed daemon died on startup"; }
    sleep 0.2
done
shed_hdrs="$(curl -s -D - -o /dev/null -X POST -H 'Content-Type: application/x-ndjson' \
    --data-binary "$bbody" "$url3/predict/batch")"
printf '%s' "$shed_hdrs" | grep -q '^HTTP/[0-9.]* 429' || fail "overloaded batch not shed with 429: $shed_hdrs"
printf '%s' "$shed_hdrs" | grep -qi '^Retry-After:' || fail "batch shed missing Retry-After: $shed_hdrs"
curl -s "$url3/metrics" | grep -q 'serve_batch_shed{reason="queue_wait"} 1' \
    || fail "serve_batch_shed{reason=queue_wait} not counted"
kill -TERM "$pid3" 2>/dev/null || true
wait "$pid3" 2>/dev/null || true
pid3=""
step "overloaded batch shed whole with 429 + Retry-After, counted per reason"

step "corrupt reload: daemon must keep the last good registry"
cp "$tmp/registry.json" "$tmp/registry.json.good"
# version 1 predates the quantized-path promotion gate and fails closed
# under the version-2 format — this reload is rejected on version alone.
echo '{"version":1,"features":["x"]}' >"$tmp/registry.json"
kill -HUP "$pid"; sleep 0.5
resp="$(predict '{"src":"smoke","dst":"smoke","features":{"C":4}}')"
echo "$resp" | grep -q '"generation":1' || fail "corrupt reload changed serving state: $resp"
grep -q "reload rejected" "$tmp/serve.log" || fail "corrupt reload not logged as rejected"
step "corrupt registry rejected, generation 1 still serving"

step "SIGHUP hot reload of a good registry"
cp "$tmp/registry.json.good" "$tmp/registry.json"
kill -HUP "$pid"; sleep 0.5
resp="$(predict '{"src":"smoke","dst":"smoke","features":{"C":4}}')"
echo "$resp" | grep -q '"generation":2' || fail "reload did not promote generation 2: $resp"
curl -s "$url/metrics" | grep -q '^serve_reloads 1' || fail "reload counter not exported"
step "hot reload promoted generation 2"

step "SIGTERM graceful drain"
kill -TERM "$pid"
drain_ok=1
for i in $(seq 1 50); do
    kill -0 "$pid" 2>/dev/null || { drain_ok=0; break; }
    sleep 0.2
done
[ "$drain_ok" = 0 ] || fail "daemon did not exit within 10s of SIGTERM"
set +e; wait "$pid"; code=$?; set -e
pid=""
[ "$code" = 0 ] || fail "daemon exited $code after drain, want 0"
step "drained cleanly, exit 0"

echo "serve-smoke: PASS" >&2
