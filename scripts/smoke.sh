#!/usr/bin/env bash
# Endpoint smoke test: boot `pulphd serve`, hit every observability and
# serving endpoint once, then check SIGTERM shuts the server down
# gracefully with exit 0. Run from the repository root; builds the
# binary into a temp dir.
set -euo pipefail

# Random port base so parallel lanes (or a stale listener from an
# aborted run) don't collide; SMOKE_ADDR pins the single-server
# sections, SMOKE_PORT_BASE pins the whole range. The replication
# section uses base+1..base+4.
PORT_BASE="${SMOKE_PORT_BASE:-$((20000 + RANDOM % 20000))}"
ADDR="${SMOKE_ADDR:-localhost:$PORT_BASE}"
BASE="http://$ADDR"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# Every curl gets a hard time budget so a wedged server fails the lane
# instead of hanging it until the CI job timeout.
CURL=(curl --max-time 15)

# Fail fast when something already listens on the port: booting the
# server anyway would make it die on bind while the health poll below
# talks to the wrong process (or hangs CI until its timeout).
if (exec 3<>"/dev/tcp/${ADDR%:*}/${ADDR##*:}") 2>/dev/null; then
  exec 3>&- 3<&- || true
  echo "smoke: $ADDR is already in use — stop the listener or rerun with SMOKE_ADDR=host:port" >&2
  exit 1
fi

go build -o "$TMP/pulphd" ./cmd/pulphd

"$TMP/pulphd" serve -metrics-addr "$ADDR" -demo=false -log-level debug \
  -log-format json >"$TMP/serve.log" 2>&1 &
SERVE_PID=$!

fail() {
  echo "smoke: $*" >&2
  echo "--- server log ---" >&2
  cat "$TMP/serve.log" >&2 || true
  kill "$SERVE_PID" 2>/dev/null || true
  exit 1
}

# alive fails fast when the server died mid-run — without it, every
# later curl would burn its full timeout against a closed port and the
# failure would be reported as the wrong endpoint.
alive() {
  kill -0 "$SERVE_PID" 2>/dev/null || fail "server died mid-run (before: $*)"
}

# Liveness comes up first; poll it instead of sleeping blind.
for i in $(seq 1 50); do
  if "${CURL[@]}" -sf "$BASE/healthz" >/dev/null 2>&1; then
    break
  fi
  kill -0 "$SERVE_PID" 2>/dev/null || fail "server died during startup"
  [ "$i" = 50 ] && fail "/healthz never came up"
  sleep 0.2
done
echo "smoke: /healthz up"

# Empty model (-demo=false): not ready, predicts refused with 409.
alive "readyz/predict probes"
code=$("${CURL[@]}" -s -o /dev/null -w '%{http_code}' "$BASE/readyz")
[ "$code" = 503 ] || fail "/readyz on empty model returned $code, want 503"
code=$("${CURL[@]}" -s -o /dev/null -w '%{http_code}' -X POST \
  -d '{"window":[[1,2,3,4]]}' "$BASE/predict")
[ "$code" = 409 ] || fail "/predict on empty model returned $code, want 409"

# fetch GETs a path into a scratch file so body checks never race the
# transfer (grep -q closing a pipe early would trip pipefail).
fetch() {
  alive "GET $1"
  "${CURL[@]}" -sf -o "$TMP/body" "$BASE$1" || fail "GET $1 failed"
}

# Teach one class, then the predict/learn roundtrip must answer it.
alive "POST /learn"
"${CURL[@]}" -sf -o "$TMP/body" -X POST -d '{"label":"rest","window":[[1,2,3,4]]}' "$BASE/learn" \
  || fail "POST /learn failed"
grep -q '"generation":1' "$TMP/body" || fail "/learn did not publish generation 1"
fetch /readyz
grep -q '"status":"ready"' "$TMP/body" || fail "/readyz not ready after learn"
"${CURL[@]}" -sf -o "$TMP/body" -X POST -d '{"window":[[1,2,3,4]]}' "$BASE/predict" \
  || fail "POST /predict failed"
grep -q '"label":"rest"' "$TMP/body" || fail "/predict did not answer the learned label"
echo "smoke: /learn + /predict roundtrip ok"

# Observability surface: Prometheus text, span timelines, a 1 s CPU profile.
fetch /metrics
grep -q '^pulphd_serving_requests_total' "$TMP/body" \
  || fail "/metrics lacks pulphd_serving_requests_total"
fetch /debug/spans
grep -q '"decode"' "$TMP/body" \
  || fail "/debug/spans lacks the decode span"
"${CURL[@]}" -sf -o "$TMP/profile.pb" "$BASE/debug/pprof/profile?seconds=1" \
  || fail "/debug/pprof/profile failed"
[ -s "$TMP/profile.pb" ] || fail "CPU profile is empty"
grep -q '"msg":"predict"' "$TMP/serve.log" \
  || fail "debug log lacks a structured predict line"
echo "smoke: /metrics, /debug/spans, pprof, request log ok"

# Graceful shutdown: SIGTERM drains and exits 0.
kill -TERM "$SERVE_PID"
status=0
wait "$SERVE_PID" || status=$?
[ "$status" = 0 ] || fail "serve exited $status on SIGTERM, want 0"
grep -q 'shutdown complete' "$TMP/serve.log" || fail "no shutdown-complete log line"
echo "smoke: graceful shutdown ok"

# Timeout path: reboot with a 1 ns per-request deadline — every predict
# must come back 504 (deadline exceeded), the timeout counter must
# move, and the server must still shut down cleanly.
"$TMP/pulphd" serve -metrics-addr "$ADDR" -demo=false -predict-timeout 1ns \
  -log-level debug -log-format json >"$TMP/serve-timeout.log" 2>&1 &
SERVE_PID=$!
for i in $(seq 1 50); do
  if "${CURL[@]}" -sf "$BASE/healthz" >/dev/null 2>&1; then
    break
  fi
  kill -0 "$SERVE_PID" 2>/dev/null || { cat "$TMP/serve-timeout.log" >&2; fail "timeout server died during startup"; }
  [ "$i" = 50 ] && fail "timeout server /healthz never came up"
  sleep 0.2
done
alive "timeout-server POST /learn"
"${CURL[@]}" -sf -o /dev/null -X POST -d '{"label":"rest","window":[[1,2,3,4]]}' "$BASE/learn" \
  || fail "POST /learn on timeout server failed"
code=$("${CURL[@]}" -s -o /dev/null -w '%{http_code}' -X POST \
  -d '{"window":[[1,2,3,4]]}' "$BASE/predict")
[ "$code" = 504 ] || fail "/predict under 1ns deadline returned $code, want 504"
fetch /metrics
grep -Eq '^pulphd_serving_timeouts_total [1-9]' "$TMP/body" \
  || fail "/metrics timeout counter did not move"
kill -TERM "$SERVE_PID"
status=0
wait "$SERVE_PID" || status=$?
[ "$status" = 0 ] || fail "timeout server exited $status on SIGTERM, want 0"
echo "smoke: predict timeout path ok (504 + counter)"

# Multi-tenant registry + restart recovery: boot with a state
# directory, create a named model, teach it over the named routes, and
# check the legacy routes did not regress. Then SIGTERM and reboot on
# the same directory — every model must come back at its exact
# pre-shutdown generation, serving its learned classes.
STATE="$TMP/state"
"$TMP/pulphd" serve -metrics-addr "$ADDR" -demo=false -state-dir "$STATE" \
  -log-level debug -log-format json >"$TMP/serve-registry.log" 2>&1 &
SERVE_PID=$!
for i in $(seq 1 50); do
  if "${CURL[@]}" -sf "$BASE/healthz" >/dev/null 2>&1; then
    break
  fi
  kill -0 "$SERVE_PID" 2>/dev/null || { cat "$TMP/serve-registry.log" >&2; fail "registry server died during startup"; }
  [ "$i" = 50 ] && fail "registry server /healthz never came up"
  sleep 0.2
done

regfail() {
  echo "smoke: $*" >&2
  echo "--- registry server log ---" >&2
  cat "$TMP/serve-registry.log" >&2 || true
  kill "$SERVE_PID" 2>/dev/null || true
  exit 1
}

# Admin surface: create a tenant, list it.
"${CURL[@]}" -sf -o "$TMP/body" -X POST -d '{"name":"tenant"}' "$BASE/models" \
  || regfail "POST /models failed"
"${CURL[@]}" -sf -o "$TMP/body" "$BASE/models" || regfail "GET /models failed"
grep -q '"name":"tenant"' "$TMP/body" || regfail "created model missing from GET /models"

# Named learn ×3, then named predict answers the taught class.
for i in 1 2 3; do
  "${CURL[@]}" -sf -o "$TMP/body" -X POST -d '{"label":"wave","window":[[5,6,7,8]]}' \
    "$BASE/models/tenant/learn" || regfail "POST /models/tenant/learn failed"
done
grep -q '"generation":3' "$TMP/body" || regfail "named learn did not reach generation 3"
"${CURL[@]}" -sf -o "$TMP/body" -X POST -d '{"window":[[5,6,7,8]]}' \
  "$BASE/models/tenant/predict" || regfail "POST /models/tenant/predict failed"
grep -q '"label":"wave"' "$TMP/body" || regfail "named predict did not answer the learned label"
grep -q '"model":"tenant"' "$TMP/body" || regfail "named predict response lacks the model name"

# Legacy routes must keep serving the default model, and the header
# must route them to the tenant — a regression here breaks every
# pre-registry client.
"${CURL[@]}" -sf -o "$TMP/body" -X POST -d '{"label":"rest","window":[[1,2,3,4]]}' "$BASE/learn" \
  || regfail "legacy POST /learn regressed with a registry attached"
"${CURL[@]}" -sf -o "$TMP/body" -X POST -d '{"window":[[1,2,3,4]]}' "$BASE/predict" \
  || regfail "legacy POST /predict regressed with a registry attached"
grep -q '"label":"rest"' "$TMP/body" || regfail "legacy predict lost the default model"
"${CURL[@]}" -sf -o "$TMP/body" -X POST -H "X-PULPHD-Model: tenant" \
  -d '{"window":[[5,6,7,8]]}' "$BASE/predict" || regfail "header-routed predict failed"
grep -q '"model":"tenant"' "$TMP/body" || regfail "X-PULPHD-Model header did not route"

# Per-model readiness and per-model metrics.
fetch /readyz
grep -q '"default":"default"' "$TMP/body" || regfail "/readyz lacks the default model name"
grep -q '"name":"tenant"' "$TMP/body" || regfail "/readyz lacks the tenant row"
fetch /metrics
grep -q '^pulphd_model_generation{model="tenant"} 3' "$TMP/body" \
  || regfail "/metrics lacks the tenant generation gauge"
grep -Eq '^pulphd_registry_wal_appends_total [1-9]' "$TMP/body" \
  || regfail "/metrics WAL append counter did not move"
echo "smoke: multi-tenant routes, readiness and metrics ok"

kill -TERM "$SERVE_PID"
status=0
wait "$SERVE_PID" || status=$?
[ "$status" = 0 ] || regfail "registry server exited $status on SIGTERM, want 0"

# Restart on the same state directory: recovery must serve the exact
# pre-shutdown models — the tenant at generation 3 with its learned
# class, the default model with its legacy-taught class.
"$TMP/pulphd" serve -metrics-addr "$ADDR" -demo=false -state-dir "$STATE" \
  -log-level debug -log-format json >"$TMP/serve-restart.log" 2>&1 &
SERVE_PID=$!
for i in $(seq 1 50); do
  if "${CURL[@]}" -sf "$BASE/healthz" >/dev/null 2>&1; then
    break
  fi
  kill -0 "$SERVE_PID" 2>/dev/null || { cat "$TMP/serve-restart.log" >&2; fail "restarted server died during startup"; }
  [ "$i" = 50 ] && fail "restarted server /healthz never came up"
  sleep 0.2
done
grep -q 'default model recovered' "$TMP/serve-restart.log" \
  || regfail "restart did not recover the default model from disk"
"${CURL[@]}" -sf -o "$TMP/body" -X POST -d '{"window":[[5,6,7,8]]}' \
  "$BASE/models/tenant/predict" || regfail "post-restart named predict failed"
grep -q '"label":"wave"' "$TMP/body" || regfail "restart lost the tenant's learned class"
grep -q '"generation":3' "$TMP/body" || regfail "restart did not recover the exact generation"
"${CURL[@]}" -sf -o "$TMP/body" -X POST -d '{"window":[[1,2,3,4]]}' "$BASE/predict" \
  || regfail "post-restart legacy predict failed"
grep -q '"label":"rest"' "$TMP/body" || regfail "restart lost the default model's class"
kill -TERM "$SERVE_PID"
status=0
wait "$SERVE_PID" || status=$?
[ "$status" = 0 ] || regfail "restarted server exited $status on SIGTERM, want 0"
echo "smoke: restart recovery ok (models back at exact generations)"

# Tail observability: boot with the flight recorder and SLO engine on a
# fresh state directory and a 1 ns predict deadline. Every predict
# 504s, so the flight ring must hold the timeout timelines, the SLO
# endpoint must show the burn, the sustained failure must latch a
# breach that auto-dumps a trace under <state-dir>/flight/, and the
# per-model SLO gauge families must reach /metrics.
SLOSTATE="$TMP/state-slo"
"$TMP/pulphd" serve -metrics-addr "$ADDR" -demo=false -state-dir "$SLOSTATE" \
  -predict-timeout 1ns -flight 64 -slo-latency 50ms -slo-error-budget 0.01 \
  -log-level debug -log-format json >"$TMP/serve-slo.log" 2>&1 &
SERVE_PID=$!
for i in $(seq 1 50); do
  if "${CURL[@]}" -sf "$BASE/healthz" >/dev/null 2>&1; then
    break
  fi
  kill -0 "$SERVE_PID" 2>/dev/null || { cat "$TMP/serve-slo.log" >&2; fail "SLO server died during startup"; }
  [ "$i" = 50 ] && fail "SLO server /healthz never came up"
  sleep 0.2
done

slofail() {
  echo "smoke: $*" >&2
  echo "--- SLO server log ---" >&2
  cat "$TMP/serve-slo.log" >&2 || true
  kill "$SERVE_PID" 2>/dev/null || true
  exit 1
}

# Teach the default model first: an untrained model answers 409, which
# by design carries no SLO cost and pins no flight capture.
"${CURL[@]}" -sf -o /dev/null -X POST -d '{"label":"rest","window":[[1,2,3,4]]}' "$BASE/learn" \
  || slofail "POST /learn on SLO server failed"

# Drive past MinEvents (10) failing predicts across two breach-check
# windows (CheckEvery 1 s) so the burn-rate evaluation fires.
for i in $(seq 1 12); do
  code=$("${CURL[@]}" -s -o /dev/null -w '%{http_code}' -X POST \
    -d '{"window":[[1,2,3,4]]}' "$BASE/predict")
  [ "$code" = 504 ] || slofail "/predict under 1ns deadline returned $code, want 504"
done
sleep 1.2
for i in $(seq 1 4); do
  "${CURL[@]}" -s -o /dev/null -X POST -d '{"window":[[1,2,3,4]]}' "$BASE/predict"
done

# The per-tenant SLO endpoint reports the burn and the latched breach.
fetch /models/default/slo
grep -q '"model":"default"' "$TMP/body" || slofail "/models/default/slo lacks the model name"
grep -q '"breached":true' "$TMP/body" || slofail "sustained 504s did not latch an SLO breach"
grep -q '"latency_ms":50' "$TMP/body" || slofail "/models/default/slo lacks the objective"

# The flight recorder holds the 504s as complete timelines.
fetch '/debug/flight?summary=1&model=default'
grep -q '"trigger":"timeout"' "$TMP/body" || slofail "flight summary lacks a timeout capture"
fetch '/debug/flight?model=default'
grep -q '"decode"' "$TMP/body" || slofail "flight trace lacks the decode span"
grep -q 'default@' "$TMP/body" || slofail "flight trace process label lacks model@generation"

# The breach auto-dumped a forensic trace next to the WAL.
ls "$SLOSTATE"/flight/breach-*.json >/dev/null 2>&1 \
  || slofail "breach did not auto-dump a flight trace under state-dir/flight/"
grep -q 'traceEvents' "$SLOSTATE"/flight/breach-*.json \
  || slofail "breach dump is not a Chrome trace"

# The SLO gauge families reach the Prometheus surface.
fetch /metrics
grep -q '^pulphd_model_slo_burn_fast_milli{model="default"}' "$TMP/body" \
  || slofail "/metrics lacks the per-model SLO burn gauge"
grep -Eq '^pulphd_model_slo_breaches_total\{model="default"\} [1-9]' "$TMP/body" \
  || slofail "/metrics breach counter did not move"

# Keep the breach dumps as CI artifacts when the caller asks for them.
if [ -n "${SMOKE_ARTIFACT_DIR:-}" ]; then
  mkdir -p "$SMOKE_ARTIFACT_DIR"
  cp "$SLOSTATE"/flight/breach-*.json "$SMOKE_ARTIFACT_DIR"/ 2>/dev/null || true
fi

kill -TERM "$SERVE_PID"
status=0
wait "$SERVE_PID" || status=$?
[ "$status" = 0 ] || slofail "SLO server exited $status on SIGTERM, want 0"
echo "smoke: SLO breach + flight forensics ok (burn latched, dump on disk)"

# Replication: primary + two replicas + consistent-hash front. A learn
# through the front must be visible on every replica within a few sync
# intervals (generation-aware readiness + zero lag gauge), and killing
# a replica under live predict traffic must produce no client-visible
# 5xx burst — the front retries the surviving candidate in-request.
PRIM_ADDR="localhost:$((PORT_BASE + 1))"
REPA_ADDR="localhost:$((PORT_BASE + 2))"
REPB_ADDR="localhost:$((PORT_BASE + 3))"
FRONT_ADDR="localhost:$((PORT_BASE + 4))"
REPL_STATE="$TMP/state-repl"
REPL_PIDS=()

replfail() {
  echo "smoke: $*" >&2
  for log in serve-primary serve-repa serve-repb serve-front; do
    echo "--- $log log ---" >&2
    cat "$TMP/$log.log" >&2 || true
  done
  for pid in "${REPL_PIDS[@]}"; do kill "$pid" 2>/dev/null || true; done
  exit 1
}

wait_up() { # addr name
  for i in $(seq 1 50); do
    if "${CURL[@]}" -sf "http://$1/healthz" >/dev/null 2>&1; then
      return 0
    fi
    [ "$i" = 50 ] && replfail "$2 /healthz never came up"
    sleep 0.2
  done
}

"$TMP/pulphd" serve -role=primary -metrics-addr "$PRIM_ADDR" -demo=false \
  -state-dir "$REPL_STATE" -log-format json >"$TMP/serve-primary.log" 2>&1 &
REPL_PIDS+=($!)
wait_up "$PRIM_ADDR" "primary"
"$TMP/pulphd" serve -role=replica -metrics-addr "$REPA_ADDR" \
  -peers "http://$PRIM_ADDR" -sync-interval 200ms \
  -log-format json >"$TMP/serve-repa.log" 2>&1 &
REPL_PIDS+=($!)
REPA_PID=$!
"$TMP/pulphd" serve -role=replica -metrics-addr "$REPB_ADDR" \
  -peers "http://$PRIM_ADDR" -sync-interval 200ms \
  -log-format json >"$TMP/serve-repb.log" 2>&1 &
REPL_PIDS+=($!)
wait_up "$REPA_ADDR" "replica A"
wait_up "$REPB_ADDR" "replica B"
"$TMP/pulphd" serve -role=front -metrics-addr "$FRONT_ADDR" \
  -primary "http://$PRIM_ADDR" -peers "http://$REPA_ADDR,http://$REPB_ADDR" \
  -sync-interval 200ms -log-format json >"$TMP/serve-front.log" 2>&1 &
REPL_PIDS+=($!)
wait_up "$FRONT_ADDR" "front"

# Learn via the front: it must land on the primary and answer the new
# generation.
"${CURL[@]}" -sf -o "$TMP/body" -X POST -H 'X-PULPHD-Session: smoke-1' \
  -d '{"label":"rest","window":[[1,2,3,4]]}' "http://$FRONT_ADDR/learn" \
  || replfail "learn via front failed"
GEN=$(sed -n 's/.*"generation":\([0-9]*\).*/\1/p' "$TMP/body")
[ -n "$GEN" ] && [ "$GEN" -ge 1 ] || replfail "front learn answered no generation: $(cat "$TMP/body")"

# Catch-up: every replica must reach generation >= GEN within a few
# sync intervals (generation-aware readiness), and its lag gauge must
# read zero.
for rep in "$REPA_ADDR" "$REPB_ADDR"; do
  for i in $(seq 1 50); do
    code=$("${CURL[@]}" -s -o /dev/null -w '%{http_code}' \
      "http://$rep/readyz?model=default&min_generation=$GEN")
    [ "$code" = 200 ] && break
    [ "$i" = 50 ] && replfail "replica $rep never caught up to generation $GEN"
    sleep 0.2
  done
  "${CURL[@]}" -sf -o "$TMP/body" "http://$rep/metrics" || replfail "replica $rep /metrics failed"
  grep -q '^pulphd_replica_lag_generations{model="default"} 0' "$TMP/body" \
    || replfail "replica $rep lag gauge did not return to 0"
done
echo "smoke: replication catch-up ok (generation $GEN on every replica, lag 0)"

# Predicts via the front serve from replicas after catch-up.
"${CURL[@]}" -sf -o "$TMP/body" -X POST -H 'X-PULPHD-Session: smoke-1' \
  -d '{"window":[[1,2,3,4]]}' "http://$FRONT_ADDR/predict" \
  || replfail "predict via front failed"
grep -q '"label":"rest"' "$TMP/body" || replfail "front predict lost the learned label"

# Kill replica A mid-traffic: 40 predicts across distinct sessions
# while the process dies; no request may answer 5xx (the front retries
# the surviving replica / primary in-request).
kill -9 "$REPA_PID" 2>/dev/null || true
bad=0
for i in $(seq 1 40); do
  code=$("${CURL[@]}" -s -o /dev/null -w '%{http_code}' -X POST \
    -H "X-PULPHD-Session: churn-$i" \
    -d '{"window":[[1,2,3,4]]}' "http://$FRONT_ADDR/predict")
  case "$code" in
    5*) bad=$((bad + 1)) ;;
    200) ;;
    *) replfail "predict during replica kill answered $code" ;;
  esac
done
[ "$bad" = 0 ] || replfail "$bad/40 predicts answered 5xx during replica kill"
echo "smoke: replica kill under traffic ok (0 client-visible 5xx)"

# Sync-lag metrics artifact: the surviving replica's full /metrics for
# the CI upload, so lag/sync counters are inspectable per run.
if [ -n "${SMOKE_ARTIFACT_DIR:-}" ]; then
  mkdir -p "$SMOKE_ARTIFACT_DIR"
  "${CURL[@]}" -s -o "$SMOKE_ARTIFACT_DIR/replica-sync-metrics.txt" "http://$REPB_ADDR/metrics" || true
  "${CURL[@]}" -s -o "$SMOKE_ARTIFACT_DIR/front-metrics.txt" "http://$FRONT_ADDR/metrics" || true
fi

for pid in "${REPL_PIDS[@]}"; do kill -TERM "$pid" 2>/dev/null || true; done
for pid in "${REPL_PIDS[@]}"; do wait "$pid" 2>/dev/null || true; done
echo "smoke: replication tier ok (primary + 2 replicas + front)"
