#!/bin/sh
# End-to-end smoke test for the sharded serving tier (registered as CTest
# `shard_smoke`): boots 3 audit_server workers behind one shard_router and
# checks that
#   1. routed verdicts are byte-identical to the offline auditor and across
#      all concurrent clients (Prop. 3.10 parity survives sharding),
#   2. kill -9 of a worker mid-run loses nothing: replay-based rebalancing
#      keeps every session's verdicts and sequence numbers byte-identical to
#      the unkilled run (traffic after the kill diffs clean against traffic
#      before it),
#   3. runtime add_worker / remove_worker rebalances keep the same guarantee,
#   4. a wire `shutdown` to the router drains the in-ring workers and the
#      router itself (exit 0, "drained and stopped").
# Optionally drives the open-loop load generator against the router first and
# saves its JSON snapshot (the CI shard job uploads it).
# Usage: shard_smoke.sh <audit_server> <audit_client> <audit_cli>
#                       <shard_router> [loadgen [loadgen_json_out]]
set -u

server="${1:?usage: shard_smoke.sh <audit_server> <audit_client> <audit_cli> <shard_router> [loadgen [json_out]]}"
client="${2:?missing audit_client path}"
cli="${3:?missing audit_cli path}"
router="${4:?missing shard_router path}"
loadgen="${5:-}"
loadgen_json="${6:-}"

tmp="$(mktemp -d)"
pids=""
cleanup() {
  [ -n "$pids" ] && kill -9 $pids 2> /dev/null
  rm -rf "$tmp"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $1" >&2
  [ -f "$tmp/router.err" ] && sed 's/^/  router: /' "$tmp/router.err" >&2
  for w in 1 2 3 4; do
    [ -f "$tmp/w$w.err" ] && sed "s/^/  worker$w: /" "$tmp/w$w.err" >&2
  done
  exit 1
}

# Same scenario as service_smoke.sh: no database changes between queries, so
# the server's (final-state) answers equal the logged ones.
cat > "$tmp/scenario.scn" <<'EOF'
record bob_hiv
record bob_transfusion
record bob_hepatitis
insert bob_transfusion
insert bob_hiv
query smoke bob_hiv
query smoke bob_hiv -> bob_transfusion
query smoke bob_hiv & bob_hepatitis
query smoke atmost(0, bob_hepatitis)
query smoke bob_transfusion
prior product
audit bob_hiv
EOF

# Offline ground truth.
"$cli" "$tmp/scenario.scn" > "$tmp/offline.txt" 2> "$tmp/offline.err" \
  || fail "offline audit_cli run failed"
sed -n 's/^\[log\] smoke: \(.*\) -> \(true\)$/\1\t\2/p;s/^\[log\] smoke: \(.*\) -> \(false\)$/\1\t\2/p' \
  "$tmp/offline.txt" > "$tmp/workload.tsv"
[ "$(wc -l < "$tmp/workload.tsv")" -eq 5 ] || fail "expected 5 logged queries"
awk '
  /^Per disclosure:/ { section = 1; next }
  /^Per user/        { section = 2; next }
  /witness:/         { next }
  section && / = (true|false) / {
    for (i = 1; i <= NF; i++) if ($i == "=") {
      print section "\t" $(i + 1) "\t" $(i + 2) "\t" $(i + 3)
      break
    }
  }' "$tmp/offline.txt" > "$tmp/offline_rows.tsv"

# Boot the shard: 3 workers, all serving the identical scenario, one router.
start_worker() {
  "$server" --listen "unix:$tmp/w$1.sock" --scenario "$tmp/scenario.scn" \
    > "$tmp/w$1.out" 2> "$tmp/w$1.err" &
  eval "w$1_pid=\$!"
  pids="$pids $!"
}
for w in 1 2 3; do start_worker "$w"; done
for w in 1 2 3; do
  i=0
  while [ ! -S "$tmp/w$w.sock" ]; do
    i=$((i + 1)); [ "$i" -gt 100 ] && fail "worker $w socket never appeared"
    sleep 0.1
  done
done

"$router" --listen "unix:$tmp/router.sock" \
  --worker "unix:$tmp/w1.sock" --worker "unix:$tmp/w2.sock" \
  --worker "unix:$tmp/w3.sock" \
  > "$tmp/router.out" 2> "$tmp/router.err" &
router_pid=$!
pids="$pids $router_pid"
i=0
while ! grep -q "listening on" "$tmp/router.out" 2> /dev/null; do
  i=$((i + 1)); [ "$i" -gt 100 ] && fail "router never reported its listener"
  kill -0 "$router_pid" 2> /dev/null || fail "router died during startup"
  sleep 0.1
done
connect="unix:$tmp/router.sock"

# Optional: open-loop load through the router before the correctness phases
# (the CI shard job snapshots this JSON against BENCH_loadgen.json).
# (--user-prefix keeps the load sessions disjoint from the correctness
# clients' user1..user4 sessions, whose sequence numbers the phases assert.)
if [ -n "$loadgen" ]; then
  if [ -n "$loadgen_json" ]; then
    "$loadgen" --connect "$connect" --user-prefix lg_user --rate 300 \
      --duration-s 5 --warmup-s 1 --json > "$loadgen_json" \
      || fail "loadgen lost responses"
  else
    "$loadgen" --connect "$connect" --user-prefix lg_user --rate 300 \
      --duration-s 2 --warmup-s 1 > "$tmp/loadgen.txt" \
      || fail "loadgen lost responses"
  fi
  # Long-session round: bounded monotone sessions (32 audits, then a
  # reset_session in the same open-loop schedule) exercise the workers'
  # per-session incremental state — build, delta steps, and reset
  # invalidation — under routed concurrency. Any lost or errored response
  # fails the round.
  "$loadgen" --connect "$connect" --user-prefix lg_sess --rate 300 \
    --duration-s 2 --warmup-s 1 --session-length 32 \
    > "$tmp/loadgen_session.txt" \
    || fail "long-session loadgen lost responses"
fi

# One phase = 4 concurrent clients (one user each) x 5 queries x N rounds.
run_phase() {
  phase="$1"; rounds="$2"
  n=1
  while [ "$n" -le 4 ]; do
    (
      awk -v u="user$n" -F'\t' '{ print u "\t" $1 "\t" $2 }' \
        "$tmp/workload.tsv" > "$tmp/workload.$n.tsv"
      "$client" --connect "$connect" --query-file "$tmp/workload.$n.tsv" \
        --repeat "$rounds" > "$tmp/$phase.$n.out" 2> "$tmp/$phase.$n.err"
      echo $? > "$tmp/$phase.$n.rc"
    ) &
    n=$((n + 1))
  done
}
wait_phase() {
  phase="$1"; lines="$2"
  n=1
  while [ "$n" -le 4 ]; do
    while [ ! -f "$tmp/$phase.$n.rc" ]; do sleep 0.1; done
    [ "$(cat "$tmp/$phase.$n.rc")" -eq 0 ] \
      || fail "$phase client $n exited nonzero: $(cat "$tmp/$phase.$n.err")"
    [ "$(wc -l < "$tmp/$phase.$n.out")" -eq "$lines" ] \
      || fail "$phase client $n produced $(wc -l < "$tmp/$phase.$n.out") lines, wanted $lines"
    n=$((n + 1))
  done
}
# Client columns: user(1) query(2) answer(3) verdict(4) method(5) cached(6)
# cum_verdict(7) cum_method(8) sequence(9). Within a phase the user and
# cached columns vary; across phases the sequence column advances too.
norm_phase() {       # same-phase normal form (keeps sequences)
  cut -f2-5,7- "$tmp/$1.$2.out" > "$tmp/$1.norm.$2"
}
norm_cross() {       # cross-phase normal form (drops sequences; drops the
                     # first round, where a young session's cumulative method
                     # annotation legitimately differs from steady state)
  tail -n +6 "$tmp/$1.$2.out" | cut -f2-5,7-8 > "$tmp/$1.cross.$2"
}

# Phase A: steady state across 3 workers.
run_phase a 20; wait_phase a 100

# Phase B: same sessions continue while worker 2 is SIGKILLed mid-run (the
# phase is 5x longer than A so requests are still in flight when the kill
# lands). The router must replay each affected session onto its new owner;
# clients see no errors, no gaps and no duplicates.
run_phase b 100
sleep 0.3
kill -9 "$w2_pid" 2> /dev/null || fail "worker 2 already gone before the kill"
wait_phase b 500
# The clients can finish before the router handles the upstream EOF, so
# give it up to 5 s to log the loss.
i=0
until grep -q "is gone" "$tmp/router.err"; do
  i=$((i + 1)); [ "$i" -gt 50 ] && fail "router never noticed the kill"
  sleep 0.1
done

# Phase C: runtime membership changes under the same sessions — a fourth
# worker joins, worker 1 drains out.
start_worker 4
i=0
while [ ! -S "$tmp/w4.sock" ]; do
  i=$((i + 1)); [ "$i" -gt 100 ] && fail "worker 4 socket never appeared"
  sleep 0.1
done
"$client" --connect "$connect" --op add_worker --addr "unix:$tmp/w4.sock" \
  > /dev/null || fail "add_worker op failed"
"$client" --connect "$connect" --op remove_worker --addr "unix:$tmp/w1.sock" \
  > /dev/null || fail "remove_worker op failed"
run_phase c 20; wait_phase c 100

# (1) Within each phase all clients served byte-identical rows, sequences
# included.
for phase in a b c; do
  n=1
  while [ "$n" -le 4 ]; do norm_phase "$phase" "$n"; n=$((n + 1)); done
  for n in 2 3 4; do
    diff -u "$tmp/$phase.norm.1" "$tmp/$phase.norm.$n" > /dev/null \
      || fail "phase $phase client $n differs from client 1"
  done
done

# (2) Across the kill and the membership changes nothing shifted: every
# phase, modulo the advancing sequence column and the warm-up round, is the
# phase-A steady-state round repeated. (Phases have different lengths, so
# each is diffed against the 5-row cycle tiled to its own round count.)
tail -n +6 "$tmp/a.1.out" | head -5 | cut -f2-5,7-8 > "$tmp/cycle"
tile_cycle() {
  r=0
  while [ "$r" -lt "$1" ]; do cat "$tmp/cycle"; r=$((r + 1)); done
}
for spec in a:19 b:99 c:19; do
  phase="${spec%%:*}"; rounds="${spec#*:}"
  norm_cross "$phase" 1
  tile_cycle "$rounds" > "$tmp/$phase.want"
  diff -u "$tmp/$phase.want" "$tmp/$phase.cross.1" > /dev/null \
    || fail "phase $phase verdicts drifted from the steady-state cycle"
done

# (3) Sequences prove continuity: phase A covers 1..100, B 101..600 (the
# kill lost/duplicated nothing), C 601..700.
for check in a:1:1 a:100:100 b:1:101 b:500:600 c:1:601 c:100:700; do
  phase="${check%%:*}"; rest="${check#*:}"
  line="${rest%%:*}"; want="${rest#*:}"
  got="$(sed -n "${line}p" "$tmp/$phase.1.out" | awk -F'\t' '{print $NF}')"
  [ "$got" = "$want" ] \
    || fail "phase $phase line $line sequence: got '$got', want '$want'"
done

# (4) Parity with the offline auditor (first round of phase A).
k=1
while [ "$k" -le 5 ]; do
  offline_row="$(grep '^1	' "$tmp/offline_rows.tsv" | sed -n "${k}p")"
  line="$(sed -n "${k}p" "$tmp/a.1.out")"
  [ "$(printf '%s' "$line" | cut -f3-5)" = "$(printf '%s' "$offline_row" | cut -f2-4)" ] \
    || fail "disclosure $k diverges from the offline auditor"
  k=$((k + 1))
done
cumulative_row="$(grep '^2	' "$tmp/offline_rows.tsv")"
line5="$(sed -n '5p' "$tmp/a.1.out")"
[ "$(printf '%s' "$line5" | cut -f7-8)" = "$(printf '%s' "$cumulative_row" | cut -f3-4)" ] \
  || fail "cumulative verdict diverges from the offline auditor"

# (5) Wire shutdown cascades: router drains its in-ring workers (3 and 4)
# and exits 0. Worker 1 drained out of the ring earlier and worker 2 is
# dead, so neither gets the broadcast.
"$client" --connect "$connect" --op shutdown > /dev/null \
  || fail "shutdown op failed"
i=0
while kill -0 "$router_pid" 2> /dev/null; do
  i=$((i + 1)); [ "$i" -gt 100 ] && fail "router did not exit after shutdown"
  sleep 0.1
done
grep -q "drained and stopped" "$tmp/router.err" \
  || fail "router did not report a graceful drain"
for w in 3 4; do
  pid="$(eval echo "\$w${w}_pid")"
  i=0
  while kill -0 "$pid" 2> /dev/null; do
    i=$((i + 1)); [ "$i" -gt 100 ] && fail "worker $w did not exit after shutdown"
    sleep 0.1
  done
  grep -q "drained and stopped" "$tmp/w$w.err" \
    || fail "worker $w did not report a graceful drain"
done

echo "shard smoke OK (3 workers, kill -9 + add/remove rebalance, offline parity)"
