#!/bin/sh
# Subcube-prior audits in closed form (registered as CTest
# `policy_subcube_golden`). Two checks on `policy` workload scenarios
# (epi_workload --family=policy --seed=1 --records=N --emit=scenario):
#   1. policy@10: `audit_cli --batch` must print the golden report byte for
#      byte, at 1 and 4 worker threads. The golden was captured from the
#      minimal-interval scan that predates the closed-form Delta classes, so
#      the closed form must reproduce its verdicts, methods and details.
#   2. policy@13 (kMaxSubcubeEnumerationCoordinates): the batched audit must
#      finish inside the CTest timeout and print what the unbatched run
#      prints. Memoizing one 2^13-bit interval per world pair does not fit
#      in memory here, so this fails if the subcube prior ever takes that
#      path again.
# Usage: policy_subcube_golden.sh <path-to-audit_cli> <policy-golden-dir>
set -u

cli="${1:?usage: policy_subcube_golden.sh <audit_cli> <policy-golden-dir>}"
golden="${2:?missing policy golden dir}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

ref="$golden/policy10.report.txt"
[ -f "$ref" ] || fail "missing golden report $ref"
for threads in 1 4; do
  "$cli" --batch --threads "$threads" "$golden/policy10.audit" \
    > "$tmp/policy10.$threads.txt" 2>&1 \
    || fail "policy@10 (--threads $threads) exited nonzero"
  if ! cmp -s "$tmp/policy10.$threads.txt" "$ref"; then
    diff "$ref" "$tmp/policy10.$threads.txt" | head -20 >&2
    fail "policy@10 (--threads $threads) differs from golden report"
  fi
done
echo "  policy@10: byte-identical to golden (threads 1, 4)"

"$cli" --batch --threads 2 "$golden/policy13.audit" > "$tmp/policy13.batch.txt" 2>&1 \
  || fail "policy@13 (--batch) exited nonzero"
"$cli" --threads 2 "$golden/policy13.audit" > "$tmp/policy13.plain.txt" 2>&1 \
  || fail "policy@13 exited nonzero"
grep -q "subcube-intervals" "$tmp/policy13.batch.txt" \
  || fail "policy@13 report names no subcube-intervals decision"
if ! cmp -s "$tmp/policy13.batch.txt" "$tmp/policy13.plain.txt"; then
  diff "$tmp/policy13.plain.txt" "$tmp/policy13.batch.txt" | head -20 >&2
  fail "policy@13: --batch output differs"
fi
echo "  policy@13: audited, --batch byte-identical"

echo "policy subcube golden OK"
