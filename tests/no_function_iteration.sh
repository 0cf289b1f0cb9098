#!/bin/sh
# Lint gate (registered as CTest `no_function_iteration`): set iteration must
# go through the templated visit()/visit_intersection (which inline into the
# kernel word scan) — the whole point of the dense_bits refactor is that no
# per-element type-erased call survives in src/, bench/, or examples/. The
# deprecated std::function-based for_each shims have been removed, so there
# are no allowed appearances at all.
# Usage: no_function_iteration.sh <repo-root>
set -u

root="${1:?usage: no_function_iteration.sh <repo-root>}"

bad=$(grep -rn -e '\.for_each(' -e '->for_each(' \
  "$root/src" "$root/bench" "$root/examples" \
  || true)

if [ -n "$bad" ]; then
  echo "FAIL: std::function-based for_each iteration in hot paths:" >&2
  echo "$bad" >&2
  echo "use visit()/visit_intersection instead" >&2
  exit 1
fi

# The DecisionEngine is the only code that walks a criterion cascade. The
# legacy decide_*_safety wrappers went with the batch API redesign; the
# table runner run_criteria and the product-prior runners
# decide_product_safety_complete / decide_product_safety_numeric went when
# every caller moved to the engine. None of them may come back.
bad=$(grep -rn \
  -e 'decide_unrestricted_safety(' \
  -e 'decide_product_safety(' \
  -e 'decide_supermodular_safety(' \
  -e 'run_criteria(' \
  -e 'decide_product_safety_complete(' \
  -e 'decide_product_safety_numeric(' \
  "$root/src" "$root/bench" "$root/examples" "$root/tests" \
  --include='*.cpp' --include='*.h' \
  || true)

if [ -n "$bad" ]; then
  echo "FAIL: removed cascade runner referenced:" >&2
  echo "$bad" >&2
  echo "use the DecisionEngine" >&2
  exit 1
fi

echo "no std::function set iteration OK"
