# End-to-end CI leg for the multi-process sweep service (run via
# `make serve-e2e`, which builds first). Exercises the contract the
# docs promise: a fresh 6-task sweep completes with 2 workers, a
# partial store resumes by recomputing only what is missing (and
# byte-identically), --workers 0 is a warm resume over a complete
# store, a missing manifest or an invalid task config exits 2, and
# more workers than tasks still completes.
set -eu

EBRC=_build/default/bin/ebrc_cli.exe
[ -x "$EBRC" ] || { echo "serve_ci: $EBRC not built (run from repo root after dune build)"; exit 1; }

WORK=$(mktemp -d "${TMPDIR:-/tmp}/ebrc-serve-ci.XXXXXX")
trap 'rm -rf "$WORK"' EXIT INT TERM

MANIFEST="$WORK/sweep.json"
QUEUE="$MANIFEST.queue"
STORE="$QUEUE/store"

fail() { echo "serve_ci: FAIL: $*"; exit 1; }

store_count() { ls "$STORE" 2>/dev/null | grep -c '\.json$' || true; }
store_sum() { cat $(ls "$STORE"/*.json | sort) | cksum; }

# 1. Fresh sweep: 6 tasks, 2 workers, must complete with exit 0 and
#    publish exactly one record per task.
"$EBRC" manifest "$MANIFEST" --tasks 6 --duration 5 >/dev/null
"$EBRC" serve "$MANIFEST" --workers 2 --quiet || fail "fresh serve exited $?"
[ "$(store_count)" = 6 ] || fail "expected 6 store records, got $(store_count)"
SUM_FULL=$(store_sum)

# 2. Resume over a partial store: delete two records, re-serve. Only
#    the missing tasks are outstanding; the refilled store must be
#    byte-identical to the original (content-addressed determinism).
ls "$STORE"/*.json | head -2 | while read -r f; do rm "$f"; done
[ "$(store_count)" = 4 ] || fail "partial store should hold 4 records"
"$EBRC" serve "$MANIFEST" --workers 2 --quiet || fail "partial resume exited $?"
[ "$(store_count)" = 6 ] || fail "resume did not refill the store"
[ "$(store_sum)" = "$SUM_FULL" ] || fail "resumed store differs from original bytes"

# 3. Warm resume: everything published, --workers 0 spawns nothing and
#    still exits 0 immediately.
"$EBRC" serve "$MANIFEST" --workers 0 --quiet || fail "warm resume exited $?"

# 4. Exit-code contract: a missing manifest is a usage error (2), not
#    a crash or a silent success.
set +e
"$EBRC" serve "$WORK/absent.json" --workers 0 --quiet 2>/dev/null
RC=$?
set -e
[ "$RC" = 2 ] || fail "missing manifest should exit 2, got $RC"

# 5. A task whose duration is NaN is a bad manifest too: rejected
#    before any queue is primed or worker spawned (it used to spin a
#    worker forever). The timeout turns a regression into a failure.
sed 's/"duration":"[^"]*"/"duration":"nan"/g' "$MANIFEST" > "$WORK/nan.json"
set +e
timeout 60 "$EBRC" serve "$WORK/nan.json" --workers 1 --quiet 2>/dev/null
RC=$?
set -e
[ "$RC" = 2 ] || fail "NaN-duration manifest should exit 2, got $RC"
[ ! -e "$WORK/nan.json.queue" ] || fail "NaN-duration manifest primed a queue"

# 6. More workers than tasks: 4 workers serve a 2-task manifest, so
#    idle workers exit while their peers still compute. Serve must drop
#    each reaped worker from its exit wait (a stale one would spin) and
#    still complete with every record published.
TWO="$WORK/two.json"
"$EBRC" manifest "$TWO" --tasks 2 --duration 5 >/dev/null
timeout 60 "$EBRC" serve "$TWO" --workers 4 --quiet \
  || fail "4-worker serve of 2 tasks exited $?"
[ "$(ls "$TWO.queue/store" | grep -c '\.json$')" = 2 ] \
  || fail "4-worker serve of 2 tasks left an incomplete store"

echo "serve_ci: OK (fresh sweep, partial resume byte-identical, warm resume, exit codes, more workers than tasks)"
