#!/bin/sh
# CLI argument validation for the integer count flags and the
# floating-point flags, for unknown engine, filter and stream kind
# names, and for queries a command cannot run: each bad input must make
# the command exit 1
# with a message naming the problem — never a CHECK failure, an
# uncaught exception, a hang, or a silent wrap-around.
#
# usage: cli_count_flags_test.sh path/to/dlacep
set -u
cli="$1"
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

"$cli" generate --kind stock --events 200 --seed 3 --out "$dir/s.csv" \
  > /dev/null || { echo "generate failed"; exit 1; }

failures=0
# expect_fail MESSAGE COMMAND [FLAGS...]
expect_fail() {
  message="$1"
  shift
  "$cli" "$@" > "$dir/out.log" 2>&1
  code=$?
  if [ "$code" -ne 1 ] || ! grep -q -- "$message" "$dir/out.log"; then
    echo "FAIL: $* exited $code; expected 1 with '$message':"
    cat "$dir/out.log"
    failures=$((failures + 1))
  fi
}
# expect_reject MESSAGE FLAG VALUE: one bad flag on a valid replay.
expect_reject() {
  expect_fail "$1" replay --query "SEQ(S0 a, S1 b) WITHIN 8" \
    --data "$dir/s.csv" --filter pass "$2" "$3"
}

expect_reject "queue_capacity must be at least 1" --queue_capacity 0
expect_reject "num_shards must be at least 1" --shards 0
expect_reject "--shards must be a non-negative integer" --shards -1
expect_reject "--shards must be a non-negative integer" --shards two
expect_reject "--queue_capacity must be a non-negative integer" \
  --queue_capacity -5
expect_reject "--batch_size must be a non-negative integer" --batch_size -1
expect_reject "--batch_size must be a non-negative integer" --batch_size 4x
expect_reject "--query_pm_budget must be a non-negative integer" \
  --query_pm_budget -1
expect_reject "--breaker_trips must be a non-negative integer" \
  --breaker_trips -2
expect_reject "--checkpoint_every must be a non-negative integer" \
  --checkpoint_every -1
expect_reject "--anomaly_streak must be a non-negative integer" \
  --anomaly_streak x
expect_reject "--probe_period must be a non-negative integer" \
  --probe_period -8
expect_reject "--probe_passes must be a non-negative integer" \
  --probe_passes -3
for flag in num_threads hidden layers epochs; do
  kind=non-negative
  case "$flag" in hidden|layers) kind=positive ;; esac
  expect_fail "--$flag must be a $kind integer" compare \
    --query "SEQ(S0 a, S1 b) WITHIN 8" --train "$dir/s.csv" \
    --test "$dir/s.csv" "--$flag" -1
done
expect_fail "--hidden must be a positive integer" compare \
  --query "SEQ(S0 a, S1 b) WITHIN 8" --train "$dir/s.csv" \
  --test "$dir/s.csv" --hidden 0
expect_fail "--layers must be a positive integer" compare \
  --query "SEQ(S0 a, S1 b) WITHIN 8" --train "$dir/s.csv" \
  --test "$dir/s.csv" --layers abc
expect_fail "--events must be a non-negative integer" generate \
  --kind stock --events -5 --out "$dir/neg.csv"
expect_fail "--symbols must be a positive integer" serve \
  --query "SEQ(S0 a, S1 b) WITHIN 8" --symbols 0

# Floating-point flags must parse whole and lie in range: a
# non-numeric value would read as 0, and --keep outside [0, 1] would
# fail a CHECK in the random shedder.
expect_fail "--keep must be a number in \[0, 1\], got '2'" replay \
  --query "SEQ(S0 a, S1 b) WITHIN 8" --data "$dir/s.csv" \
  --filter random-shed --keep 2
expect_reject "--keep must be a number in \[0, 1\], got 'abc'" --keep abc
expect_reject "--keep must be a number in \[0, 1\]" --keep -0.5
expect_reject "--threshold must be a finite number, got 'abc'" \
  --threshold abc
expect_reject "--threshold must be a finite number, got 'nan'" \
  --threshold nan
expect_reject "--rate must be a finite non-negative number, got '-5'" \
  --rate -5
expect_reject "--rate must be a finite non-negative number, got 'inf'" \
  --rate inf
for flag in deadline metrics_every query_deadline_ms churn_every_ms \
  drift_reference; do
  expect_reject "--$flag must be a finite non-negative number" "--$flag" -1
  expect_reject "--$flag must be a finite non-negative number" "--$flag" 1x
done

# Unknown engine, filter and stream kind names are rejected, never
# mapped to a default.
expect_fail "unknown --engine 'bogus'" run --query "SEQ(S0 a, S1 b) WITHIN 8" \
  --data "$dir/s.csv" --engine bogus
expect_reject "unknown --engine 'bogus'" --engine bogus
expect_fail "unknown --filter 'bogus'" compare \
  --query "SEQ(S0 a, S1 b) WITHIN 8" --train "$dir/s.csv" \
  --test "$dir/s.csv" --filter bogus
expect_fail "unknown online filter kind: bogus" replay \
  --query "SEQ(S0 a, S1 b) WITHIN 8" --data "$dir/s.csv" --filter bogus
expect_fail "--filter 'window' is not supported" compare --queries 2 \
  --train "$dir/s.csv" --test "$dir/s.csv" --filter window
expect_fail "unknown --kind 'bogus'" generate --kind bogus \
  --events 10 --out "$dir/bogus.csv"

# Time-window queries run on the exact engines only: compare fails
# before training and replay names the command that runs them.
timed="PATTERN SEQ(S1 a, S2 b) WITHIN 5 TIME"
expect_fail "dlacep run" compare --query "$timed" --train "$dir/s.csv" \
  --test "$dir/s.csv"
expect_fail "dlacep run" replay --query "$timed" --data "$dir/s.csv" \
  --filter pass

# A valid run still succeeds.
"$cli" replay --query "SEQ(S0 a, S1 b) WITHIN 8" --data "$dir/s.csv" \
  --filter pass --shards 2 --queue_capacity 16 --batch_size 4 \
  > "$dir/ok.log" 2>&1 || {
  echo "FAIL: valid replay exited nonzero:"; cat "$dir/ok.log"
  failures=$((failures + 1))
}
grep -q 'accounted       : yes' "$dir/ok.log" || {
  echo "FAIL: valid replay did not account every event"
  failures=$((failures + 1))
}

[ "$failures" -eq 0 ] && echo "cli_count_flags: all checks passed"
exit "$failures"
