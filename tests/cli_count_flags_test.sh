#!/bin/sh
# CLI argument validation for the runtime count flags: each bad value
# must make `dlacep replay` exit 1 with a message naming the problem —
# never a CHECK failure, an uncaught exception, or a silent wrap-around.
#
# usage: cli_count_flags_test.sh path/to/dlacep
set -u
cli="$1"
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

"$cli" generate --kind stock --events 200 --seed 3 --out "$dir/s.csv" \
  > /dev/null || { echo "generate failed"; exit 1; }

failures=0
# expect_reject MESSAGE FLAG VALUE
expect_reject() {
  "$cli" replay --query "SEQ(S0 a, S1 b) WITHIN 8" --data "$dir/s.csv" \
    --filter pass "$2" "$3" > "$dir/out.log" 2>&1
  code=$?
  if [ "$code" -ne 1 ] || ! grep -q -- "$1" "$dir/out.log"; then
    echo "FAIL: $2 $3 exited $code; expected 1 with '$1':"
    cat "$dir/out.log"
    failures=$((failures + 1))
  fi
}

expect_reject "queue_capacity must be at least 1" --queue_capacity 0
expect_reject "num_shards must be at least 1" --shards 0
expect_reject "--shards must be a non-negative integer" --shards -1
expect_reject "--shards must be a non-negative integer" --shards two
expect_reject "--queue_capacity must be a non-negative integer" \
  --queue_capacity -5
expect_reject "--batch_size must be a non-negative integer" --batch_size -1
expect_reject "--batch_size must be a non-negative integer" --batch_size 4x

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
