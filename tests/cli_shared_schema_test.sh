#!/bin/sh
# Every stream of one CLI command is read into one schema: `compare`
# must count on --test the exact matches that `run --data` finds on the
# same file, although the --train file meets its types in another order
# (the two generated stock streams do).
#
# usage: cli_shared_schema_test.sh path/to/dlacep
set -u
cli="$1"
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

"$cli" generate --kind stock --events 2000 --seed 7 --out "$dir/hist.csv" \
  > /dev/null || { echo "generate failed"; exit 1; }
"$cli" generate --kind stock --events 1500 --seed 8 --out "$dir/live.csv" \
  > /dev/null || { echo "generate failed"; exit 1; }

query="SEQ(S0 a, S1 b) WHERE a.vol < b.vol WITHIN 20"
"$cli" run --query "$query" --data "$dir/live.csv" > "$dir/run.log" 2>&1 \
  || { echo "run failed:"; cat "$dir/run.log"; exit 1; }
want=$(sed -n 's/^matches *: //p' "$dir/run.log")

"$cli" compare --query "$query" --train "$dir/hist.csv" \
  --test "$dir/live.csv" --epochs 1 --hidden 4 --layers 1 \
  > "$dir/compare.log" 2>&1 \
  || { echo "compare failed:"; cat "$dir/compare.log"; exit 1; }
got=$(sed -n 's/^exact matches *: //p' "$dir/compare.log")

if [ -z "$want" ] || [ "$want" -eq 0 ] || [ "$want" != "$got" ]; then
  echo "FAIL: run --data live.csv found '$want' matches;" \
    "compare --test live.csv reports '$got' exact matches"
  exit 1
fi
echo "exact matches agree: $got"
