#!/bin/sh
# Job rejections agree: six invalid jobs go through hotg-run and through
# hotg-serve. hotg-run must exit 1 with "hotg-run: <reason>" on stderr,
# the daemon must answer "rejected" with a reason, and the two reasons
# must be the same text (both tools check a job through app::Job).
#
#   job_rejections_agree.sh HOTG_RUN HOTG_SERVE EXAMPLES_DIR
set -u
if [ $# -ne 3 ]; then
  echo "usage: $0 HOTG_RUN HOTG_SERVE EXAMPLES_DIR" >&2
  exit 1
fi
run=$1 serve=$2 examples=$3
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT

# The daemon reads both programs from its --program-root.
cp "$examples/obscure.ml" "$dir/obscure.ml"
printf 'extern zork(int) -> int;\nfun main(x: int) -> int {\n  return zork(x);\n}\n' \
  > "$dir/unbound.ml"

# name | program | hotg-run flags | request fields
cat > "$dir/cases" <<'EOF'
policy|obscure.ml|--policy warp|"policy":"warp"
order|obscure.ml|--order sideways|"order":"sideways"
entry|obscure.ml|--entry nope|"entry":"nope"
extern|unbound.ml||
input|obscure.ml|--input 1|"input":[1]
seed-input|obscure.ml|--seed-input 1,2,3|"seed_inputs":[[1,2,3]]
EOF

: > "$dir/batch.jsonl"
while IFS='|' read -r name program flags fields; do
  printf '{"id":"%s","program_path":"%s"%s}\n' "$name" "$program" \
    "${fields:+,$fields}" >> "$dir/batch.jsonl"
done < "$dir/cases"
"$serve" --workers 1 --program-root "$dir" < "$dir/batch.jsonl" \
  > "$dir/answers" 2> /dev/null

status=0 agreed=0
while IFS='|' read -r name program flags fields; do
  # shellcheck disable=SC2086
  "$run" "$dir/$program" $flags > /dev/null 2> "$dir/err"
  code=$?
  cli=$(head -n 1 "$dir/err")
  answer=$(grep "\"id\":\"$name\"" "$dir/answers")
  served=$(printf '%s\n' "$answer" |
    sed -n 's/.*"status":"rejected","reason":"\([^"]*\)".*/\1/p')
  if [ $code -ne 1 ]; then
    echo "FAIL $name: hotg-run exited $code"
    status=1
  elif [ -z "$served" ]; then
    echo "FAIL $name: hotg-serve did not reject: $answer"
    status=1
  elif [ "$cli" != "hotg-run: $served" ]; then
    echo "FAIL $name: hotg-run said '$cli', hotg-serve '$served'"
    status=1
  else
    agreed=$((agreed + 1))
  fi
done < "$dir/cases"
echo "job rejections agree: $agreed/6"
exit $status
