#!/bin/sh
# Golden search reports: runs hotg-run on every example program under each
# of the four concretization policies and compares the full stdout (entry
# banner, every executed test, summary, bug lines, stop reason) with the
# committed copy in the golden directory. The reports are deterministic for
# a fixed seed and identical for every --jobs value, so any difference is a
# change in search behaviour.
#
#   golden_reports.sh HOTG_RUN EXAMPLES_DIR GOLDEN_DIR JOBS [--update]
#
# --update rewrites the golden copies instead of comparing against them.
set -u
if [ $# -lt 4 ]; then
  echo "usage: $0 HOTG_RUN EXAMPLES_DIR GOLDEN_DIR JOBS [--update]" >&2
  exit 1
fi
run=$1 examples=$2 golden=$3 jobs=$4 update=${5:-}
tmp=$(mktemp) || exit 1
trap 'rm -f "$tmp"' EXIT

status=0 count=0
for program in "$examples"/*.ml; do
  name=$(basename "$program" .ml)
  # The lexer programs name their entry lex_main; the others use hotg-run's
  # default (main, else the first function).
  entry=
  grep -q 'fun lex_main' "$program" && entry="--entry lex_main"
  for policy in unsound sound sound-delayed higher-order; do
    expected="$golden/$name.$policy.txt"
    # shellcheck disable=SC2086
    "$run" "$program" $entry --policy "$policy" --max-tests 64 \
      --explore-paths --dump-tests --jobs "$jobs" > "$tmp"
    code=$?
    if [ $code -ne 0 ]; then
      echo "FAIL $name/$policy: hotg-run exited $code"
      status=1
    elif [ "$update" = "--update" ]; then
      cp "$tmp" "$expected"
    elif ! diff -u "$expected" "$tmp"; then
      echo "FAIL $name/$policy: report differs from $expected"
      status=1
    fi
    count=$((count + 1))
  done
done
[ $status -eq 0 ] && echo "golden reports identical: $count at --jobs $jobs"
exit $status
