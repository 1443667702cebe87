#!/bin/sh
# Fault recovery under a busy machine: runs the solver-check-faulted
# lexer search RUNS times while three CPU-spinning processes compete for
# the cores, and requires every faulted report to equal the clean run.
# Fault decisions are keyed by query and attempt, not by timing, so the
# load must not change a single byte.
#
#   fault_under_load.sh HOTG_RUN LEXER_ML OUT_DIR [RUNS]
set -u
if [ $# -lt 3 ]; then
  echo "usage: $0 HOTG_RUN LEXER_ML OUT_DIR [RUNS]" >&2
  exit 1
fi
run=$1 lexer=$2 out=$3 runs=${4:-10}
search() {
  "$run" "$lexer" --entry lex_main --explore-paths --max-tests 48 "$@"
}

search > "$out/fault_load_clean.txt" || exit 1

# The spinners also stop on their own after 300 s, in case this script is
# killed before its trap runs.
spinners=
trap 'kill $spinners 2>/dev/null' EXIT INT TERM
for _ in 1 2 3; do
  timeout 300 sh -c 'while :; do :; done' &
  spinners="$spinners $!"
done

same=0
i=0
while [ $i -lt "$runs" ]; do
  i=$((i + 1))
  search --fault-spec solver-check:0.05:7 > "$out/fault_load_faulty.txt"
  if diff -u "$out/fault_load_clean.txt" "$out/fault_load_faulty.txt"; then
    same=$((same + 1))
  else
    echo "run $i differs from the clean run"
  fi
done
echo "faulted runs identical under load: $same/$runs"
[ $same -eq "$runs" ]
