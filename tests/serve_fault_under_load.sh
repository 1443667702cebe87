#!/bin/sh
# Serve-side fault decisions under a busy machine: streams a 12-frame
# batch through hotg-serve --workers 2 with both serve fault sites armed,
# once on an idle machine and then RUNS times while three CPU-spinning
# processes compete for the cores, and requires every loaded run to answer
# exactly like the first. serve.job-decode is keyed by frame arrival
# ordinal and serve.session-spawn by (frame, retry attempt), so which
# frames are rejected, retried or quarantined must not depend on how the
# two session workers interleave. Responses are compared without their
# length-prefix lines and elapsed_ms field, in sorted order (workers
# answer in completion order).
#
#   serve_fault_under_load.sh HOTG_SERVE BATCH_JSONL OUT_DIR [RUNS]
set -u
if [ $# -lt 3 ]; then
  echo "usage: $0 HOTG_SERVE BATCH_JSONL OUT_DIR [RUNS]" >&2
  exit 1
fi
serve=$1 batch=$2 out=$3 runs=${4:-10}

# Four copies of the batch, with distinct job ids per copy.
: > "$out/serve_load_batch.jsonl"
for copy in 1 2 3 4; do
  sed "s/\"id\":\"/\"id\":\"c$copy-/" "$batch" >> "$out/serve_load_batch.jsonl"
done

answer() {
  "$serve" --workers 2 --queue-capacity 64 --backoff-ms 1 \
      --fault-spec serve.session-spawn:0.5:3,serve.job-decode:0.2:5 \
      < "$out/serve_load_batch.jsonl" | grep '^{' |
    sed 's/,"elapsed_ms":[0-9]*}$/}/' | sort
}

answer > "$out/serve_load_reference.txt" || exit 1
# The spec must actually exercise both sites: a decode rejection and a
# session retry.
grep -q '"reason":"bad request: injected' "$out/serve_load_reference.txt" ||
  { echo "no injected decode fault in the reference run"; exit 1; }
grep -q '"retries":[1-9]' "$out/serve_load_reference.txt" ||
  { echo "no session retry in the reference run"; exit 1; }

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
  answer > "$out/serve_load_faulty.txt"
  if diff -u "$out/serve_load_reference.txt" "$out/serve_load_faulty.txt"; then
    same=$((same + 1))
  else
    echo "run $i differs from the reference run"
  fi
done
echo "faulted serve runs identical under load: $same/$runs"
[ $same -eq "$runs" ]
