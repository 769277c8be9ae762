#!/usr/bin/env bash
# Corpus smoke test: build a glob corpus of generated graphs, then
#   1. reference corpus run (uninterrupted) with a merged summary;
#   2. SIGKILL a checkpointing corpus run mid-way, resume it, and require
#      every per-graph replicate to be byte-identical to the reference;
#   3. sanity-check the merged corpus summary JSON (rows, aggregates);
#   4. submit the same corpus to a live gesmc_serve daemon as one job and
#      byte-compare the daemon-side and streamed outputs and the daemon-side
#      summary against the reference;
#   5. run an adaptive synthetic corpus whose early stop fires, locally and
#      as a daemon job, and require the same replicate set and rows.
# Run from the repo root with the build dir as $1 (default: build).  Used
# by CI in both the Release and ASan jobs.
set -euo pipefail

BUILD_DIR="${1:-build}"
WORK_DIR="$(mktemp -d)"
SERVE_PID=""
cleanup() {
    if [ -n "$SERVE_PID" ] && kill -0 "$SERVE_PID" 2> /dev/null; then
        kill -9 "$SERVE_PID" 2> /dev/null || true
    fi
    rm -rf "$WORK_DIR"
}
trap cleanup EXIT

SAMPLE="$BUILD_DIR/gesmc_sample"
SERVE="$BUILD_DIR/gesmc_serve"
SUBMIT="$BUILD_DIR/gesmc_submit"
SOCKET="$WORK_DIR/gesmc.sock"

echo "corpus_smoke: generating 3 input graphs"
for s in 1 2 3; do
    "$SAMPLE" --gen powerlaw --set gen-n=1200 --replicates 1 --supersteps 1 \
        --seed "$s" --set "output-prefix=g$s" --output-format binary \
        --output-dir "$WORK_DIR/inputs" --quiet > /dev/null
done
inputs=("$WORK_DIR"/inputs/g*_0.gesb)
test "${#inputs[@]}" -eq 3

CORPUS_ARGS=(--glob "$WORK_DIR/inputs/g*_0.gesb" --algo par-global-es
             --replicates 4 --supersteps 10 --seed 11 --threads 2
             --set metrics=true --output-format binary --checkpoint-every 2
             --set keep-checkpoints=true --quiet)

echo "corpus_smoke: reference (uninterrupted) corpus run"
"$SAMPLE" "${CORPUS_ARGS[@]}" --output-dir "$WORK_DIR/ref" \
    --report "$WORK_DIR/ref/corpus.json" > /dev/null

echo "corpus_smoke: interrupted corpus run (SIGKILL once a checkpoint lands)"
"$SAMPLE" "${CORPUS_ARGS[@]}" --output-dir "$WORK_DIR/res" \
    --report "$WORK_DIR/res/corpus.json" > /dev/null &
pid=$!
for _ in $(seq 1 600); do
    if ls "$WORK_DIR"/res/g*/checkpoints/*.gesc > /dev/null 2>&1; then break; fi
    if ! kill -0 "$pid" 2> /dev/null; then break; fi # run finished already
    sleep 0.05
done
kill -9 "$pid" 2> /dev/null || true
wait "$pid" 2> /dev/null || true

# If the kill landed mid-run, some (graph, replicate) cells are finished,
# some in-flight, some unstarted — possibly whole graphs untouched; if the
# run won the race, the resume degenerates to a skip-everything pass.  The
# byte comparison must hold either way.
echo "corpus_smoke: resuming the corpus"
"$SAMPLE" "${CORPUS_ARGS[@]}" --output-dir "$WORK_DIR/res" \
    --report "$WORK_DIR/res/corpus.json" --resume "$WORK_DIR/res" > /dev/null

echo "corpus_smoke: comparing per-graph outputs"
count=0
for f in "$WORK_DIR"/ref/g*/replicate_*.gesb; do
    rel="${f#"$WORK_DIR"/ref/}"
    cmp "$f" "$WORK_DIR/res/$rel"
    count=$((count + 1))
done
test "$count" -eq 12
echo "corpus_smoke: OK ($count replicates byte-identical after kill + resume)"

echo "corpus_smoke: merged summary sanity"
python3 - "$WORK_DIR/ref/corpus.json" "$WORK_DIR/res/corpus.json" <<'EOF'
import json, sys
for path in sys.argv[1:]:
    doc = json.load(open(path))
    rows = doc["graphs"]
    assert doc["corpus"]["graphs"] == 3, path
    assert len(rows) == 3, path
    assert all(r["failed"] == 0 and r["interrupted"] == 0 for r in rows), path
    seeds = {r["seed"] for r in rows}
    assert len(seeds) == 3, path  # derived per-graph seeds are distinct
    agg = doc["aggregates"]
    for key in ("seconds", "switches_per_second", "acceptance_rate",
                "mean_triangles"):
        a = agg[key]
        assert a["min"] <= a["median"] <= a["max"], (path, key)
# The two summaries agree on everything but timings.
ref, res = (json.load(open(p)) for p in sys.argv[1:])
for a, b in zip(ref["graphs"], res["graphs"]):
    for key in ("name", "seed", "nodes", "edges", "replicates",
                "acceptance_rate"):
        assert a[key] == b[key], key
print("corpus_smoke: summaries OK")
EOF

# ---------------------------------------------------------------- daemon
echo "corpus_smoke: starting daemon + submitting the corpus as one job"
"$SERVE" --socket "$SOCKET" --threads 2 --max-jobs 2 2> "$WORK_DIR/serve.log" &
SERVE_PID=$!
for _ in $(seq 1 200); do
    if [ -S "$SOCKET" ]; then break; fi
    sleep 0.05
done
test -S "$SOCKET"

"$SUBMIT" --socket "$SOCKET" --quiet --stream-dir "$WORK_DIR/stream" \
    --set "input-glob=$WORK_DIR/inputs/g*_0.gesb" \
    --set algorithm=par-global-es --set replicates=4 --set supersteps=10 \
    --set seed=11 --set metrics=true --set output-format=binary \
    --set "output-dir=$WORK_DIR/svc" --set "report=$WORK_DIR/svc/corpus.json"

count=0
for f in "$WORK_DIR"/ref/g*/replicate_*.gesb; do
    rel="${f#"$WORK_DIR"/ref/}"
    cmp "$f" "$WORK_DIR/svc/$rel"
    cmp "$f" "$WORK_DIR/stream/$rel" # streamed as <member>/<basename>
    count=$((count + 1))
done
test "$count" -eq 12
test "$(grep -c '"event": "graph"' "$WORK_DIR/stream/events.log")" -eq 3
python3 - "$WORK_DIR/ref/corpus.json" "$WORK_DIR/svc/corpus.json" <<'EOF'
import json, sys
ref, svc = (json.load(open(p)) for p in sys.argv[1:])
for a, b in zip(ref["graphs"], svc["graphs"]):
    for key in ("name", "seed", "nodes", "edges", "replicates",
                "acceptance_rate", "metrics"):
        assert a[key] == b[key], key
print("corpus_smoke: daemon-side summary matches the local one")
EOF
echo "corpus_smoke: OK ($count daemon-side and streamed replicates byte-identical)"

# ------------------------------------------------------ adaptive early stop
# Every graph's first wave of 3 replicates agrees, so the local run skips
# the fourth: the daemon job must pick the same replicate set and rows.
echo "corpus_smoke: adaptive corpus, locally and as a daemon job"
ADAPTIVE=(--set "corpus=gnp n=2000 m=8000 count=3" --set supersteps=adaptive
          --set max-supersteps=60 --set replicates=4 --set seed=5
          --set threads=4 --set metrics=true)
"$SAMPLE" --quiet "${ADAPTIVE[@]}" --output-dir "$WORK_DIR/adaptive_ref" \
    --report "$WORK_DIR/adaptive_ref/corpus.json" > /dev/null
"$SUBMIT" --socket "$SOCKET" --quiet "${ADAPTIVE[@]}" \
    --set "output-dir=$WORK_DIR/adaptive_svc" \
    --set "report=$WORK_DIR/adaptive_svc/corpus.json"
test -f "$WORK_DIR/adaptive_svc/corpus_rows.ndjson"
ref_files="$(cd "$WORK_DIR/adaptive_ref" && ls gnp-*/replicate_*)"
svc_files="$(cd "$WORK_DIR/adaptive_svc" && ls gnp-*/replicate_*)"
test "$ref_files" = "$svc_files"
for rel in $ref_files; do
    cmp "$WORK_DIR/adaptive_ref/$rel" "$WORK_DIR/adaptive_svc/$rel"
done
python3 - "$WORK_DIR/adaptive_ref/corpus.json" "$WORK_DIR/adaptive_svc/corpus.json" <<'EOF'
import json, sys
ref, svc = (json.load(open(p)) for p in sys.argv[1:])
assert len(ref["graphs"]) == len(svc["graphs"]) == 3
for a, b in zip(ref["graphs"], svc["graphs"]):
    assert a["replicates"] == 3 and a["stopped_early"], a
    for key in ("name", "replicates", "stopped_early"):
        assert a[key] == b[key], (key, a[key], b[key])
    assert a["metrics"]["mean_triangles"] == b["metrics"]["mean_triangles"]
print("corpus_smoke: the adaptive daemon job picked the local replicate set")
EOF
echo "corpus_smoke: OK ($(echo "$ref_files" | wc -l) adaptive replicates byte-identical)"

"$SUBMIT" --socket "$SOCKET" --shutdown > /dev/null
serve_rc=0
wait "$SERVE_PID" || serve_rc=$?
SERVE_PID=""
test "$serve_rc" -eq 0
echo "corpus_smoke: OK (daemon shutdown clean)"
