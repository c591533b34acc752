#!/usr/bin/env bash
# Full verification gate: release build, test suite, lints, allocation
# regression, a short run of each benchmark workload, bench-report
# sanity, and the durability, serve, continual and registry drills.
#
#   scripts/verify.sh
#
# Run from anywhere; operates on the repository containing this script.
# Every report and drill artifact goes to a scratch directory that is
# removed on exit, so a run leaves the working tree as it found it.
set -euo pipefail
cd "$(dirname "$0")/.."
DRILL_DIR="$(mktemp -d)"
trap 'rm -rf "$DRILL_DIR"' EXIT

echo "==> cargo build --release --workspace"
# --workspace matters: the repo root is itself a package (the `leapme`
# facade), so a bare `cargo build` would skip the CLI binary the
# durability drill below runs.
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo test --manifest-path benchmark/Cargo.toml (its own workspace)"
# A bare `cargo test` never builds the benchmark, which calls the
# library API directly.
cargo test --release --offline --manifest-path benchmark/Cargo.toml -q

echo "==> benchmark: one 3 s run per workload, every correctness gate must pass"
# Exit 1 means the run finished but a gate failed: faults_disabled,
# scores_bitwise_equal, drain_clean, end_to_end_complete, or (on
# serve-keepalive) reloads_succeeded. Exit 2 is a set-up error. The
# runs' scratch files go to .bench_work/, which git ignores.
for workload in serve-fresh serve-keepalive; do
    BENCH_LOG="$DRILL_DIR/benchmark-$workload.log"
    BENCH_RC=0
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seconds 3 > "$BENCH_LOG" 2>&1 || BENCH_RC=$?
    if [ "$BENCH_RC" -ne 0 ]; then
        echo "benchmark: $workload exited $BENCH_RC" >&2
        grep -v -e '^leapme serve listening' -e '^feature cache hit' "$BENCH_LOG" \
            | tail -n 40 >&2
        exit 1
    fi
    echo "    $workload:" \
        "$(grep -E '^(latency_p50_ms|throughput_pairs_per_s) ' "$BENCH_LOG" | tr '\n' ' ')"
done

echo "==> cargo test -p leapme-nn --features alloc-count (zero-allocation regression)"
cargo test -p leapme-nn --features alloc-count -q

echo "==> cargo test -p leapme --features alloc-count (steady-state featurize is alloc-free)"
cargo test -p leapme --features alloc-count -q

echo "==> cargo clippy --workspace -- -D warnings"
# Clippy may be unavailable in minimal toolchains; warn instead of fail.
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "warning: clippy not installed; skipping lint step" >&2
fi

echo "==> kernel-equivalence suites: bit-parallel/banded/SIMD vs reference"
# The PR6 fast paths (Myers bit-vector Levenshtein, banded OSA/Damerau,
# SSE2 embedding lanes) each keep their reference implementation
# in-tree with equivalence tests, and leapme-nn checks its matmul row
# partitioning and its one training loop bit for bit against the
# test-only allocating oracle; run them at both the serial and a
# multi-worker thread count so the dispatch seams are covered either
# way.
for t in 1 4; do
    echo "    LEAPME_THREADS=$t"
    LEAPME_THREADS=$t cargo test -q -p leapme-nn
    LEAPME_THREADS=$t cargo test -q -p leapme-textsim
    LEAPME_THREADS=$t cargo test -q -p leapme-embedding kernels
    LEAPME_THREADS=$t cargo test -q -p leapme-features pair_table
done

echo "==> index suites: HNSW/LSH determinism, recall vs oracle, cancellation"
# The PR7 retrieval stack (deterministic HNSW graph, banded name-LSH,
# index-backed blocking) has its guarantees in crates/core/tests/index.rs
# plus the blocking/index unit tests; run them at both thread counts —
# index construction is serial by design, so the counts must agree.
for t in 1 4; do
    echo "    LEAPME_THREADS=$t"
    LEAPME_THREADS=$t cargo test -q -p leapme-core --test index
    LEAPME_THREADS=$t cargo test -q -p leapme-core --lib -- blocking index
done

echo "==> bench smoke run (BENCH_PR7.json at the baseline corpus size, into a scratch dir)"
# Run from the repo root: the report's vs-PR6 comparison reads the
# committed BENCH_PR6.json from the current directory.
cargo run --release -p leapme-bench --bin bench -- \
    --sources 12 --out "$DRILL_DIR/BENCH_PR7.json" >/dev/null

echo "==> bench smoke: BENCH_PR7.json parses and records speedups, breakdown, retrieval"
python3 - "$DRILL_DIR/BENCH_PR7.json" <<'EOF'
import json, math, sys

with open(sys.argv[1]) as f:
    report = json.load(f)

def finite(v):
    return isinstance(v, (int, float)) and math.isfinite(v)

if not isinstance(report.get("parallel_unmeasured"), bool):
    sys.exit("BENCH_PR7.json: parallel_unmeasured flag missing")

for mode in ("serial", "parallel"):
    stage = report[mode]
    for key in ("threads_requested", "threads_effective",
                "build_s", "featurize_s", "train_s", "score_s", "total_s"):
        if key not in stage:
            sys.exit(f"BENCH_PR7.json: {mode}.{key} missing")
    if stage["total_s"] <= 0:
        sys.exit(f"BENCH_PR7.json: {mode}.total_s not positive")

for key in ("speedup_build", "speedup_featurize", "speedup_train",
            "speedup_score", "speedup_total"):
    v = report.get(key)
    if not finite(v) or v <= 0:
        sys.exit(f"BENCH_PR7.json: {key} missing or not a positive number")

bd = report.get("featurize_breakdown")
if not isinstance(bd, dict):
    sys.exit("BENCH_PR7.json: featurize_breakdown section missing")
for key in ("char_token_s", "embedding_average_s", "name_distances_s",
            "name_distances_uncached_s", "assembly_s"):
    v = bd.get(key)
    if not finite(v) or v < 0:
        sys.exit(f"BENCH_PR7.json: featurize_breakdown.{key} missing or negative")
kernels = bd.get("name_kernels")
if not isinstance(kernels, dict):
    sys.exit("BENCH_PR7.json: featurize_breakdown.name_kernels missing")
for key in ("myers_levenshtein_s", "osa_banded_s", "damerau_banded_s",
            "lcs_s", "trigram_s", "trigram_profiles_s", "jaro_winkler_s"):
    if not finite(kernels.get(key)):
        sys.exit(f"BENCH_PR7.json: name_kernels.{key} missing or not finite")
dedupe = bd.get("pair_dedupe")
if not isinstance(dedupe, dict):
    sys.exit("BENCH_PR7.json: featurize_breakdown.pair_dedupe missing")
for key in ("unique_name_forms", "table_entries", "table_hits",
            "string_cache_hits", "string_cache_misses"):
    if key not in dedupe:
        sys.exit(f"BENCH_PR7.json: pair_dedupe.{key} missing")
if dedupe["table_entries"] <= 0 or dedupe["table_hits"] <= 0:
    sys.exit("BENCH_PR7.json: pair-dedupe table recorded no entries/hits — "
             "the name-distance pass did not go through the table")
if dedupe["table_entries"] >= report["pairs"]:
    sys.exit("BENCH_PR7.json: dedupe table computed as many entries as there "
             "are candidate pairs — no deduplication happened")

wc = report.get("warm_cache")
if not isinstance(wc, dict):
    sys.exit("BENCH_PR7.json: warm_cache section missing")
if wc.get("cache_hit") is not True:
    sys.exit("BENCH_PR7.json: warm_cache.cache_hit is not true")
if wc.get("store_identical") is not True:
    sys.exit("BENCH_PR7.json: warm cache reload is not bitwise identical")
if not finite(wc.get("cold_build_s")) or not finite(wc.get("cache_load_s")):
    sys.exit("BENCH_PR7.json: warm_cache timings missing")
if wc["cache_load_s"] >= wc["cold_build_s"]:
    sys.exit("BENCH_PR7.json: cache load is not faster than a cold build")

ckpt = report.get("checkpoint")
if not isinstance(ckpt, dict):
    sys.exit("BENCH_PR7.json: checkpoint overhead section missing")
for key in ("epochs", "fit_s", "fit_checkpointed_s", "overhead_ms_per_epoch"):
    if not finite(ckpt.get(key)):
        sys.exit(f"BENCH_PR7.json: checkpoint.{key} missing or not finite")
if ckpt["epochs"] <= 0 or ckpt["fit_s"] <= 0 or ckpt["fit_checkpointed_s"] <= 0:
    sys.exit("BENCH_PR7.json: checkpoint timings not positive")

# Sublinear candidate generation (DESIGN.md §12): the four retrieval
# metrics must be recorded, the combined candidate set must stay at or
# under 5% of the full n² space, and the ANN index must recover at
# least 98% of the brute-force oracle's top-k on the sampled slice.
ret = report.get("retrieval")
if not isinstance(ret, dict):
    sys.exit("BENCH_PR7.json: retrieval section missing (was bench run "
             "with --stress 0?)")
for key in ("index_build_s", "lsh_build_s", "queries_per_s",
            "candidates_scored_ratio", "pair_completeness",
            "gt_pair_completeness"):
    if not finite(ret.get(key)):
        sys.exit(f"BENCH_PR7.json: retrieval.{key} missing or not finite")
if ret["stress_properties"] < 100_000:
    sys.exit("BENCH_PR7.json: retrieval section must run at 100k+ properties "
             f"(got {ret['stress_properties']})")
if ret["index_build_s"] <= 0 or ret["queries_per_s"] <= 0:
    sys.exit("BENCH_PR7.json: retrieval timings not positive")
if ret["candidates_combined"] <= 0 or ret["full_space"] <= 0:
    sys.exit("BENCH_PR7.json: retrieval recorded no candidates")
if ret["candidates_scored_ratio"] > 0.05:
    sys.exit(f"BENCH_PR7.json: retrieval scored "
             f"{100 * ret['candidates_scored_ratio']:.2f}% of the full pair "
             "space — the sublinear gate is ≤ 5%")
if ret["pair_completeness"] < 0.98:
    sys.exit(f"BENCH_PR7.json: ANN pair completeness vs the brute-force "
             f"oracle is {ret['pair_completeness']:.4f} — the gate is ≥ 0.98")

vs = [report.get("vs_pr6_serial"), report.get("vs_pr6_parallel")]
recorded = [v for v in vs if v is not None]
if not recorded:
    sys.exit("BENCH_PR7.json: no vs-PR6 comparison recorded "
             "(rerun bench with the baseline's corpus: --sources 12)")
for v in recorded:
    for key in ("threads", "featurize_speedup", "train_speedup", "score_speedup"):
        if key not in v:
            sys.exit(f"BENCH_PR7.json: vs_pr6 comparison missing {key}")
print("BENCH_PR7.json OK:",
      ", ".join(f"{k}={report[k]:.3f}" for k in
                ("speedup_train", "speedup_score")),
      "| vs PR6:",
      ", ".join(f"featurize×{v['featurize_speedup']:.2f} train×{v['train_speedup']:.2f}"
                for v in recorded),
      f"| retrieval {ret['stress_properties']} props:",
      f"build {ret['index_build_s']:.1f}s,",
      f"{ret['queries_per_s']:.0f} q/s,",
      f"{100 * ret['candidates_scored_ratio']:.3f}% of n² scored,",
      f"oracle completeness {ret['pair_completeness']:.3f},",
      f"gt completeness {ret['gt_pair_completeness']:.3f}",
      f"| warm cache ×{wc['featurize_speedup']:.1f}")
EOF

echo "==> chaos stage: fault-injection suites under --features faults"
for t in 1 4; do
    echo "    LEAPME_THREADS=$t"
    LEAPME_THREADS=$t cargo test -q -p leapme-faults
    LEAPME_THREADS=$t cargo test -q -p leapme-nn --features faults --test fault_injection
    LEAPME_THREADS=$t cargo test -q -p leapme-core --features faults --test fault_injection
    LEAPME_THREADS=$t cargo test -q -p leapme-core --features faults --lib journal
    LEAPME_THREADS=$t cargo test -q -p leapme-core --features faults --lib continual
    LEAPME_THREADS=$t cargo test -q -p leapme --features faults \
        --test chaos --test robustness --test durability --test serve_chaos \
        --test continual_chaos
done

echo "==> chaos stage: faults compiled out of the release bench"
# The benchmark runs above check the same for `leapme serve` (their
# faults_disabled gate), and the drills below run a `leapme` built
# without the `faults` feature.
if ! grep -q '"faults_enabled": false' "$DRILL_DIR/BENCH_PR7.json"; then
    echo "BENCH_PR7.json does not record faults_enabled=false — the bench" \
         "binary was built with the fault hooks armed" >&2
    exit 1
fi

echo "==> durability drill: SIGKILL mid-training, resume, bitwise-identical model"
LEAPME="./target/release/leapme"

"$LEAPME" generate --domain tvs --seed 7 --out "$DRILL_DIR/ds.json" >/dev/null
"$LEAPME" embed --domains tvs --dim 8 --epochs 2 --seed 7 \
    --out "$DRILL_DIR/emb.txt" >/dev/null

# Reference: one uninterrupted serial run.
LEAPME_THREADS=1 "$LEAPME" train \
    --dataset "$DRILL_DIR/ds.json" --embeddings "$DRILL_DIR/emb.txt" \
    --seed 5 --save "$DRILL_DIR/ref.lmp" >/dev/null

# Interrupted run: per-epoch checkpoints; SIGKILL the *binary itself*
# (not a cargo wrapper) as soon as the first checkpoint lands.
LEAPME_THREADS=1 "$LEAPME" train \
    --dataset "$DRILL_DIR/ds.json" --embeddings "$DRILL_DIR/emb.txt" \
    --seed 5 --save "$DRILL_DIR/int.lmp" \
    --checkpoint "$DRILL_DIR/train.ckpt" --checkpoint-every 1 >/dev/null &
TRAIN_PID=$!
for _ in $(seq 1 300); do
    [ -f "$DRILL_DIR/train.ckpt" ] && break
    kill -0 "$TRAIN_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -9 "$TRAIN_PID" 2>/dev/null; then
    echo "    killed training (pid $TRAIN_PID) after its first checkpoint"
fi
wait "$TRAIN_PID" 2>/dev/null || true
if [ ! -f "$DRILL_DIR/train.ckpt" ] && [ ! -f "$DRILL_DIR/int.lmp" ]; then
    echo "durability drill: training died before writing a checkpoint" >&2
    exit 1
fi

# Resume from the checkpoint (or rerun if the race let it finish).
LEAPME_THREADS=1 "$LEAPME" train \
    --dataset "$DRILL_DIR/ds.json" --embeddings "$DRILL_DIR/emb.txt" \
    --seed 5 --save "$DRILL_DIR/int.lmp" \
    --checkpoint "$DRILL_DIR/train.ckpt" --resume >/dev/null
if ! cmp -s "$DRILL_DIR/ref.lmp" "$DRILL_DIR/int.lmp"; then
    echo "durability drill: resumed model differs from the uninterrupted one" >&2
    exit 1
fi
echo "    resumed model is bitwise identical to the uninterrupted run"

# A zero-second deadline must checkpoint-and-exit with code 3.
set +e
LEAPME_THREADS=1 "$LEAPME" train \
    --dataset "$DRILL_DIR/ds.json" --embeddings "$DRILL_DIR/emb.txt" \
    --seed 5 --save "$DRILL_DIR/never.lmp" --timeout-secs 0 >/dev/null 2>&1
TIMEOUT_CODE=$?
set -e
if [ "$TIMEOUT_CODE" -ne 3 ]; then
    echo "durability drill: --timeout-secs 0 exited $TIMEOUT_CODE, expected 3" >&2
    exit 1
fi
echo "    deadline exit code 3 confirmed"

echo "==> feature-cache drill: warm hit, byte-identical scores, corruption heals"
CACHE="$DRILL_DIR/features.lfc"
LEAPME_THREADS=1 "$LEAPME" match \
    --dataset "$DRILL_DIR/ds.json" --embeddings "$DRILL_DIR/emb.txt" \
    --seed 5 --feature-cache "$CACHE" --out "$DRILL_DIR/g1.json" \
    > "$DRILL_DIR/m1.out"
if ! grep -q "feature cache rebuilt" "$DRILL_DIR/m1.out"; then
    echo "feature-cache drill: cold run did not report a cache rebuild" >&2
    exit 1
fi
LEAPME_THREADS=1 "$LEAPME" match \
    --dataset "$DRILL_DIR/ds.json" --embeddings "$DRILL_DIR/emb.txt" \
    --seed 5 --feature-cache "$CACHE" --out "$DRILL_DIR/g2.json" \
    > "$DRILL_DIR/m2.out"
if ! grep -q "feature cache hit" "$DRILL_DIR/m2.out"; then
    echo "feature-cache drill: warm run did not report a cache hit" >&2
    exit 1
fi
if ! cmp -s "$DRILL_DIR/g1.json" "$DRILL_DIR/g2.json"; then
    echo "feature-cache drill: warm-cache scores differ from the cold run" >&2
    exit 1
fi
echo "    warm run hit the cache and scored byte-identically"
# Flip one byte in the middle of the cache: the CRC must catch it and
# the run must rebuild cleanly instead of loading garbage.
python3 - "$CACHE" <<'EOF'
import sys
path = sys.argv[1]
with open(path, "r+b") as f:
    data = bytearray(f.read())
    mid = len(data) // 2
    data[mid] ^= 0xFF
    f.seek(0)
    f.write(data)
EOF
LEAPME_THREADS=1 "$LEAPME" match \
    --dataset "$DRILL_DIR/ds.json" --embeddings "$DRILL_DIR/emb.txt" \
    --seed 5 --feature-cache "$CACHE" --out "$DRILL_DIR/g3.json" \
    > "$DRILL_DIR/m3.out"
if ! grep -q "feature cache rebuilt" "$DRILL_DIR/m3.out"; then
    echo "feature-cache drill: corrupted cache did not trigger a rebuild" >&2
    exit 1
fi
if ! cmp -s "$DRILL_DIR/g1.json" "$DRILL_DIR/g3.json"; then
    echo "feature-cache drill: post-corruption scores differ" >&2
    exit 1
fi
echo "    corrupted cache healed with a clean rebuild and identical scores"

echo "==> cross-thread drill: LEAPME_THREADS=4 without the cache, same bytes"
LEAPME_THREADS=4 "$LEAPME" match \
    --dataset "$DRILL_DIR/ds.json" --embeddings "$DRILL_DIR/emb.txt" \
    --seed 5 --out "$DRILL_DIR/g4.json" >/dev/null
if ! cmp -s "$DRILL_DIR/g1.json" "$DRILL_DIR/g4.json"; then
    echo "cross-thread drill: LEAPME_THREADS=4 scores differ from the serial run" >&2
    exit 1
fi
echo "    LEAPME_THREADS=4 without the cache wrote the serial graph byte for byte"

echo "==> stress smoke: 100k-property match via sublinear ANN retrieval"
# End-to-end sublinear candidate generation (DESIGN.md §12): the
# in-memory stress generator at 100k properties, HNSW-backed blocking,
# training confined to 16 explicit sources (each source holds 50 of
# ~12.5k reference properties, so a handful of sources would share no
# aligned pairs to train on). The quadratic pair space (~5 × 10⁹ pairs)
# is never enumerated — the run only works because retrieval is
# index-backed, which is exactly what this smoke asserts.
LEAPME_THREADS=1 "$LEAPME" match \
    --stress 100000 --blocking ann --blocking-k 4 \
    --train-sources 0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15 --seed 5 \
    --out "$DRILL_DIR/stress_graph.json" > "$DRILL_DIR/stress.out"
if ! grep -q "blocking(ann): scoring" "$DRILL_DIR/stress.out"; then
    echo "stress smoke: run did not report index-backed blocking stats" >&2
    cat "$DRILL_DIR/stress.out" >&2
    exit 1
fi
if ! grep -q "pair completeness" "$DRILL_DIR/stress.out"; then
    echo "stress smoke: run did not report pair completeness" >&2
    exit 1
fi
if [ ! -s "$DRILL_DIR/stress_graph.json" ]; then
    echo "stress smoke: no similarity graph written" >&2
    exit 1
fi
sed 's/^/    /' "$DRILL_DIR/stress.out" | grep "blocking(ann)"

echo "==> serve drill: concurrent requests, injected torn request, SIGTERM drain"
SERVE_PID=""
# NB: guard the kill — an empty pid would expand to `kill 0` (the whole
# process group, this script included).
trap 'if [ -n "${SERVE_PID:-}" ]; then kill "$SERVE_PID" 2>/dev/null || true; fi; rm -rf "$DRILL_DIR"' EXIT
# SIGTERM the daemon and wait at most 10 s for it to exit; one still
# running then (a drain that never started) fails the named drill
# instead of hanging the script. Leaves the exit status in SERVE_RC.
stop_serve() {
    local drill="$1"
    kill -TERM "$SERVE_PID"
    for _ in $(seq 1 100); do
        kill -0 "$SERVE_PID" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "$drill: daemon still running 10 s after SIGTERM" >&2
        kill -9 "$SERVE_PID" 2>/dev/null || true
        exit 1
    fi
    SERVE_RC=0
    wait "$SERVE_PID" || SERVE_RC=$?
    SERVE_PID=""
}
"$LEAPME" serve \
    --model "$DRILL_DIR/ref.lmp" --dataset "$DRILL_DIR/ds.json" \
    --embeddings "$DRILL_DIR/emb.txt" --addr 127.0.0.1:0 \
    --workers 2 --journal "$DRILL_DIR/serve.journal" \
    > "$DRILL_DIR/serve.out" &
SERVE_PID=$!
SERVE_URL=""
for _ in $(seq 1 300); do
    SERVE_URL="$(sed -n 's/^leapme serve listening on \(http:[^ ]*\).*/\1/p' \
        "$DRILL_DIR/serve.out" 2>/dev/null || true)"
    [ -n "$SERVE_URL" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || break
    sleep 0.1
done
if [ -z "$SERVE_URL" ]; then
    echo "serve drill: daemon never reported a listening address" >&2
    cat "$DRILL_DIR/serve.out" >&2
    exit 1
fi

python3 - "$SERVE_URL" <<'EOF'
import http.client, json, socket, sys, threading, urllib.parse

url = urllib.parse.urlparse(sys.argv[1])
host, port = url.hostname, url.port
failures = []

def roundtrip(method, path, body=None):
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request(method, path, body=body,
                     headers={"content-type": "application/json"} if body else {})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()

# Concurrent scripted requests: interleaved health probes and full
# /match runs; every /match answer must be the same bytes (single-flight
# coalescing or not, the resident generation never changes here).
match_bodies = []
lock = threading.Lock()
def health_worker():
    for _ in range(5):
        status, _ = roundtrip("GET", "/healthz")
        if status != 200:
            with lock:
                failures.append(f"/healthz returned {status} under load")
def match_worker():
    status, body = roundtrip("POST", "/match")
    with lock:
        if status != 200:
            failures.append(f"/match returned {status}")
        else:
            match_bodies.append(body)
threads = [threading.Thread(target=health_worker) for _ in range(2)]
threads += [threading.Thread(target=match_worker) for _ in range(3)]
for t in threads: t.start()
for t in threads: t.join()
if failures:
    sys.exit("serve drill: " + "; ".join(failures))
if len(set(match_bodies)) != 1:
    sys.exit("serve drill: concurrent /match responses were not identical")
json.loads(match_bodies[0])  # must be a parseable similarity graph

# Injected client fault: a torn request — headers promise a body that
# never arrives, then the peer vanishes. The server must absorb it.
s = socket.create_connection((host, port), timeout=10)
s.sendall(b"POST /score HTTP/1.1\r\ncontent-length: 400\r\n\r\n{\"pairs\":")
s.close()

# The daemon survives the fault and still answers.
status, body = roundtrip("GET", "/readyz")
if status != 200:
    sys.exit(f"serve drill: /readyz returned {status} after torn request")
ready = json.loads(body)
if ready.get("status") != "ready":
    sys.exit(f"serve drill: unexpected readiness body {ready!r}")
print(f"    {len(match_bodies)} identical /match responses"
      f" ({len(match_bodies[0])} bytes), torn request absorbed")
EOF

stop_serve "serve drill"
if [ "$SERVE_RC" -ne 0 ]; then
    echo "serve drill: daemon exited $SERVE_RC after SIGTERM (want 0)" >&2
    cat "$DRILL_DIR/serve.out" >&2
    exit 1
fi
if ! grep -q "drained cleanly" "$DRILL_DIR/serve.out"; then
    echo "serve drill: daemon did not report a clean drain" >&2
    cat "$DRILL_DIR/serve.out" >&2
    exit 1
fi
if ! grep -q '"event":"serve.shutdown"' "$DRILL_DIR/serve.journal"; then
    echo "serve drill: journal has no serve.shutdown record" >&2
    exit 1
fi

echo "==> continual drill: drifting schedule, quarantine, gated refit, journaled rollback"
# A deterministic drifting scenario: every third arrival is defective
# (the gate must quarantine it), drift crosses the PSI threshold (with
# no forced refit, a refit-start shows it did), and at least one
# challenger regresses (the holdout gate must roll it back) — all
# journaled.
CONT_EPOCHS=3
CONT_FLAGS="--properties 220 --epochs $CONT_EPOCHS --sources-per-epoch 2 \
    --properties-per-source 25 --naming-drift 0.3 --value-drift 0.4 \
    --corrupt-every 3 --label-budget 48 --seed 42"
# shellcheck disable=SC2086
"$LEAPME" continual $CONT_FLAGS \
    --journal "$DRILL_DIR/continual.journal" \
    --out "$DRILL_DIR/continual.json" > "$DRILL_DIR/continual.out"
if ! grep -q "quarantine epoch=" "$DRILL_DIR/continual.out"; then
    echo "continual drill: no source was quarantined" >&2
    cat "$DRILL_DIR/continual.out" >&2
    exit 1
fi
for event in quarantine refit-start rollback; do
    if ! grep -q "\"event\":\"$event\"" "$DRILL_DIR/continual.journal"; then
        echo "continual drill: journal has no $event record" >&2
        exit 1
    fi
done
# The report's quality curve: one point per epoch plus the initial fit,
# every F1 finite, a base fit that learned, and a final champion
# generation that only promotions moved.
python3 - "$DRILL_DIR/continual.json" "$CONT_EPOCHS" <<'EOF'
import json, math, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
epochs = int(sys.argv[2])
points = report["points"]
if len(points) != epochs + 1:
    sys.exit(f"continual drill: {len(points)} curve points for {epochs} epochs — "
             "want one per epoch plus the initial fit")
for p in points:
    # serde_json writes a non-finite f64 as null.
    if not isinstance(p["f1"], (int, float)) or not math.isfinite(p["f1"]):
        sys.exit(f"continual drill: epoch {p['epoch']} F1 is {p['f1']!r}, not finite")
if points[0]["f1"] < 0.5:
    sys.exit(f"continual drill: epoch-0 F1 {points[0]['f1']:.4f} — the initial "
             "fit never learned the base corpus")
if points[-1]["generation"] != report["promotions"]:
    sys.exit(f"continual drill: final generation {points[-1]['generation']} "
             f"disagrees with {report['promotions']} promotion(s) — rollbacks "
             "moved the champion")
EOF
sed -n 's/^\(quarantined=.*\)$/    \1/p' "$DRILL_DIR/continual.out"

# Crash-resume: a run stopped after epoch 2 and resumed over the same
# journal must reproduce the uninterrupted report byte for byte — every
# journaled decision is honored, none is journaled twice.
# shellcheck disable=SC2086
"$LEAPME" continual $CONT_FLAGS \
    --journal "$DRILL_DIR/resume.journal" --stop-after-epoch 2 \
    --out "$DRILL_DIR/partial.json" >/dev/null
# shellcheck disable=SC2086
"$LEAPME" continual $CONT_FLAGS \
    --journal "$DRILL_DIR/resume.journal" \
    --out "$DRILL_DIR/resumed.json" >/dev/null
if ! cmp -s "$DRILL_DIR/continual.json" "$DRILL_DIR/resumed.json"; then
    echo "continual drill: resumed report differs from the uninterrupted run" >&2
    exit 1
fi
for event in promote rollback; do
    UNINTERRUPTED=$(grep -c "\"event\":\"$event\"" "$DRILL_DIR/continual.journal" || true)
    RESUMED=$(grep -c "\"event\":\"$event\"" "$DRILL_DIR/resume.journal" || true)
    if [ "$UNINTERRUPTED" != "$RESUMED" ]; then
        echo "continual drill: resumed journal has $RESUMED $event record(s)," \
             "uninterrupted has $UNINTERRUPTED — decisions were re-journaled" >&2
        exit 1
    fi
done
echo "    resumed report is bitwise identical; journaled decisions honored once"

echo "==> snapshot drill: SIGKILL after integrate, restart recovers the generation bitwise"
SNAP="$DRILL_DIR/resident.snap"
"$LEAPME" serve \
    --model "$DRILL_DIR/ref.lmp" --dataset "$DRILL_DIR/ds.json" \
    --embeddings "$DRILL_DIR/emb.txt" --addr 127.0.0.1:0 \
    --workers 2 --snapshot "$SNAP" \
    > "$DRILL_DIR/snap1.out" &
SERVE_PID=$!
SERVE_URL=""
for _ in $(seq 1 300); do
    SERVE_URL="$(sed -n 's/^leapme serve listening on \(http:[^ ]*\).*/\1/p' \
        "$DRILL_DIR/snap1.out" 2>/dev/null || true)"
    [ -n "$SERVE_URL" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || break
    sleep 0.1
done
if [ -z "$SERVE_URL" ]; then
    echo "snapshot drill: daemon never reported a listening address" >&2
    cat "$DRILL_DIR/snap1.out" >&2
    exit 1
fi
python3 - "$SERVE_URL" <<'EOF'
import http.client, json, sys, urllib.parse
url = urllib.parse.urlparse(sys.argv[1])
csv = ("source,property,entity,value\n"
       "drillshop,screen size,e1,55 inch\n"
       "drillshop,resolution,e1,3840x2160\n")
conn = http.client.HTTPConnection(url.hostname, url.port, timeout=60)
conn.request("POST", "/integrate-source", body=csv,
             headers={"content-type": "text/csv"})
resp = conn.getresponse()
body = resp.read()
if resp.status != 200:
    sys.exit(f"snapshot drill: integrate returned {resp.status}: {body!r}")
if json.loads(body).get("generation") != 1:
    sys.exit(f"snapshot drill: expected generation 1, got {body!r}")
print("    integrated drillshop at generation 1")
EOF
# SIGKILL: no drain, no goodbye — the snapshot on disk is all that's left.
kill -9 "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
if [ ! -s "$SNAP" ]; then
    echo "snapshot drill: no snapshot on disk after the integration" >&2
    exit 1
fi
cp "$SNAP" "$DRILL_DIR/resident.snap.before"

"$LEAPME" serve \
    --model "$DRILL_DIR/ref.lmp" --dataset "$DRILL_DIR/ds.json" \
    --embeddings "$DRILL_DIR/emb.txt" --addr 127.0.0.1:0 \
    --workers 2 --snapshot "$SNAP" \
    > "$DRILL_DIR/snap2.out" &
SERVE_PID=$!
RECOVERED=""
for _ in $(seq 1 300); do
    RECOVERED="$(grep "recovered snapshot generation=" "$DRILL_DIR/snap2.out" 2>/dev/null || true)"
    [ -n "$RECOVERED" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || break
    sleep 0.1
done
if ! grep -q "recovered snapshot generation=1" "$DRILL_DIR/snap2.out"; then
    echo "snapshot drill: restart did not recover generation 1" >&2
    cat "$DRILL_DIR/snap2.out" >&2
    exit 1
fi
if ! cmp -s "$SNAP" "$DRILL_DIR/resident.snap.before"; then
    echo "snapshot drill: recovery modified the snapshot file" >&2
    exit 1
fi
stop_serve "snapshot drill"
echo "    restart recovered generation 1; snapshot bytes unchanged"

echo "==> registry drill: inspect verifies every section, corrupt slab and table caught, heals on restore"
REG="$DRILL_DIR/registry"
mkdir -p "$REG/alpha" "$REG/beta"
cp "$DRILL_DIR/ref.lmp" "$REG/alpha/model.lmp"
cp "$DRILL_DIR/ds.json" "$REG/alpha/dataset.json"
cp "$CACHE" "$REG/alpha/features.lfc"
cp "$DRILL_DIR/ref.lmp" "$REG/beta/model.lmp"
cp "$DRILL_DIR/ds.json" "$REG/beta/dataset.json"
cp "$DRILL_DIR/emb.txt" "$REG/beta/embeddings.txt"
"$LEAPME" registry --dir "$REG" > "$DRILL_DIR/reg1.out"
for d in alpha beta; do
    if ! grep -q "^$d: .*verified=full" "$DRILL_DIR/reg1.out"; then
        echo "registry drill: inspect did not report domain $d verified" >&2
        cat "$DRILL_DIR/reg1.out" >&2
        exit 1
    fi
done
# alpha's cache was written by `match --feature-cache`, so it carries
# the name-distance table; beta builds its store from embeddings.
if ! grep -q "^alpha: .* pair_table=[1-9]" "$DRILL_DIR/reg1.out"; then
    echo "registry drill: alpha's feature cache carries no name-distance table" >&2
    cat "$DRILL_DIR/reg1.out" >&2
    exit 1
fi
# Flip one byte in the middle of the vector slab, then of the
# name-distance table — both past everything the lazy zero-copy open
# touches. The resident fault-in would map either file happily; the
# inspect sweep must refuse each, typed. Each section is located from
# the container's section table (64-byte header, then one 64-byte entry
# per section: name, dtype, offset, length, CRC).
cp "$REG/alpha/features.lfc" "$DRILL_DIR/features.lfc.pristine"
for section in vectors pair_table; do
    python3 - "$REG/alpha/features.lfc" "$section" <<'EOF'
import struct, sys
path, want = sys.argv[1], sys.argv[2]
with open(path, "r+b") as f:
    data = bytearray(f.read())
    (count,) = struct.unpack_from("<I", data, 14)
    for i in range(count):
        entry = data[64 + 64 * i:128 + 64 * i]
        name = entry[:32].rstrip(b"\0").decode()
        offset, length = struct.unpack_from("<QQ", entry, 40)
        if name == want and length > 0:
            data[offset + length // 2] ^= 0xFF
            break
    else:
        sys.exit(f"registry drill: no {want} section in {path}")
    f.seek(0)
    f.write(data)
EOF
    set +e
    "$LEAPME" registry --dir "$REG" > "$DRILL_DIR/reg2.out" 2>&1
    REG_RC=$?
    set -e
    if [ "$REG_RC" -eq 0 ]; then
        echo "registry drill: inspect accepted a corrupted $section section" >&2
        cat "$DRILL_DIR/reg2.out" >&2
        exit 1
    fi
    if ! grep -qi "checksum" "$DRILL_DIR/reg2.out"; then
        echo "registry drill: $section corruption was not a typed checksum error" >&2
        cat "$DRILL_DIR/reg2.out" >&2
        exit 1
    fi
    cp "$DRILL_DIR/features.lfc.pristine" "$REG/alpha/features.lfc"
done
"$LEAPME" registry --dir "$REG" >/dev/null
echo "    corrupt vector slab and name-distance table each rejected with a checksum error; pristine copy verifies again"

echo "==> registry hot-swap drill: serve --models, per-domain routing, /reload swaps live"
# A second model trained at a different seed: the swap must visibly
# change what the domain serves.
LEAPME_THREADS=1 "$LEAPME" train \
    --dataset "$DRILL_DIR/ds.json" --embeddings "$DRILL_DIR/emb.txt" \
    --seed 6 --save "$DRILL_DIR/alt.lmp" >/dev/null
"$LEAPME" serve \
    --models "$REG" --addr 127.0.0.1:0 --workers 2 \
    --journal "$DRILL_DIR/regserve.journal" \
    > "$DRILL_DIR/regserve.out" &
SERVE_PID=$!
SERVE_URL=""
for _ in $(seq 1 300); do
    SERVE_URL="$(sed -n 's/^leapme serve listening on \(http:[^ ]*\).*/\1/p' \
        "$DRILL_DIR/regserve.out" 2>/dev/null || true)"
    [ -n "$SERVE_URL" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || break
    sleep 0.1
done
if [ -z "$SERVE_URL" ]; then
    echo "registry hot-swap drill: daemon never reported a listening address" >&2
    cat "$DRILL_DIR/regserve.out" >&2
    exit 1
fi
if ! grep -q "registry domains=2" "$DRILL_DIR/regserve.out"; then
    echo "registry hot-swap drill: daemon did not report 2 registry domains" >&2
    cat "$DRILL_DIR/regserve.out" >&2
    exit 1
fi
python3 - "$SERVE_URL" "$REG" "$DRILL_DIR/alt.lmp" <<'EOF'
import http.client, json, shutil, sys, urllib.parse

url = urllib.parse.urlparse(sys.argv[1])
reg_root, alt_model = sys.argv[2], sys.argv[3]

def roundtrip(method, path, body=None, model=None):
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=60)
    try:
        headers = {}
        if body:
            headers["content-type"] = "application/json"
        if model is not None:
            headers["x-leapme-model"] = model
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()

# Typed selector errors: unknown domain is a 404, garbage selector a 400.
# `/match` routes on the x-leapme-model header; `/score` also accepts
# the body's `model` field.
status, body = roundtrip("POST", "/match", model="nope")
if status != 404 or b"unknown-model" not in body:
    sys.exit(f"hot-swap drill: unknown model gave {status}: {body!r}")
status, body = roundtrip("POST", "/match", model="bad name!")
if status != 400 or b"bad-model" not in body:
    sys.exit(f"hot-swap drill: invalid selector gave {status}: {body!r}")
status, body = roundtrip("POST", "/score",
                         json.dumps({"model": "nope", "pairs": []}))
if status != 404 or b"unknown-model" not in body:
    sys.exit(f"hot-swap drill: /score body selector gave {status}: {body!r}")

# Both domains answer, routed by the header selector.
graphs = {}
for name in ("alpha", "beta"):
    status, body = roundtrip("POST", "/match", model=name)
    if status != 200:
        sys.exit(f"hot-swap drill: /match {name} returned {status}: {body[:200]!r}")
    graphs[name] = body

# Swap alpha's model on disk and /reload: the generation must bump and
# the served scores must change (the alternate seed trains a different
# network), while beta stays untouched.
shutil.copyfile(alt_model, f"{reg_root}/alpha/model.lmp")
status, body = roundtrip("POST", "/reload", json.dumps({"model": "alpha"}))
if status != 200:
    sys.exit(f"hot-swap drill: /reload returned {status}: {body!r}")
reload_info = json.loads(body)
if reload_info.get("model") != "alpha" or reload_info.get("generation", 0) < 1:
    sys.exit(f"hot-swap drill: unexpected reload response {reload_info!r}")
status, after = roundtrip("POST", "/match", model="alpha")
if status != 200:
    sys.exit(f"hot-swap drill: post-swap /match returned {status}")
if after == graphs["alpha"]:
    sys.exit("hot-swap drill: alpha served identical scores after the swap — "
             "the reload never took effect")
status, beta_after = roundtrip("POST", "/match", model="beta")
if status != 200 or beta_after != graphs["beta"]:
    sys.exit("hot-swap drill: the alpha swap disturbed beta's scores")

# /metrics carries the per-domain registry stats and counted the reload.
status, body = roundtrip("GET", "/metrics")
metrics = json.loads(body)
registry = metrics.get("registry")
if not isinstance(registry, dict) or len(registry.get("domains", [])) != 2:
    sys.exit(f"hot-swap drill: /metrics registry section wrong: {registry!r}")
if metrics.get("reloads", 0) < 1:
    sys.exit("hot-swap drill: /metrics did not count the reload")
gens = {d["name"]: d["generation"] for d in registry["domains"]}
print(f"    routed both domains, swap bumped alpha to generation "
      f"{gens.get('alpha')}, beta untouched at {gens.get('beta')}")

# A stale dataset: one byte of alpha's dataset.json changes, its length
# does not. The reload must refuse it by fingerprint while alpha keeps
# serving its previous generation byte for byte; restoring the file
# makes the next reload succeed with a bumped generation.
def generation(name):
    status, body = roundtrip("GET", "/metrics")
    return {d["name"]: d["generation"]
            for d in json.loads(body)["registry"]["domains"]}[name]

dataset_path = f"{reg_root}/alpha/dataset.json"
with open(dataset_path, "rb") as f:
    pristine = f.read()
props = {}
for inst in json.loads(pristine)["instances"]:
    names = props.setdefault(inst["source"], [])
    if inst["property"] not in names:
        names.append(inst["property"])
pairs = [[0, a, 1, b] for a in props[0][:4] for b in props[1][:4]]
score_body = json.dumps({"model": "alpha", "pairs": pairs})
status, scored = roundtrip("POST", "/score", score_body)
if status != 200:
    sys.exit(f"stale-dataset drill: /score returned {status}: {scored[:200]!r}")
gen_before = generation("alpha")

key = b'"entity": "'
at = pristine.index(key) + len(key)
edited = pristine[:at] + bytes([pristine[at] ^ 1]) + pristine[at + 1:]
with open(dataset_path, "wb") as f:
    f.write(edited)
status, body = roundtrip("POST", "/reload", json.dumps({"model": "alpha"}))
if status != 500 or b"reload-failed" not in body or b"fingerprint" not in body:
    sys.exit(f"stale-dataset drill: reload of an edited dataset gave {status}: {body!r}")
status, again = roundtrip("POST", "/score", score_body)
if status != 200 or again != scored:
    sys.exit(f"stale-dataset drill: alpha's /score changed after the refused reload "
             f"({status}): {again[:200]!r}")
if generation("alpha") != gen_before:
    sys.exit("stale-dataset drill: the refused reload moved alpha's generation")

with open(dataset_path, "wb") as f:
    f.write(pristine)
status, body = roundtrip("POST", "/reload", json.dumps({"model": "alpha"}))
if status != 200 or json.loads(body).get("generation") != gen_before + 1:
    sys.exit(f"stale-dataset drill: reload after restoring gave {status}: {body!r}")
print(f"    edited dataset refused by fingerprint, generation {gen_before} served "
      f"byte-identical /score; restored file reloaded as generation {gen_before + 1}")
EOF
if ! grep -q '"event":"reload"' "$DRILL_DIR/regserve.journal"; then
    echo "registry hot-swap drill: journal has no reload record" >&2
    exit 1
fi
stop_serve "registry hot-swap drill"
if [ "$SERVE_RC" -ne 0 ]; then
    echo "registry hot-swap drill: daemon exited $SERVE_RC after SIGTERM (want 0)" >&2
    cat "$DRILL_DIR/regserve.out" >&2
    exit 1
fi

echo "==> verify OK"
