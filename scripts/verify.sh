#!/usr/bin/env bash
# Full verification gate: release build, test suite, lints, allocation
# regression, bench-report sanity, durability (kill-and-resume) drill.
#
#   scripts/verify.sh
#
# Run from anywhere; operates on the repository containing this script.
set -euo pipefail
cd "$(dirname "$0")/.."

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
# in-tree with equivalence tests; run them at both the serial and a
# multi-worker thread count so the dispatch seams are covered either
# way.
for t in 1 4; do
    echo "    LEAPME_THREADS=$t"
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

echo "==> bench smoke run (regenerates BENCH_PR7.json at the baseline corpus size)"
cargo run --release -p leapme-bench --bin bench -- --sources 12 --out BENCH_PR7.json >/dev/null

echo "==> service latency bench (regenerates BENCH_PR8.json)"
cargo run --release -p leapme-bench --bin latency -- \
    --clients 3 --requests 20 --out BENCH_PR8.json >/dev/null

echo "==> continual bench (regenerates BENCH_PR9.json)"
cargo run --release -p leapme-bench --bin continual -- --out BENCH_PR9.json >/dev/null 2>&1

echo "==> registry bench (regenerates BENCH_PR10.json)"
cargo run --release -p leapme-bench --bin registry -- --out BENCH_PR10.json >/dev/null 2>&1

echo "==> registry bench: v2 zero-copy open ≥ 10x v1 parse, scores bit-identical, budget held"
python3 - <<'EOF'
import json, sys
with open("BENCH_PR10.json") as f:
    report = json.load(f)
if report.get("faults_enabled") is not False:
    sys.exit("BENCH_PR10.json: faults_enabled is not false — the registry "
             "bench was built with the fault hooks armed")
if report.get("scores_bitwise_identical") is not True:
    sys.exit("BENCH_PR10.json: v1- and v2-loaded models disagree on the "
             "reference workload — zero-copy changed the numbers")
po = report.get("pair_open")
if not isinstance(po, dict):
    sys.exit("BENCH_PR10.json: pair_open section missing")
for key in ("model_v1", "model_v2", "cache_v1", "cache_v2"):
    stats = po.get(key)
    if not isinstance(stats, dict) or stats.get("min_open_us", 0) <= 0:
        sys.exit(f"BENCH_PR10.json: pair_open.{key} missing or not positive")
if po["model_v2"]["open_path"] not in ("mmap", "read"):
    sys.exit(f"BENCH_PR10.json: v2 model opened via "
             f"{po['model_v2']['open_path']!r}, not a v2 container path")
speedup = po.get("pair_open_speedup", 0)
if speedup < 10:
    sys.exit(f"BENCH_PR10.json: pair open speedup {speedup:.2f}x — the "
             "zero-copy gate is ≥ 10x over the v1 parse")
sweep = report.get("domain_sweep")
if not isinstance(sweep, list) or not sweep:
    sys.exit("BENCH_PR10.json: domain_sweep section missing")
for point in sweep:
    if point["served"] != point["domains"]:
        sys.exit(f"BENCH_PR10.json: only {point['served']} of "
                 f"{point['domains']} domains answered under the budget")
    if point["domains"] > 1 and point["evictions"] < 1:
        sys.exit(f"BENCH_PR10.json: {point['domains']} domains under a "
                 f"{point['budget_domains']}-domain budget saw no evictions "
                 "— the resident budget never engaged")
biggest = sweep[-1]
print(f"    pair open x{speedup:.1f} (v1 "
      f"{po['cache_v1']['min_open_us'] + po['model_v1']['min_open_us']:.0f}us"
      f" -> v2 "
      f"{po['cache_v2']['min_open_us'] + po['model_v2']['min_open_us']:.0f}us,"
      f" {po['cache_v2']['open_path']}) | scores bit-identical |"
      f" {biggest['domains']} domains under {biggest['budget_domains']}-domain"
      f" budget: {biggest['evictions']} evictions, all served")
EOF

echo "==> continual bench: BENCH_PR9.json records the quality curve, quarantines, decisions"
python3 - <<'EOF'
import json, math, sys
with open("BENCH_PR9.json") as f:
    report = json.load(f)
if report.get("faults_enabled") is not False:
    sys.exit("BENCH_PR9.json: faults_enabled is not false — the continual "
             "bench was built with the fault hooks armed")
curve = report.get("quality_over_time")
if not isinstance(curve, list) or len(curve) != report["epochs"] + 1:
    sys.exit("BENCH_PR9.json: quality_over_time must have one point per "
             "epoch plus the initial fit")
for p in curve:
    for key in ("epoch", "sources", "f1", "drift_features", "drift_scores",
                "quarantined", "generation"):
        if key not in p:
            sys.exit(f"BENCH_PR9.json: quality point missing {key}")
    if not math.isfinite(p["f1"]):
        sys.exit(f"BENCH_PR9.json: epoch {p['epoch']} F1 is not finite")
if curve[0]["f1"] < 0.5:
    sys.exit(f"BENCH_PR9.json: epoch-0 F1 {curve[0]['f1']:.4f} — the initial "
             "fit never learned the base corpus")
if report["quarantined"] < 1:
    sys.exit("BENCH_PR9.json: the defective arrivals were never quarantined — "
             "the validation gate did not engage")
if report["promotions"] + report["rollbacks"] < 1:
    sys.exit("BENCH_PR9.json: drift never triggered a champion/challenger "
             "decision")
if report["max_drift_features"] <= report["drift_threshold"]:
    sys.exit("BENCH_PR9.json: recorded feature drift never crossed the PSI "
             "threshold — the drifting schedule is not drifting")
last_gen = curve[-1]["generation"]
if last_gen != report["promotions"]:
    sys.exit(f"BENCH_PR9.json: final generation {last_gen} disagrees with "
             f"{report['promotions']} promotion(s) — rollbacks moved the champion")
print(f"    epoch-0 f1 {curve[0]['f1']:.4f} -> final {report['final_f1']:.4f} |"
      f" quarantined {report['quarantined']},"
      f" promotions {report['promotions']}, rollbacks {report['rollbacks']},"
      f" labels {report['labels_used']} |"
      f" peak drift {report['max_drift_features']:.3f}"
      f" (threshold {report['drift_threshold']})")
EOF

echo "==> latency bench: BENCH_PR8.json records latency, shed rate, disarmed faults"
python3 - <<'EOF'
import json, sys
with open("BENCH_PR8.json") as f:
    report = json.load(f)
if report.get("faults_enabled") is not False:
    sys.exit("BENCH_PR8.json: faults_enabled is not false — the latency "
             "bench was built with the fault hooks armed")
steady = report.get("steady")
if not isinstance(steady, dict):
    sys.exit("BENCH_PR8.json: steady section missing")
for key in ("requests", "p50_ms", "p99_ms", "mean_ms", "throughput_rps"):
    v = steady.get(key)
    if not isinstance(v, (int, float)) or v <= 0:
        sys.exit(f"BENCH_PR8.json: steady.{key} missing or not positive")
if steady["p99_ms"] < steady["p50_ms"]:
    sys.exit("BENCH_PR8.json: p99 below p50 — percentile math is broken")
over = report.get("overload")
if not isinstance(over, dict):
    sys.exit("BENCH_PR8.json: overload section missing")
for key in ("attempts", "completed", "shed_responses", "shed_rate"):
    if key not in over:
        sys.exit(f"BENCH_PR8.json: overload.{key} missing")
if over["shed_rate"] <= 0:
    sys.exit("BENCH_PR8.json: overload recorded no shed responses — "
             "admission control never engaged under the flood")
if over["shed_responses"] != over["server_shed_count"]:
    sys.exit("BENCH_PR8.json: client-observed 503s "
             f"({over['shed_responses']}) disagree with the server's shed "
             f"counter ({over['server_shed_count']}) — responses are being "
             "lost on the wire")
print(f"    steady p50 {steady['p50_ms']:.1f}ms p99 {steady['p99_ms']:.1f}ms"
      f" at {steady['throughput_rps']:.0f} req/s |"
      f" overload shed rate {100 * over['shed_rate']:.0f}%"
      f" ({over['shed_responses']} of {over['attempts']} attempts)")
EOF

echo "==> bench smoke: BENCH_PR7.json parses and records speedups, breakdown, retrieval"
python3 - <<'EOF'
import json, math, sys

with open("BENCH_PR7.json") as f:
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
for bench_json in BENCH_PR7.json BENCH_PR8.json BENCH_PR9.json BENCH_PR10.json; do
    if ! grep -q '"faults_enabled": false' "$bench_json"; then
        echo "$bench_json does not record faults_enabled=false — the bench" \
             "binary was built with the fault hooks armed" >&2
        exit 1
    fi
done

echo "==> durability drill: SIGKILL mid-training, resume, bitwise-identical model"
LEAPME="./target/release/leapme"
DRILL_DIR="$(mktemp -d)"
trap 'rm -rf "$DRILL_DIR"' EXIT

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

kill -TERM "$SERVE_PID"
SERVE_RC=0
wait "$SERVE_PID" || SERVE_RC=$?
SERVE_PID=""
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
# The same deterministic scenario BENCH_PR9.json records: every third
# arrival is defective (the gate must quarantine it), drift crosses the
# PSI threshold (refits must trigger), and at least one challenger
# regresses (the holdout gate must roll it back) — all journaled.
CONT_FLAGS="--properties 220 --epochs 3 --sources-per-epoch 2 \
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
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || true
SERVE_PID=""
echo "    restart recovered generation 1; snapshot bytes unchanged"

echo "==> registry drill: inspect verifies every section, corrupt slab caught, heals on restore"
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
# Flip one byte deep inside the vector slab — past everything the lazy
# zero-copy open touches. The resident fault-in would map this file
# happily; the inspect sweep must refuse it, typed.
cp "$REG/alpha/features.lfc" "$DRILL_DIR/features.lfc.pristine"
python3 - "$REG/alpha/features.lfc" <<'EOF'
import sys
path = sys.argv[1]
with open(path, "r+b") as f:
    data = bytearray(f.read())
    data[len(data) - 64] ^= 0xFF
    f.seek(0)
    f.write(data)
EOF
set +e
"$LEAPME" registry --dir "$REG" > "$DRILL_DIR/reg2.out" 2>&1
REG_RC=$?
set -e
if [ "$REG_RC" -eq 0 ]; then
    echo "registry drill: inspect accepted a corrupted vector slab" >&2
    cat "$DRILL_DIR/reg2.out" >&2
    exit 1
fi
if ! grep -qi "checksum" "$DRILL_DIR/reg2.out"; then
    echo "registry drill: corruption failure was not a typed checksum error" >&2
    cat "$DRILL_DIR/reg2.out" >&2
    exit 1
fi
cp "$DRILL_DIR/features.lfc.pristine" "$REG/alpha/features.lfc"
"$LEAPME" registry --dir "$REG" >/dev/null
echo "    corrupt slab rejected with a checksum error; pristine copy verifies again"

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
EOF
if ! grep -q '"event":"reload"' "$DRILL_DIR/regserve.journal"; then
    echo "registry hot-swap drill: journal has no reload record" >&2
    exit 1
fi
kill -TERM "$SERVE_PID"
SERVE_RC=0
wait "$SERVE_PID" || SERVE_RC=$?
SERVE_PID=""
if [ "$SERVE_RC" -ne 0 ]; then
    echo "registry hot-swap drill: daemon exited $SERVE_RC after SIGTERM (want 0)" >&2
    cat "$DRILL_DIR/regserve.out" >&2
    exit 1
fi

echo "==> verify OK"
