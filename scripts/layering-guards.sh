#!/usr/bin/env bash
# The layering invariants that are enforced by grep rather than by the
# compiler, one copy each: CI's lint job and scripts/repro-smoke.sh both
# run this script. Every guard fails with the offending lines printed.
#
# Usage: scripts/layering-guards.sh
set -euo pipefail

cd "$(dirname "$0")/.."

fail() {
    echo "layering guard FAILED: $1" >&2
    exit 1
}

# One scheduler everywhere: the whole workspace runs on mcqa-runtime's
# Executor (one job queue, one pool). A rayon dependency or import
# reappearing would split the pipeline across two schedulers and hide
# stages from the metrics surface.
if grep -rn --include='Cargo.toml' --exclude-dir=target 'rayon' . ||
    grep -rn --exclude-dir=target 'use rayon' crates src tests examples; then
    fail "rayon reappeared in the workspace"
fi

# Consumers stay backend-agnostic: core programs against the VectorStore
# trait + IndexSpec only. A concrete FlatIndex reference coming back would
# re-pin the hot path to one backend. (Eval cannot name it at all: it does
# not depend on mcqa-index, which a compile_fail doctest in its lib.rs pins.)
if grep -rn 'FlatIndex' crates/core/src; then
    fail "FlatIndex leaked back into core"
fi

# Eval retrieval rides the QueryService envelope (admission queue,
# micro-batcher, latency ledger), never straight into a store's
# search_batch: a direct call would fork the query path the serving layer
# unified and bypass the bit-identity guarantees its tests pin down.
# This and the next guard stay greps: a dyn VectorStore's methods and
# IndexRegistry's inherent methods resolve without naming mcqa-index, so no
# visibility rule can stop output.indexes.expect_store(..).search_batch(..).
if grep -rnE '(expect_store|\.store)\([^)]*\)[[:space:]]*\.[[:space:]]*search_batch' crates/eval/src; then
    fail "eval bypasses the query service with a direct search_batch"
fi

# The lexical channel is served, never side-doored: eval reaches BM25 only
# through QueryMode on the request envelope, never by touching the
# registry's lexical siblings directly.
if grep -rn 'expect_lexical\|\.lexical(' crates/eval/src; then
    fail "eval reaches the lexical index outside the query service"
fi

# Every backend's F16 scan goes through the cache-aware accessor
# (EmbeddingMatrix::for_each_panel), so a lone request replays resident
# panels instead of re-decoding the matrix. The raw streaming iterator
# reappearing under crates/index would fork the scan path and silently
# reopen the batch-of-1 latency floor.
if grep -rn 'for_each_block(' crates/index/src; then
    fail "crates/index bypasses the panel cache (for_each_block)"
fi

# One ingest planner: the cold build and the incremental re-run flow
# through run_planned, so there is exactly one generation call site for the
# single bookkeeping path to guard. A second call site means a fork of the
# plan logic.
if [[ "$(grep -c 'generate_question_batch' crates/core/src/pipeline.rs)" != "1" ]]; then
    fail "pipeline.rs must call generate_question_batch exactly once (cold and incremental share the planner)"
fi
if ! grep -q 'fn run_planned' crates/core/src/pipeline.rs; then
    fail "pipeline.rs lost the shared ingest planner (run_planned)"
fi

echo "layering guards: OK"
