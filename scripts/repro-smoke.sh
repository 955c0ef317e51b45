#!/usr/bin/env bash
# Smoke-test the end-to-end paper pipeline: run the `repro` binary over every
# table/figure at ~1% of paper scale with a fixed seed, then the Figure-1
# stage census, one incremental ingest and the golden artifact census. Any
# panic, stage failure, or non-zero exit fails the script (and CI). What
# `repro` prints from deterministic rows (retrieval modes, flag refusals,
# the ingest census) is asserted by `cargo test -p mcqa-bench`, not here;
# speed is measured by `perfbench/`.
#
# Usage: scripts/repro-smoke.sh [scale] [seed]
set -euo pipefail

SCALE="${1:-0.01}"
SEED="${2:-42}"

cd "$(dirname "$0")/.."

echo "== repro smoke: layering guards =="
scripts/layering-guards.sh

echo "== repro smoke: a bad command exits 2 before any pipeline runs, help exits 0 =="
# The parser's refusals are unit-tested; this pins the process-level half:
# exit 2 with the usage table on stderr and no pipeline built, 0 for `help`.
RC=0
BAD_OUT="$(cargo run --release -q -p mcqa-bench --bin repro -- serve-bench 2>&1)" || RC=$?
if [[ "${RC}" -ne 2 ]] || ! grep -qF 'valid flags:' <<<"${BAD_OUT}" ||
    grep -qF '[repro] building pipeline' <<<"${BAD_OUT}"; then
    echo "repro smoke FAILED: 'repro serve-bench' exited ${RC} (want 2, usage table, no pipeline run)" >&2
    exit 1
fi
HELP_OUT="$(cargo run --release -q -p mcqa-bench --bin repro -- help)"
if ! grep -qF 'commands: all table1' <<<"${HELP_OUT}"; then
    echo "repro smoke FAILED: 'repro help' does not print the usage table" >&2
    exit 1
fi

echo "== repro smoke: scale=${SCALE} seed=${SEED} =="
ALL_OUT="$(cargo run --release -q -p mcqa-bench --bin repro -- all --scale "${SCALE}" --seed "${SEED}")"
echo "${ALL_OUT}"

echo "== repro smoke: stage census (fig1) =="
FIG1_OUT="$(cargo run --release -q -p mcqa-bench --bin repro -- fig1 --scale "${SCALE}" --seed "${SEED}" 2>&1)"
echo "${FIG1_OUT}"
# The workflow must report the paper's Figure-1 stage census — one
# index-build row per store — with the throughput columns recorded by the
# runtime metrics, then the model ledger's line per role the pipeline
# called.
for stage in acquire parse chunk index-chunks generate+judge traces \
    embed-traces index-traces-detailed index-traces-focused index-traces-efficient \
    out/s '[models] backend=sim role=teacher' '[models] backend=sim role=judge'; do
    if ! grep -qF "${stage}" <<<"${FIG1_OUT}"; then
        echo "repro smoke FAILED: fig1 stage report is missing '${stage}'" >&2
        exit 1
    fi
done

# The evaluation runs on the same scheduler: `repro all` must surface both
# the pipeline stages (generate+judge included) and the eval stages via
# runtime StageMetrics. That the eval-retrieve row is measured (items and
# seconds both non-zero) is asserted in mcqa-eval's tests.
for stage in generate+judge eval-retrieve eval-assemble eval-answer out/s; do
    if ! grep -qF "${stage}" <<<"${ALL_OUT}"; then
        echo "repro smoke FAILED: 'repro all' stage report is missing '${stage}'" >&2
        exit 1
    fi
done

echo "== repro smoke: incremental ingest (single-document edit) =="
# The census arithmetic (no-op batch skips everything, one edit re-runs only
# its own slices) is asserted in Rust; this pins that the binary reports the
# incremental re-run identical to a cold rebuild, and exits 0 doing so.
INGEST_OUT="$(cargo run --release -q -p mcqa-bench --bin repro -- ingest --scale "${SCALE}" --seed "${SEED}" --edits 1 2>&1)"
echo "${INGEST_OUT}" | grep '\[ingest\]'
if ! grep -qF '[ingest] verify=identical' <<<"${INGEST_OUT}"; then
    echo "repro smoke FAILED: single-edit ingest did not verify against the cold rebuild" >&2
    exit 1
fi

echo "== repro smoke: golden artifact census (scale 0.02, seed 42) =="
# The golden determinism bar: the sim-backend generation artifacts at the
# pinned (scale, seed) must stay byte-identical across refactors. Census
# and question/trace hashes captured at commit d85ebd5 (PR 3, before the
# model roles shared one completion API), the registry hash (every stored vector and lexical sibling) from the
# commit before featurisation went single-pass; tests/golden.rs pins the
# same three hashes at the tiny config.
GOLDEN_OUT="$(cargo run --release -q -p mcqa-bench --bin repro -- fig1 --scale 0.02 --seed 42 2>&1)"
GOLDEN_CENSUS="451 docs → 3760 chunks → 3760 candidates → 430 accepted"
if ! grep -qF "${GOLDEN_CENSUS}" <<<"${GOLDEN_OUT}"; then
    echo "repro smoke FAILED: scale-0.02 census drifted from the golden run (${GOLDEN_CENSUS})" >&2
    grep -oE '[0-9]+ docs → [0-9]+ chunks → [0-9]+ candidates → [0-9]+ accepted' <<<"${GOLDEN_OUT}" >&2 || true
    exit 1
fi
GOLDEN_HASHES="[golden] q_hash=0xb5f207d6fa4a7c92 t_hash=0xfa0e82468acfb54c registry_hash=0x7cf1025c90e0e835"
if ! grep -qF "${GOLDEN_HASHES}" <<<"${GOLDEN_OUT}"; then
    echo "repro smoke FAILED: scale-0.02 artifacts are no longer byte-identical to the golden run (${GOLDEN_HASHES})" >&2
    grep -F '[golden]' <<<"${GOLDEN_OUT}" >&2 || true
    exit 1
fi

echo "== repro smoke: model-layer call-ledger census =="
# `repro models` is the cost-accounting surface: every role must report
# greppable calls / token-estimate / cache-hit-rate key=value lines, and
# the evaluation must actually exercise the response cache (the no-math
# re-answer pass is served from it).
MODELS_OUT="$(cargo run --release -q -p mcqa-bench --bin repro -- models --scale "${SCALE}" --seed "${SEED}" 2>&1)"
echo "${MODELS_OUT}" | grep '\[models\]'
for role in teacher judge classifier answerer total; do
    LINE="$(grep -F "[models] backend=sim role=${role} " <<<"${MODELS_OUT}" || true)"
    if [[ -z "${LINE}" ]]; then
        echo "repro smoke FAILED: no ledger line for role=${role}" >&2
        exit 1
    fi
    for key in calls= batches= cache_hits= hit_rate= tokens_in= tokens_out=; do
        if ! grep -qF "${key}" <<<"${LINE}"; then
            echo "repro smoke FAILED: role=${role} ledger line is missing '${key}'" >&2
            exit 1
        fi
    done
done
ANSWER_HITS="$(grep -F '[models] backend=sim role=answerer ' <<<"${MODELS_OUT}" | grep -oE 'cache_hits=[0-9]+' | cut -d= -f2)"
if [[ "${ANSWER_HITS}" -le 0 ]]; then
    echo "repro smoke FAILED: the response cache never served an answer (hits=${ANSWER_HITS})" >&2
    exit 1
fi

echo "== repro smoke: OK =="
