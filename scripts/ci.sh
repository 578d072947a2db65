#!/usr/bin/env bash
# Tier-1 verification: configure, build, run the full test suite.
# Exits non-zero on any configure/build/test failure.
set -euo pipefail

cd "$(dirname "$0")/.."

# Scrub persistent-program-database artifacts so every stage starts cold:
# a stale store must never leak analysis state across CI stages (or across
# reruns on a dirty tree).
scrub_pdb_cache() {
  rm -rf .pscache
  find . -name '*.pspdb' -not -path './build*' -delete 2>/dev/null || true
  find build build-tsan build-asan -name '*.pspdb' -delete 2>/dev/null || true
}
scrub_pdb_cache

cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure
scrub_pdb_cache

# Warm-start stage: cold-analyze every deck and persist its store + cold
# snapshot, then reopen every store in a FRESH process and require pure
# reuse (zero live dependence tests, zero quarantines) with byte-identical
# snapshots. Two separate invocations so nothing warm survives in memory.
mkdir -p .pscache
./build/tools/pdb_check save .pscache
./build/tools/pdb_check open .pscache
scrub_pdb_cache

# Fuzz smoke stage: a fixed-seed, elevated-iteration pass of the robustness
# harness (mutated decks, fault-injected transforms, starvation budgets).
# Deterministic — the seeds are baked into the tests; only the iteration
# count is raised beyond the ctest default.
PS_FUZZ_ITERS="${PS_FUZZ_ITERS:-1500}" ./build/tests/fuzz_robustness_test

# Parallel-path fuzz smoke: the same fixed-seed corpus, but every
# whole-program analysis routed through the task-DAG engine at 4 threads.
PS_FUZZ_ITERS="${PS_FUZZ_ITERS:-1500}" PS_FUZZ_PARALLEL=4 \
  ./build/tests/fuzz_robustness_test

# Dynamic-validation stage: the trace-backed deletion checker. The suite
# injects known-unsound deletions on every deck and requires them refuted
# and auto-restored byte-identically at 1/2/4/8 threads; then the fuzz
# corpus reruns with periodic validateDeletions passes interleaved
# (PS_VALIDATE=1) so mutated programs exercise the failed-run and
# budget-overflow degradation paths.
./build/tests/validation_test
PS_FUZZ_ITERS="${PS_FUZZ_ITERS:-1500}" PS_VALIDATE=1 \
  ./build/tests/fuzz_robustness_test

# OpenMP-emission stage: the round-trip suite (emit -> re-lex to exact
# directive payloads -> directive-stripped re-analysis byte-identical at
# 1/2/4/8 threads, on every deck), then the corpus smoke: ps_emit --check
# marks every deck the way a workshop user would (plus refusal fodder),
# emits, and exits non-zero on any load failure, round-trip mismatch or
# silently dropped loop.
./build/tests/emission_test
./build/tools/ps_emit --check
scrub_pdb_cache

# AddressSanitizer + UndefinedBehaviorSanitizer stage: rebuild the
# interpreter-facing suites with -fsanitize=address,undefined,pointer-subtract
# and _GLIBCXX_ASSERTIONS (PS_ASAN) and run them. The interpreter indexes its dense race-detector and trace
# tables by raw storage serials and offsets, and the incremental dependence
# update searches loop nest paths by iterator range (ped_session_test drives
# that search through an edit); an out-of-bounds read, a range whose ends
# belong to two containers, or undefined arithmetic fails CI here. The edit
# storm runs one reduced pass (two edits per deck) to keep the stage short.
cmake -B build-asan -S . -DPS_ASAN=ON
cmake --build build-asan -j --target interp_test interp_golden_test validation_test emission_test edit_storm_test ped_session_test
export ASAN_OPTIONS=detect_invalid_pointer_pairs=1
./build-asan/tests/interp_test
./build-asan/tests/interp_golden_test
./build-asan/tests/ped_session_test
./build-asan/tests/validation_test
./build-asan/tests/emission_test
PS_STORM_EDITS=2 ./build-asan/tests/edit_storm_test
unset ASAN_OPTIONS
scrub_pdb_cache

# ThreadSanitizer stage: rebuild the concurrency-sensitive targets with
# -fsanitize=thread and run the parallel determinism suites (whole-program
# batch + incremental edit storm) plus the DepMemo stress test. Any data
# race in the pool, the task DAG, the sharded memo, the pipelined summary
# nodes or the per-nest fan-out fails CI here. (Under TSan the lock-free
# substrate promotes its orderings to seq_cst — see support/lockfree.h —
# because TSan does not model standalone fences; the structures and their
# interleavings are otherwise the ones production runs.)
cmake -B build-tsan -S . -DPS_TSAN=ON
cmake --build build-tsan -j --target parallel_analysis_test edit_storm_test depmemo_concurrent_test warm_start_test pdb_persistence_test validation_test lockfree_test emission_test
# Lock-free substrate stress: Chase–Lev owner-vs-thieves and resize-under-
# steal, MPMC channel loss/dup, epoch-reclamation use-after-retire canaries,
# DepMemo invalidation storms on BOTH backends.
./build-tsan/tests/lockfree_test
./build-tsan/tests/depmemo_concurrent_test
./build-tsan/tests/parallel_analysis_test
./build-tsan/tests/edit_storm_test
# Validation under TSan: the deck suite re-analyzes through the task pool
# at 1/2/4/8 threads with trace replay and auto-restores interleaved — any
# race between the validator's graph writes and the analysis engine fails
# here.
./build-tsan/tests/validation_test
# Emission under TSan on the lock-free substrate: round-trip re-analysis
# fans the directive-stripped deck through the task pool at 1/2/4/8
# threads while relative validation replays traces — any race between the
# emitter's snapshotting and the analysis engine fails here.
PS_LOCKFREE=1 ./build-tsan/tests/emission_test
# Warm-open settle path (dirty-set re-analysis seeded from disk) and the
# corruption-recovery suite, both under TSan: rebinding and quarantine run
# concurrently with the task pool.
./build-tsan/tests/warm_start_test
./build-tsan/tests/pdb_persistence_test
scrub_pdb_cache

# Server-storm stage: the multi-session analysis server under TSan. N
# concurrent scripted sessions share one store image, one warm memo (with
# per-session views) and one task pool; every session's final graphs must
# be byte-identical to the solo baseline at 1/2/4/8 threads. The atomic-
# write suite hammers one store path from many threads (the torn-save
# regression) and requires every surviving store to open clean with zero
# quarantined frames.
cmake --build build-tsan -j --target server_storm_test io_atomic_test
./build-tsan/tests/io_atomic_test
./build-tsan/tests/server_storm_test
scrub_pdb_cache

# Substrate A/B stage: one pass of the storm suites pinned to each
# substrate. PS_LOCKFREE=1 is the default path (Chase–Lev deques +
# open-addressing memo); PS_LOCKFREE=0 is the mutex baseline that must stay
# green for bench_contention comparisons and substrate bisection.
for lf in 1 0; do
  PS_LOCKFREE=$lf ./build-tsan/tests/edit_storm_test
  PS_LOCKFREE=$lf ./build-tsan/tests/server_storm_test
  scrub_pdb_cache
done
