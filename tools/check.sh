#!/usr/bin/env bash
# Tier-2 correctness gate: static analysis + full test suite under ASan and
# UBSan, with ALT_DCHECK* guards compiled in. The plain Release tree
# ("build") is the tier-1 gate; this script adds the analysis stages and the
# instrumented configurations.
#
# Usage: tools/check.sh [--skip-release] [stage ...]
#   --skip-release  legacy alias for selecting every stage except `release`
#   stage ...       run only the named stages, in the canonical order below;
#                   default is all of them
#
# Stages (canonical order):
#   release      Release build + full ctest (tier-1; also builds the tools)
#   lint         alt_lint over src/ + stale-waiver report
#   analyze      alt_analyze lock-discipline + layering over the whole repo
#   tidy         clang-tidy over src/ (skipped when not installed)
#   asan         Release + -fsanitize=address + ALT_DCHECKS=ON, full ctest
#   chaos        chaos test in the ASan tree with a hot fault schedule
#   bench        kernel bench smoke x2 gated by bench_compare
#   serving-scale  sharded-serving bench smoke x2 gated by bench_compare on
#                throughput_rps (each run kills a shard mid-stream, then
#                warm-rejoins it, and exits nonzero unless zero requests
#                are lost and the rejoined shard recovers its share)
#   serving-elastic  shard lifecycle suite in the ASan tree: kill ->
#                rebalance (by traffic or by the next control-plane call),
#                warm rejoin and scale-up with zero lost requests, the join
#                movement bound, the queue cap's shed/recover, and
#                placements that never leave a replica without its version
#   simd-parity  kernel/parity/quant/autograd/nn/models/meta tests, plus
#                the Eq. 5 loss and both training loops' checkpoint/resume
#                (trainer/resilience), rerun with ALT_SIMD=off (the
#                guaranteed scalar contract) in the release tree
#   telemetry    a breaker-driven /healthz probe flips to 503 under injected
#                serving faults
#   ubsan        Release + -fsanitize=undefined + ALT_DCHECKS=ON, full ctest
#   tsan         Release + -fsanitize=thread, threading-related targets only
#                (kernels, obs, autograd, tensor recycling, parallel meta
#                adaptation, parallel onboarding, parallel HPO trials, and
#                the whole serving plane)
#
# ALT_SIMD set in the environment is inherited by every stage (including the
# asan/tsan ctest runs), so e.g. `ALT_SIMD=off tools/check.sh asan` sweeps
# the sanitizers over the scalar kernels.
#
# Build trees: build, build-asan, build-ubsan, build-tsan. Stages that need
# a tree build it on demand, so `tools/check.sh analyze` works standalone.
set -euo pipefail

cd "$(dirname "$0")/.."

ALL_STAGES=(release lint analyze tidy asan chaos bench serving-scale
            serving-elastic simd-parity telemetry ubsan tsan)

SELECTED=()
for arg in "$@"; do
  case "${arg}" in
    --skip-release)
      for s in "${ALL_STAGES[@]}"; do
        [[ "${s}" == "release" ]] || SELECTED+=("${s}")
      done
      ;;
    -h|--help)
      sed -n '2,40p' "$0" | sed 's/^# \{0,1\}//'
      exit 0
      ;;
    -*)
      echo "check.sh: unknown flag ${arg}" >&2
      exit 2
      ;;
    *)
      found=0
      for s in "${ALL_STAGES[@]}"; do
        [[ "${s}" == "${arg}" ]] && found=1
      done
      if [[ "${found}" -eq 0 ]]; then
        echo "check.sh: unknown stage '${arg}' (stages: ${ALL_STAGES[*]})" >&2
        exit 2
      fi
      SELECTED+=("${arg}")
      ;;
  esac
done
if [[ "${#SELECTED[@]}" -eq 0 ]]; then
  SELECTED=("${ALL_STAGES[@]}")
fi

wants() {
  local stage="$1"
  for s in "${SELECTED[@]}"; do
    [[ "${s}" == "${stage}" ]] && return 0
  done
  return 1
}

run_config() {
  local dir="$1"
  shift
  echo "==> configuring ${dir} ($*)"
  cmake -B "${dir}" -S . "$@" >/dev/null
  echo "==> building ${dir}"
  cmake --build "${dir}" -j >/dev/null
  echo "==> testing ${dir}"
  ctest --test-dir "${dir}" --output-on-failure
}

# Builds the Release tree (tools included) without running its tests; the
# lint/analyze/bench stages run binaries out of it.
ensure_release_build() {
  if [[ ! -d build ]]; then
    echo "==> configuring build (on demand)"
    cmake -B build -S . >/dev/null
  fi
  echo "==> building build"
  cmake --build build -j >/dev/null
}

ensure_asan_build() {
  if [[ ! -f build-asan/CMakeCache.txt ]]; then
    echo "==> configuring build-asan (on demand)"
    cmake -B build-asan -S . -DALT_SANITIZE=address -DALT_DCHECKS=ON \
      >/dev/null
  fi
  echo "==> building build-asan"
  cmake --build build-asan -j >/dev/null
}

if wants release; then
  run_config build
fi

if wants lint; then
  ensure_release_build
  echo "==> lint stage (alt_lint src/ + waiver report)"
  ./build/tools/alt_lint src
  ./build/tools/alt_lint --waivers src
fi

if wants analyze; then
  ensure_release_build
  echo "==> analyze stage (alt_analyze: lock discipline + layering)"
  ./build/tools/alt_analyze --layers tools/layers.conf \
    src tests bench tools examples
fi

if wants tidy; then
  if command -v clang-tidy >/dev/null 2>&1; then
    ensure_release_build
    echo "==> tidy stage (clang-tidy over src/)"
    cmake --build build --target alt_tidy
  else
    echo "==> tidy stage skipped: clang-tidy not found on PATH"
  fi
fi

if wants asan; then
  # ASAN_OPTIONS: the analysis cycle test intentionally builds and then
  # breaks a shared_ptr cycle, so leaks indicate a real bug; keep
  # detect_leaks on.
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
    run_config build-asan -DALT_SANITIZE=address -DALT_DCHECKS=ON
fi

if wants chaos; then
  ensure_asan_build
  # Chaos stage: rerun the end-to-end chaos test in the ASan tree with a
  # much hotter fault schedule than its built-in default. The pipeline must
  # still complete (degrading instead of crashing) with faults firing at
  # every armed point, and ASan must observe no leaks/UB on the error paths.
  echo "==> chaos stage (build-asan, elevated ALT_FAULTS)"
  ALT_FAULTS="serving/predict=0.05,serving/deploy=5,data/io/=0.05,hpo/tune_service/trial=3" \
  ALT_FAULTS_SEED=7 \
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
    ctest --test-dir build-asan --output-on-failure -R "^resilience_chaos_test$"
fi

if wants bench; then
  ensure_release_build
  # Bench-regression stage: run the kernel bench twice in smoke mode and
  # gate the second run against the first with bench_compare. Identical
  # machines back to back should be nowhere near the threshold; the generous
  # 50% bound (vs the 20% default used when comparing real baselines)
  # absorbs smoke-mode noise while still catching an order-of-magnitude
  # kernel regression.
  echo "==> bench stage (bench_kernels --smoke x2 through bench_compare)"
  ./build/bench/bench_kernels --smoke --out=build/BENCH_smoke_base.json >/dev/null
  ./build/bench/bench_kernels --smoke --out=build/BENCH_smoke_head.json >/dev/null
  ./build/tools/bench_compare --baseline=build/BENCH_smoke_base.json \
    --head=build/BENCH_smoke_head.json --threshold=0.5
fi

if wants serving-scale; then
  ensure_release_build
  # Serving-scale stage: two smoke runs of the sharded-serving benchmark,
  # head gated against base on throughput. Each run is itself a failover
  # drill — it kills one of the four shards mid-stream and exits nonzero
  # unless serving/rebalance_events fires and zero requests are lost — so
  # this stage guards both serving throughput and the failover contract.
  echo "==> serving-scale stage (bench_serving_scale --smoke x2 through bench_compare)"
  ./build/bench/bench_serving_scale --smoke \
    --out=build/BENCH_serving_smoke_base.json >/dev/null
  ./build/bench/bench_serving_scale --smoke \
    --out=build/BENCH_serving_smoke_head.json >/dev/null
  ./build/tools/bench_compare --baseline=build/BENCH_serving_smoke_base.json \
    --head=build/BENCH_serving_smoke_head.json --metric=throughput_rps \
    --threshold=0.5
fi

if wants serving-elastic; then
  ensure_asan_build
  # Serving-elastic stage: the shard lifecycle suite under ASan. Covers a
  # kill's rebalance, run by the dead shard's worker or by the next deploy
  # without traffic, warm kill->rejoin and scale-up with zero lost requests
  # for synchronous and enqueued requests, live workers never waiting on a
  # rebalance, the one-shot join movement bound, the queue cap's
  # shed-then-recover contract, and placement: a failed broadcast copy
  # installs nothing, a failed rebalance copy keeps its shard out of the
  # group, an undeploy clears replicas an admission displaced, and a failed
  # re-join or scale-up leaves its shard dead and off the ring for a retry.
  echo "==> serving-elastic stage (build-asan, shard lifecycle suite)"
  ./build-asan/tests/shard_test --gtest_filter=\
'*KillDrainsQueue*:*KillTriggersRebalance*:*ControlPlaneEvicts*:'\
'*Rejoin*:*AddShard*:*LiveWorkersNeverWait*:*JoinMoves*:'\
'*HardQueueCap*:*ShedsWithResourceExhausted*:*FailedBroadcastLeaves*:'\
'*FailedRebalanceCopy*:*UndeployClearsDisplaced*'
  ./build-asan/tests/serving_client_test --gtest_filter=\
'*KillRejoin*:*AddShardGrows*:*GetHealthReflects*'
fi

if wants simd-parity; then
  ensure_release_build
  # SIMD-parity stage: rerun the kernel-layer tests with the dispatcher
  # forced to the scalar contract. The parity suites inside compare the
  # levels against each other; this stage additionally proves the whole
  # kernel/quant/autograd surface, the fused LSTM layer's composition
  # reference and its recompute identity (nn_test), the batch-composition
  # property of every model preset (models_test) and the heavy preset's
  # recomputed Eq. 2 feedback gradients (meta_test), the Eq. 5 loss on a
  # soft-label column (trainer_test), and both training loops' "resume
  # equals an uninterrupted run" contract through their shared checkpoint
  # step (resilience_test) still pass when SIMD is off entirely (the
  # fallback every non-x86 or ALT_SIMD=off deployment runs).
  SIMD_PARITY_TESTS="kernels_test|kernel_parity_test|quant_test|autograd_test|nn_test|models_test|meta_test|trainer_test|resilience_test"
  echo "==> simd-parity stage (ALT_SIMD=off over kernel-layer and training-loop tests)"
  ALT_SIMD=off ctest --test-dir build --output-on-failure \
    -R "^(${SIMD_PARITY_TESTS})$"
fi

if wants telemetry; then
  ensure_asan_build
  # Telemetry stage: a /healthz probe judged by the ServingClient breakers
  # must flip to 503 when injected serving faults open one. The test honors
  # an external ALT_FAULTS, so this exercises the same env-driven arming
  # path operators use.
  echo "==> telemetry stage (build-asan, ALT_FAULTS opens a serving breaker)"
  ALT_FAULTS="serving/predict=1" \
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
    ./build-asan/tests/obs_export_test --gtest_filter='*Healthz*'
fi

if wants ubsan; then
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
    run_config build-ubsan -DALT_SANITIZE=undefined -DALT_DCHECKS=ON
fi

if wants tsan; then
  # TSan covers the compute-kernel layer (ParallelFor, the shared compute
  # pool, and the parallel GEMM/conv/elementwise kernels), the observability
  # layer (concurrent metric updates and trace spans), the autograd
  # inference guard with the fused LSTM op (shard dispatchers run
  # PredictProbs under the thread-local guard while OnScenarioArrival trains
  # on the main thread), tensor storage recycling (per-thread scopes whose
  # buffers other threads free: tensor_recycle_test, and meta_test's
  # ParallelAdaptationIsSafe, which trains on 3 pool threads and frees their
  # models on the main thread; its Eq. 2 feedback also opens the
  # thread-local recompute guard on each of them), onboarding
  # (core_test's ParallelScenarioArrivals runs core::OnboardScenario on 2
  # pool threads against one meta learner and deploys to the serving
  # plane), HPO trials that train real models on 2 tune-service threads
  # over one shared fit part (model_search_test; hpo_test's objectives are
  # toy functions), and the serving plane:
  # shard worker threads that run the failover and degradation
  # continuations (breakers, fallbacks, the client's tracer and SLO
  # tracker) and a dead shard's rebalance, kill/rejoin under load, the
  # request context crossing caller and worker threads in the traced chaos
  # suite, and the one model every replica of a scenario version shares:
  # shard workers score it at once while redeploys swap it and
  # ExportBundle serializes it (shard_test, export_bundle_test). Only the
  # threading-related targets are built and run: TSan slows everything ~10x
  # and the rest of the suite is single-threaded.
  TSAN_TARGETS=(parallel_for_test kernel_parity_test util_test hpo_test
                obs_test obs_export_test autograd_test nn_test
                tensor_recycle_test meta_test core_test model_search_test
                shard_test serving_client_test serving_test
                serving_trace_test export_bundle_test resilience_test
                resilience_chaos_test)
  echo "==> configuring build-tsan (-DALT_SANITIZE=thread -DALT_DCHECKS=ON)"
  cmake -B build-tsan -S . -DALT_SANITIZE=thread -DALT_DCHECKS=ON >/dev/null
  echo "==> building build-tsan (${TSAN_TARGETS[*]})"
  cmake --build build-tsan -j --target "${TSAN_TARGETS[@]}" >/dev/null
  echo "==> testing build-tsan"
  ctest --test-dir build-tsan --output-on-failure \
    -R "^($(IFS='|'; echo "${TSAN_TARGETS[*]}"))$"
fi

echo "==> selected stages passed (${SELECTED[*]})"
