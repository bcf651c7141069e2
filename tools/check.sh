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
#   serving-elastic  shard lifecycle suite in the ASan tree: supervisor
#                state machine, warm kill->rejoin with zero lost requests,
#                staged ring admission bounds, and shed/recover hysteresis
#   request-trace  traced-serving suite: serving_trace_test (request-context
#                propagation, segment attribution, SLO burn windows, traced
#                chaos) under TSan, then a traced bench_serving_scale smoke
#                pair through bench_compare (the run itself asserts a
#                failover-segment slow trace and bounded tracing overhead)
#   simd-parity  kernel/parity/quant tests rerun with ALT_SIMD=off (the
#                guaranteed scalar contract) in the release tree
#   telemetry    /healthz flips to 503 under injected serving faults
#   ubsan        Release + -fsanitize=undefined + ALT_DCHECKS=ON, full ctest
#   tsan         Release + -fsanitize=thread, threading-related targets only
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
            serving-elastic request-trace simd-parity telemetry ubsan tsan)

SELECTED=()
for arg in "$@"; do
  case "${arg}" in
    --skip-release)
      for s in "${ALL_STAGES[@]}"; do
        [[ "${s}" == "release" ]] || SELECTED+=("${s}")
      done
      ;;
    -h|--help)
      sed -n '2,34p' "$0" | sed 's/^# \{0,1\}//'
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
  # Serving-elastic stage: the shard lifecycle suite under ASan. Covers the
  # supervisor state machine (probe flap must never evict a healthy shard),
  # warm kill->rejoin with zero lost requests on both the direct and the
  # batched path, staged ring admission movement bounds, and the
  # shed-then-recover hysteresis contract.
  echo "==> serving-elastic stage (build-asan, shard lifecycle suite)"
  ./build-asan/tests/shard_test --gtest_filter=\
'ShardSupervisorTest.*:*Rejoin*:*Shed*:*Staged*:*AddShard*:*HardQueueCap*'
  ./build-asan/tests/serving_client_test --gtest_filter=\
'*KillRejoin*:*AddShardGrows*:*GetHealthReflects*'
fi

if wants request-trace; then
  ensure_release_build
  # Request-trace stage: the traced serving chaos suite under TSan (the
  # request context crosses the coordinator, shard dispatcher, and batch
  # flush threads — exactly the handoffs TSan can falsify), then two traced
  # smoke runs of the scale bench gated on throughput. Each bench run
  # asserts the /trace/slow contract: a retained slow trace with a failover
  # segment whose decomposition sums to its end-to-end latency.
  echo "==> request-trace stage (serving_trace_test under TSan)"
  # Reconfigure unconditionally: a build-tsan tree left by an earlier run
  # may predate this test target, and a no-op reconfigure is cheap.
  cmake -B build-tsan -S . -DALT_SANITIZE=thread -DALT_DCHECKS=ON >/dev/null
  cmake --build build-tsan -j --target serving_trace_test >/dev/null
  ./build-tsan/tests/serving_trace_test
  echo "==> request-trace stage (traced bench_serving_scale --smoke x2)"
  ./build/bench/bench_serving_scale --smoke --trace_sample=0.01     --out=build/BENCH_serving_traced_base.json >/dev/null
  ./build/bench/bench_serving_scale --smoke --trace_sample=0.01     --out=build/BENCH_serving_traced_head.json >/dev/null
  ./build/tools/bench_compare --baseline=build/BENCH_serving_traced_base.json     --head=build/BENCH_serving_traced_head.json --metric=throughput_rps     --threshold=0.5
fi

if wants simd-parity; then
  ensure_release_build
  # SIMD-parity stage: rerun the kernel-layer tests with the dispatcher
  # forced to the scalar contract. The parity suites inside compare the
  # levels against each other; this stage additionally proves the whole
  # kernel/quant/autograd surface still passes when SIMD is off entirely
  # (the fallback every non-x86 or ALT_SIMD=off deployment runs).
  SIMD_PARITY_TESTS="kernels_test|kernel_parity_test|quant_test|autograd_test"
  echo "==> simd-parity stage (ALT_SIMD=off over kernel-layer tests)"
  ALT_SIMD=off ctest --test-dir build --output-on-failure \
    -R "^(${SIMD_PARITY_TESTS})$"
fi

if wants telemetry; then
  ensure_asan_build
  # Telemetry stage: /healthz must flip to 503 when injected serving faults
  # open a circuit breaker. The test honors an external ALT_FAULTS, so this
  # exercises the same env-driven arming path operators use.
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
  # layer (concurrent metric updates and trace spans), and the autograd
  # inference guard with the fused LSTM op: shard dispatchers run
  # PredictProbs under the thread-local guard while OnScenarioArrival trains
  # on the main thread. Only the threading-related targets are built and
  # run: TSan slows everything ~10x and the rest of the suite is
  # single-threaded.
  TSAN_TARGETS=(parallel_for_test kernel_parity_test util_test hpo_test
                obs_test obs_export_test autograd_test nn_test)
  echo "==> configuring build-tsan (-DALT_SANITIZE=thread -DALT_DCHECKS=ON)"
  cmake -B build-tsan -S . -DALT_SANITIZE=thread -DALT_DCHECKS=ON >/dev/null
  echo "==> building build-tsan (${TSAN_TARGETS[*]})"
  cmake --build build-tsan -j --target "${TSAN_TARGETS[@]}" >/dev/null
  echo "==> testing build-tsan"
  ctest --test-dir build-tsan --output-on-failure \
    -R "^($(IFS='|'; echo "${TSAN_TARGETS[*]}"))$"
fi

echo "==> selected stages passed (${SELECTED[*]})"
