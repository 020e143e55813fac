# Bench binaries land directly in build/bench/ with no CMake bookkeeping
# directories, so `for b in build/bench/*; do $b; done` runs them all.

set(DRACONIS_BENCH_LIBS
  draconis_sweep
  draconis_dag
  draconis_cluster
  draconis_fault
  draconis_baselines
  draconis_core
  draconis_workload
  draconis_p4
  draconis_trace
  draconis_net
  draconis_metrics
  draconis_stats
  draconis_sim
  draconis_common
)

function(draconis_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cc)
  target_link_libraries(${name} PRIVATE ${DRACONIS_BENCH_LIBS})
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR})
  set_target_properties(${name} PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

draconis_add_bench(fig05a_latency_500us)
draconis_add_bench(fig05b_throughput)
draconis_add_bench(fig06_synthetic_suite)
draconis_add_bench(fig07_recirculation)
draconis_add_bench(fig08_jbsq_size)
draconis_add_bench(fig09_google_trace)
draconis_add_bench(fig10_locality)
draconis_add_bench(fig11_resource)
draconis_add_bench(fig12_priority)
draconis_add_bench(fig13_gettask_overhead)
draconis_add_bench(fig14_failover)
# Not a paper figure: the PIFO switch-policy platform (docs/pifo.md);
# emits BENCH_pifo.json in CI.
draconis_add_bench(fig_pifo_policies)
# Not a paper figure: measured multi-rack scalability on the hierarchical
# topology (docs/topology.md); emits BENCH_scalability.json in CI.
draconis_add_bench(fig_scalability_racks)
# Not a paper figure: tail latency across every registered kind under Pareto
# service times (docs/workloads.md); emits BENCH_tail.json in CI.
draconis_add_bench(fig_tail_latency)
# Not a paper figure: DAG straggler hedging on/off across every registered
# kind (docs/dag.md); emits BENCH_dag.json in CI.
draconis_add_bench(fig_dag_hedging)
draconis_add_bench(tab_efficiency)
draconis_add_bench(tab_capacity)
draconis_add_bench(tab_ablation)
draconis_add_bench(tab_scalability)

draconis_add_bench(micro_core)
target_link_libraries(micro_core PRIVATE benchmark::benchmark)

# Event-core wall-clock bench; emits BENCH_sim_core.json (see EXPERIMENTS.md).
draconis_add_bench(micro_sim)

# Tracing-overhead bench; emits BENCH_trace.json (see docs/observability.md).
draconis_add_bench(micro_trace)

# An out-of-range --heavy-tail-* value is rejected even when no other
# workload override is given.
add_test(NAME bench_rejects_negative_heavy_tail_prob
         COMMAND fig05a_latency_500us --progress=false --heavy-tail-prob=-0.5)
add_test(NAME bench_rejects_negative_heavy_tail_mult
         COMMAND fig05a_latency_500us --progress=false --heavy-tail-mult=-1)
set_tests_properties(bench_rejects_negative_heavy_tail_prob PROPERTIES
                     ENVIRONMENT DRACONIS_BENCH_QUICK=1
                     PASS_REGULAR_EXPRESSION "--heavy-tail-prob must be in")
set_tests_properties(bench_rejects_negative_heavy_tail_mult PROPERTIES
                     ENVIRONMENT DRACONIS_BENCH_QUICK=1
                     PASS_REGULAR_EXPRESSION "--heavy-tail-mult must be > 0")

# A --horizon whose nanosecond count does not fit in 64 bits is rejected
# instead of wrapping to a negative horizon.
add_test(NAME bench_rejects_overflowing_horizon
         COMMAND fig05a_latency_500us --progress=false --horizon=1e10s)
set_tests_properties(bench_rejects_overflowing_horizon PROPERTIES
                     ENVIRONMENT DRACONIS_BENCH_QUICK=1
                     PASS_REGULAR_EXPRESSION "bad value for --horizon: '1e10s'")
