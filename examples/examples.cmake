# Example binaries land directly in build/examples/.

function(draconis_add_example name)
  add_executable(example_${name} ${CMAKE_SOURCE_DIR}/examples/${name}.cpp)
  target_link_libraries(example_${name} PRIVATE
    draconis_dag draconis_cluster draconis_baselines draconis_core draconis_workload
    draconis_p4 draconis_net draconis_metrics draconis_stats draconis_sim draconis_common)
  set_target_properties(example_${name}
    PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/examples OUTPUT_NAME ${name})
endfunction()

draconis_add_example(quickstart)
draconis_add_example(priority_analytics)
draconis_add_example(locality_cache)
draconis_add_example(gpu_inference)
draconis_add_example(cluster_sim)
draconis_add_example(list_schedulers)

# Smoke-test the examples as part of ctest (each asserts on its own output).
add_test(NAME example_quickstart COMMAND example_quickstart)
add_test(NAME example_gpu_inference COMMAND example_gpu_inference)
add_test(NAME example_cluster_sim
         COMMAND example_cluster_sim --utilization=0.4 --duration-ms=10)
# RackSched-EDF is RackSched with the EDF intra-node dispatcher.
add_test(NAME example_cluster_sim_racksched_edf
         COMMAND example_cluster_sim --scheduler=racksched --racksched-intra=edf
                 --utilization=0.4 --duration-ms=10)
set_tests_properties(example_cluster_sim_racksched_edf PROPERTIES
                     PASS_REGULAR_EXPRESSION "completed +[1-9][0-9]* of")
# An unknown --policy is a flag error that lists the valid policies.
add_test(NAME example_cluster_sim_rejects_unknown_policy
         COMMAND example_cluster_sim --policy=round-robin)
set_tests_properties(example_cluster_sim_rejects_unknown_policy PROPERTIES
                     PASS_REGULAR_EXPRESSION
                     "bad value for --policy: 'round-robin'; must be one of fcfs[|]priority[|]resource[|]locality")
add_test(NAME example_list_schedulers COMMAND example_list_schedulers)
# Replays the committed CSV trace (written by workload::SaveJobStream).
add_test(NAME example_cluster_sim_trace
         COMMAND example_cluster_sim --trace=${CMAKE_SOURCE_DIR}/examples/sample_trace.csv)
set_tests_properties(example_cluster_sim_trace PROPERTIES
                     PASS_REGULAR_EXPRESSION "completed +[1-9][0-9]* of")
