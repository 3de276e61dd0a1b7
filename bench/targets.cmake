# Bench binaries, one per reproduced table/figure plus two ablations.
# Defined from the top-level CMakeLists via include() so that
# ${CMAKE_BINARY_DIR}/bench contains only runnable executables.

set(AGGCACHE_BENCH_TARGETS
  bench_fig6_maintenance
  bench_sec62_memory_overhead
  bench_sec63_insert_overhead
  bench_fig7_join_pruning
  bench_fig8_growing_delta
  bench_fig9_chbench
  bench_fig10_pushdown
  bench_fig11_hot_cold
  bench_ablation_subjoins
  bench_ablation_merge_sync
  bench_ablation_main_comp
  bench_ablation_locality
  bench_parallel_scaling
  bench_recovery
  bench_overload
)

# The BENCH_*.json report builder and flag protocol shared by the bench
# binaries (bench/harness.h) and their schema test; not part of the engine.
add_library(aggcache_bench_report STATIC bench/bench_report.cc)
target_link_libraries(aggcache_bench_report PUBLIC aggcache)
target_include_directories(aggcache_bench_report PUBLIC ${CMAKE_SOURCE_DIR})

foreach(target ${AGGCACHE_BENCH_TARGETS})
  add_executable(${target} bench/${target}.cpp)
  target_link_libraries(${target} PRIVATE aggcache_bench_report)
  target_include_directories(${target} PRIVATE ${CMAKE_SOURCE_DIR})
  set_target_properties(${target} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endforeach()

target_link_libraries(bench_sec63_insert_overhead PRIVATE benchmark::benchmark)

# Differential correctness harness (src/verify): not a benchmark, but a
# runnable tool shipped next to them. See bench/verify_fuzz.cpp for usage.
add_executable(verify_fuzz bench/verify_fuzz.cpp)
target_link_libraries(verify_fuzz PRIVATE aggcache)
target_include_directories(verify_fuzz PRIVATE ${CMAKE_SOURCE_DIR})
set_target_properties(verify_fuzz PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# Concurrent stress harness: W writers + R readers + the merge daemon, with
# in-flight cross-strategy diffs and oracle checkpoints at quiesce barriers.
# Run under -DAGGCACHE_SANITIZE=thread for the TSAN proof.
add_executable(stress_concurrent bench/stress_concurrent.cpp)
target_link_libraries(stress_concurrent PRIVATE aggcache_bench_report)
target_include_directories(stress_concurrent PRIVATE ${CMAKE_SOURCE_DIR})
set_target_properties(stress_concurrent PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
