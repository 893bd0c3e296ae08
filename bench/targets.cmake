# Bench targets are defined from the top-level CMakeLists (via include())
# so that ${CMAKE_BINARY_DIR}/bench contains *only* the bench executables:
# `for b in build/bench/*; do $b; done` then reruns the paper's evaluation
# with no stray CMake artifacts in the glob. bench_ablation_slicing,
# bench_feedback and bench_streams exit 1 when their acceptance bar fails;
# bench_smoke exits 1 on a checksum mismatch.
function(ssp_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE ssp_harness)
  set_target_properties(${name} PROPERTIES RUNTIME_OUTPUT_DIRECTORY
                        ${CMAKE_BINARY_DIR}/bench)
endfunction()

ssp_add_bench(bench_fig2_ideal_memory)
ssp_add_bench(bench_table2_slices)
ssp_add_bench(bench_fig8_speedup)
ssp_add_bench(bench_fig9_miss_breakdown)
ssp_add_bench(bench_fig10_cycle_breakdown)
ssp_add_bench(bench_hand_vs_auto)
ssp_add_bench(bench_ablation_chaining)
ssp_add_bench(bench_ablation_sched)
ssp_add_bench(bench_ablation_slicing)
ssp_add_bench(bench_ablation_trigger)
ssp_add_bench(bench_ablation_throttle)
ssp_add_bench(bench_sweep_memlat)
ssp_add_bench(bench_sweep_contexts)
ssp_add_bench(bench_smoke)
ssp_add_bench(bench_feedback)
ssp_add_bench(bench_streams)
