# Adds the benchmark's targets to the top-level build without editing it:
#
#   cmake -S . -B .bench_build -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_INCLUDE=$PWD/ggbench/graphguard_bench.cmake
#
# CMake includes this file at the end of the top-level project() call,
# before the compile options are set and before any library target
# exists, so the targets are defined by a call deferred to the end of the
# top-level CMakeLists.txt. They then build with the flags and options
# of the rest of the tree (PEEGA_SANITIZE, PEEGA_WARNINGS_AS_ERRORS, ...)
# and link bench/'s bench_common, as repro_add_bench does.
if(NOT CMAKE_CURRENT_SOURCE_DIR STREQUAL CMAKE_SOURCE_DIR)
  return()
endif()
set(GGBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(ggbench_add_targets)
  add_library(ggbench_support STATIC ${GGBENCH_DIR}/bench_support.cc)
  target_link_libraries(ggbench_support PUBLIC bench_common)

  add_executable(graphguard_bench ${GGBENCH_DIR}/graphguard_bench.cc)
  target_link_libraries(graphguard_bench PRIVATE ggbench_support repro_serve
                        repro_parallel)

  add_executable(bench_support_test ${GGBENCH_DIR}/bench_support_test.cc)
  target_link_libraries(bench_support_test PRIVATE ggbench_support
                        repro_parallel GTest::gtest_main)
  add_test(NAME bench_support_test COMMAND bench_support_test)
  add_test(NAME ggbench_compare_test
           COMMAND python3 -B -m unittest compare_test
           WORKING_DIRECTORY ${GGBENCH_DIR})
endfunction()

cmake_language(DEFER CALL ggbench_add_targets)
