# Runs each bench binary with --json=<file> and aggregates the outputs
# into one JSON document: { "<bench name>": <google-benchmark output>, ... }.
#
# Invoked by the `bench_all` custom target (see CMakeLists.txt) as:
#   cmake -DBENCH_DIR=<bindir> -DBENCH_BINARIES=a,b,c -DOUTPUT=<path>
#         [-DBENCH_SHORT_BINARIES=d,e -DBENCH_SHORT_MIN_TIME=<seconds>]
#         -P bench_all.cmake
# BENCH_BINARIES run at the benchmark library's default min time;
# BENCH_SHORT_BINARIES get --benchmark_min_time=BENCH_SHORT_MIN_TIME (a
# plain number of seconds: the 1.7 library rejects an "s" suffix).
#
# Intentionally a script, not a test: benchmarks are run manually or by the
# CI bench-smoke job, never as part of ctest.

if(NOT BENCH_DIR OR NOT BENCH_BINARIES OR NOT OUTPUT)
  message(FATAL_ERROR "bench_all.cmake needs -DBENCH_DIR, -DBENCH_BINARIES, -DOUTPUT")
endif()
if(BENCH_SHORT_BINARIES AND NOT BENCH_SHORT_MIN_TIME)
  message(FATAL_ERROR "bench_all.cmake: BENCH_SHORT_BINARIES needs BENCH_SHORT_MIN_TIME")
endif()

set(_doc "{\n")
set(_sep "")

# Runs one driver and appends its JSON report to _doc.
macro(_bench_all_run bench)
  set(_json "${BENCH_DIR}/${bench}.json")
  message(STATUS "bench_all: running ${bench} ${ARGN}")
  execute_process(
    COMMAND "${BENCH_DIR}/${bench}" "--json=${_json}" ${ARGN}
    RESULT_VARIABLE _rc)
  if(NOT _rc EQUAL 0)
    message(FATAL_ERROR "bench_all: ${bench} exited with ${_rc}")
  endif()
  file(READ "${_json}" _content)
  string(STRIP "${_content}" _content)
  string(APPEND _doc "${_sep}\"${bench}\": ${_content}")
  set(_sep ",\n")
endmacro()

string(REPLACE "," ";" _benches "${BENCH_BINARIES}")
foreach(bench IN LISTS _benches)
  _bench_all_run(${bench})
endforeach()
string(REPLACE "," ";" _short_benches "${BENCH_SHORT_BINARIES}")
foreach(bench IN LISTS _short_benches)
  _bench_all_run(${bench} "--benchmark_min_time=${BENCH_SHORT_MIN_TIME}")
endforeach()
string(APPEND _doc "\n}\n")

file(WRITE "${OUTPUT}" "${_doc}")
message(STATUS "bench_all: wrote ${OUTPUT}")
