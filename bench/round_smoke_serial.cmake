# Read by ctest just before bench/round's test list: bench_round_smoke checks
# the loopback interface's byte counters, which any concurrently running socket
# test would inflate, so the smoke runs alone (RUN_SERIAL). A macro forwards
# its arguments flattened, which only the smoke's list-valued backtrace
# property (a ctest diagnostic) can notice; no directory after bench/round
# sets test properties.
macro(set_tests_properties)
  _set_tests_properties(${ARGV})
  if("${ARGV0}" STREQUAL "bench_round_smoke")
    _set_tests_properties(bench_round_smoke PROPERTIES RUN_SERIAL TRUE)
  endif()
endmacro()
