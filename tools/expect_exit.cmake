# Runs TOOL with ARGS (one space-separated string) and fails unless it
# exits with EXPECT, e.g. 2 for a malformed flag rather than an abort.
#
#   cmake -DTOOL=<binary> "-DARGS=--count abc" -DEXPECT=2 -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${TOOL}" ${args}
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${TOOL} ${ARGS}: exit ${rc}, want ${EXPECT}\n${err}")
endif()
