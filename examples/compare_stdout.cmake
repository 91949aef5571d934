# Runs one example and compares its stdout byte for byte with a golden
# file. Usage:
#   cmake -DEXAMPLE=<binary> -DGOLDEN=<file> -DACTUAL=<file> \
#         -P compare_stdout.cmake
# On a mismatch the stdout stays in ACTUAL for diffing.
execute_process(COMMAND ${EXAMPLE} OUTPUT_FILE ${ACTUAL}
                RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${exit_code}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${ACTUAL} ${GOLDEN}
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "stdout of ${EXAMPLE} differs from ${GOLDEN}; "
                      "see ${ACTUAL}")
endif()
