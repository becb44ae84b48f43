# Runs DRIVER and fails unless it exits 0 and its stdout is byte-identical to
# GOLDEN. The stdout lands in ACTUAL, so a failure can be diffed by hand:
#   cmake -DDRIVER=<binary> -DGOLDEN=<expected.txt> -DACTUAL=<out.txt> \
#         -P tests/check_stdout.cmake
execute_process(COMMAND ${DRIVER} OUTPUT_FILE ${ACTUAL} RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${DRIVER} exited with ${status}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${ACTUAL}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "stdout of ${DRIVER} (${ACTUAL}) differs from ${GOLDEN}")
endif()
