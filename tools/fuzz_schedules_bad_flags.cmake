# Every malformed fuzz_schedules command line must be refused with exit
# status 2 (a usage error). A line that wrongly parses runs at most one
# case, so a regression fails fast instead of fuzzing.
#
#   cmake -DFUZZ=<path to fuzz_schedules> -P fuzz_schedules_bad_flags.cmake
foreach(flags IN ITEMS
    "--cases;abc" "--cases;-5" "--cases;2OO" "--cases;0"
    "--max-dim;0;--cases;1" "--tol;0;--cases;1"
    "--matmul-only;--conv-only;--cases;1")
  execute_process(COMMAND ${FUZZ} ${flags} --quiet
                  RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT status EQUAL 2)
    string(REPLACE ";" " " shown "${flags}")
    message(FATAL_ERROR
            "fuzz_schedules ${shown}: exit status ${status}, expected 2\n${err}")
  endif()
endforeach()
