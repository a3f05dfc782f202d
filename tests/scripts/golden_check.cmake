# Runs sensrep_cli once and byte-compares its CSV with a committed golden.
#
#   cmake -DCLI=<sensrep_cli> -DARGS=<;-list of flags> -DOUT=<csv>
#         -DGOLDEN=<golden csv> -P golden_check.cmake
#
# The goldens are the behaviour contract: any change to a default or chaos
# run's observable result fails this check.
foreach(var CLI ARGS OUT GOLDEN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_check: ${var} is not set")
  endif()
endforeach()

# sensrep_cli appends to an existing CSV; start from an empty file.
file(REMOVE ${OUT})
execute_process(COMMAND ${CLI} ${ARGS} --quiet --csv=${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "golden_check: sensrep_cli exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  file(READ ${OUT} got)
  file(READ ${GOLDEN} want)
  message(FATAL_ERROR "golden_check: ${OUT} differs from ${GOLDEN}\n"
                      "got:\n${got}\nwant:\n${want}")
endif()
