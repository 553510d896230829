# ctest driver for the examples_smoke test: run two examples at a tiny scale
# and require the kind parser to refuse an unknown design kind. Invoked as
#   cmake -DBAYESOPT=... -DQUICKSTART=... -P this-file
foreach(var BAYESOPT QUICKSTART)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

foreach(run "${BAYESOPT}|dma|0.01|1" "${QUICKSTART}|dma|0.01")
  string(REPLACE "|" ";" cmd "${run}")
  execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${cmd} failed (${rc})")
  endif()
endforeach()

execute_process(COMMAND "${BAYESOPT}" nosuchkind 0.01 1
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "bayesopt_tuning accepted an unknown design kind")
endif()
