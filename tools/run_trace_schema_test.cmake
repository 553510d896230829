# ctest driver for the trace_schema test: run a small flow with --trace and
# validate the emitted JSON-lines file. Invoked as
#   cmake -DDCO3D_CLI=... -DCHECKER=... -DWORK_DIR=... -P this-file
foreach(var DCO3D_CLI CHECKER WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND "${DCO3D_CLI}" generate dma --scale 0.02 -o "${WORK_DIR}/dma.design"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dco3d generate failed (${rc})")
endif()

execute_process(
  COMMAND "${DCO3D_CLI}" flow "${WORK_DIR}/dma.design" --grid 16 --clock 250
          --trace "${WORK_DIR}/trace.jsonl"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dco3d flow --trace failed (${rc})")
endif()

execute_process(
  COMMAND "${CHECKER}" "${WORK_DIR}/trace.jsonl"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "trace schema validation failed (${rc})")
endif()

# Negative passes: the validator must refuse (exit 1) a truncated line, an
# unknown schema, and a wrong-typed field, each derived from the first line
# of the trace just validated.
file(READ "${WORK_DIR}/trace.jsonl" trace_text)
string(FIND "${trace_text}" "\n" eol)
string(SUBSTRING "${trace_text}" 0 ${eol} first_line)
math(EXPR half "${eol} / 2")
string(SUBSTRING "${first_line}" 0 ${half} truncated)
string(REPLACE "dco3d-stage-trace-v1" "dco3d-stage-trace-v0" unknown_schema
       "${first_line}")
string(REGEX REPLACE "\"wall_ms\":[^,]*" "\"wall_ms\":\"fast\"" wrong_type
       "${first_line}")
foreach(bad truncated unknown_schema wrong_type)
  if("${${bad}}" STREQUAL "${first_line}")
    message(FATAL_ERROR "could not derive the ${bad} case from: ${first_line}")
  endif()
  file(WRITE "${WORK_DIR}/bad_${bad}.jsonl" "${${bad}}\n")
  execute_process(
    COMMAND "${CHECKER}" "${WORK_DIR}/bad_${bad}.jsonl"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "validator accepted the ${bad} trace (exit ${rc})")
  endif()
endforeach()

# N-tier pass: a 3-tier flow on a stacking-scenario workload must emit the
# per-tier metric family (tiers / ovf_tier<t> / vias_b<b> / cut_b<b>) and
# still conform to the schema.
execute_process(
  COMMAND "${DCO3D_CLI}" generate memlogic --scale 0.005
          -o "${WORK_DIR}/memlogic.design"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dco3d generate memlogic failed (${rc})")
endif()

execute_process(
  COMMAND "${DCO3D_CLI}" flow "${WORK_DIR}/memlogic.design" --grid 16
          --clock 280 --tiers 3 --trace "${WORK_DIR}/trace3.jsonl"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dco3d flow --tiers 3 --trace failed (${rc})")
endif()

execute_process(
  COMMAND "${CHECKER}" "${WORK_DIR}/trace3.jsonl"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "3-tier trace schema validation failed (${rc})")
endif()

# Search pass: a small multi-fidelity knob search must emit
# dco3d-search-trace-v1 eval/round records that conform (docs/search.md).
execute_process(
  COMMAND "${DCO3D_CLI}" search dma --scale 0.01 --grid 8 --rounds 2
          --batch 2 --init 3 --candidates 32
          --cache-dir "${WORK_DIR}/search-cache"
          --trace "${WORK_DIR}/search.jsonl"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dco3d search --trace failed (${rc})")
endif()

execute_process(
  COMMAND "${CHECKER}" "${WORK_DIR}/search.jsonl"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "search trace schema validation failed (${rc})")
endif()
