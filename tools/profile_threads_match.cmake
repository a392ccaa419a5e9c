# Profiles a small viz grid with avf_viz_profile at --threads 1 and
# --threads 4 and fails unless the two CSV databases are byte-identical.
#
#   cmake -DPROFILE=<avf_viz_profile> -DWORK_DIR=<dir> \
#         -P profile_threads_match.cmake
foreach(threads 1 4)
  set(csv "${WORK_DIR}/profile_threads_${threads}.csv")
  execute_process(
    COMMAND "${PROFILE}" --size 64 --cpu 0.5,1 --bw 50e3,500e3
            --threads ${threads} --out "${csv}"
    RESULT_VARIABLE rc
    ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "avf_viz_profile --threads ${threads}: exit ${rc}\n${err}")
  endif()
endforeach()
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files
          "${WORK_DIR}/profile_threads_1.csv" "${WORK_DIR}/profile_threads_4.csv"
  RESULT_VARIABLE differ)
if(differ)
  message(FATAL_ERROR "--threads 1 and --threads 4 wrote different databases")
endif()
