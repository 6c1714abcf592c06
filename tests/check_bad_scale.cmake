# Bad SCUSIM_SCALE: runs a bench with SCUSIM_SCALE=1/20 and checks
# that it exits 2 with a message naming the value, before any run of
# its plan starts.
#
#   cmake -DBENCH=<fig10_time> -DWORKDIR=<scratch dir>
#         -P check_bad_scale.cmake

foreach(var BENCH WORKDIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "check_bad_scale.cmake: -D${var}= is required")
    endif()
endforeach()

file(MAKE_DIRECTORY "${WORKDIR}")
set(ENV{SCUSIM_ARTIFACT_DIR} "${WORKDIR}")
set(ENV{SCUSIM_SCALE} "1/20")
execute_process(COMMAND "${BENCH}"
                WORKING_DIRECTORY "${WORKDIR}"
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out
                RESULT_VARIABLE rc)

if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${BENCH} exited with ${rc}, want 2:\n${out}")
endif()
if(NOT out MATCHES "invalid SCUSIM_SCALE='1/20'")
    message(FATAL_ERROR "no message naming SCUSIM_SCALE='1/20':\n${out}")
endif()
if(out MATCHES "executing")
    message(FATAL_ERROR "runs started before the scale was checked:\n${out}")
endif()
message(STATUS "SCUSIM_SCALE=1/20 rejected: ${out}")
