# Bad environment value: runs a bench with VAR=VALUE and checks that
# it exits 2 with a message naming the value, before any run of its
# plan starts. SCUSIM_SCALE is pinned to 0.01 unless it is VAR, so a
# bench that wrongly accepts the value still finishes quickly.
#
#   cmake -DBENCH=<fig10_time> -DWORKDIR=<scratch dir>
#         -DVAR=SCUSIM_JOBS -DVALUE=2x -P check_bad_env.cmake

foreach(var BENCH WORKDIR VAR VALUE)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "check_bad_env.cmake: -D${var}= is required")
    endif()
endforeach()

file(MAKE_DIRECTORY "${WORKDIR}")
set(ENV{SCUSIM_ARTIFACT_DIR} "${WORKDIR}")
set(ENV{SCUSIM_SCALE} "0.01")
set(ENV{${VAR}} "${VALUE}")
execute_process(COMMAND "${BENCH}"
                WORKING_DIRECTORY "${WORKDIR}"
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out
                RESULT_VARIABLE rc)

if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${BENCH} exited with ${rc}, want 2:\n${out}")
endif()
string(FIND "${out}" "invalid ${VAR}='${VALUE}'" at)
if(at EQUAL -1)
    message(FATAL_ERROR "no message naming ${VAR}='${VALUE}':\n${out}")
endif()
if(out MATCHES "executing")
    message(FATAL_ERROR "runs started before ${VAR} was checked:\n${out}")
endif()
message(STATUS "${VAR}=${VALUE} rejected: ${out}")
