# Artifact golden: runs fig10_time at SCUSIM_SCALE=0.01 into a fresh
# directory, then checks every file named in the golden list against
# its committed SHA-256.
#
#   cmake -DFIG10=<fig10_time> -DGOLDEN=<artifacts.sha256>
#         -DWORKDIR=<scratch dir> -P check_artifacts.cmake

foreach(var FIG10 GOLDEN WORKDIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "check_artifacts.cmake: -D${var}= is required")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
set(ENV{SCUSIM_ARTIFACT_DIR} "${WORKDIR}")

function(run_bench log)
    execute_process(COMMAND ${ARGN}
                    WORKING_DIRECTORY "${WORKDIR}"
                    OUTPUT_FILE "${WORKDIR}/${log}"
                    ERROR_FILE "${WORKDIR}/${log}"
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        file(READ "${WORKDIR}/${log}" out)
        message(FATAL_ERROR "${ARGN} exited with ${rc}:\n${out}")
    endif()
endfunction()

set(ENV{SCUSIM_SCALE} 0.01)
run_bench(fig10_time.log "${FIG10}")

file(STRINGS "${GOLDEN}" lines)
set(checked 0)
set(bad "")
foreach(line IN LISTS lines)
    if(NOT line MATCHES "^([0-9a-f]+)  (.+)$")
        message(FATAL_ERROR "malformed golden line: '${line}'")
    endif()
    set(want "${CMAKE_MATCH_1}")
    set(name "${CMAKE_MATCH_2}")
    if(NOT EXISTS "${WORKDIR}/${name}")
        string(APPEND bad "\n  ${name}: not written")
        continue()
    endif()
    file(SHA256 "${WORKDIR}/${name}" got)
    if(NOT got STREQUAL want)
        string(APPEND bad "\n  ${name}: ${got}, golden ${want}")
    endif()
    math(EXPR checked "${checked} + 1")
endforeach()

if(NOT bad STREQUAL "")
    message(FATAL_ERROR "artifacts differ from ${GOLDEN}:${bad}")
endif()
message(STATUS "${checked} artifacts match ${GOLDEN}")
