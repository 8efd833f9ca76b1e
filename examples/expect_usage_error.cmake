# Run EXE with the single argument ARG and require a usage error: exit
# code 2, a "usage:" line on stderr and nothing on stdout.
#
#   cmake -DEXE=<program> -DARG=<argument> -P expect_usage_error.cmake
execute_process(COMMAND "${EXE}" "${ARG}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "'${ARG}': exit status '${rc}', expected 2")
endif()
if(NOT err MATCHES "^usage: ")
    message(FATAL_ERROR "'${ARG}': no usage line on stderr: ${err}")
endif()
if(NOT out STREQUAL "")
    message(FATAL_ERROR "'${ARG}': unexpected stdout: ${out}")
endif()
