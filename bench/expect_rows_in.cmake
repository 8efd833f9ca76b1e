# Run EXE with ARG and require every line it prints to appear verbatim,
# as a whole line, in DOC (for example the "ours" rows that
# `paper_eval --markdown` prints must match EXPERIMENTS.md).
#
#   cmake -DEXE=<program> -DARG=<argument> -DDOC=<file> -P expect_rows_in.cmake
execute_process(COMMAND "${EXE}" "${ARG}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out)
if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "'${EXE} ${ARG}': exit status '${rc}'")
endif()
file(READ "${DOC}" doc)
set(doc "\n${doc}\n")
string(REPLACE "\n" ";" lines "${out}")
set(checked 0)
foreach(line IN LISTS lines)
    if(line STREQUAL "")
        continue()
    endif()
    string(FIND "${doc}" "\n${line}\n" pos)
    if(pos EQUAL -1)
        message(SEND_ERROR "not in ${DOC}: ${line}")
    endif()
    math(EXPR checked "${checked} + 1")
endforeach()
if(checked EQUAL 0)
    message(FATAL_ERROR "'${EXE} ${ARG}' printed no rows")
endif()
