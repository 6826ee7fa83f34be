# Checks one bench binary against its flag table (ctest label `bench_cli`):
#   - `--help` exits 0 and lists exactly the shared flags in DECLARED;
#   - every other shared flag, `--bogus`, an unwritable `--report` path (when
#     --report is declared), and each argument set in REJECT exit 2 with a
#     message that names the offending flag, and print nothing on stdout
#     (a bench prints its table only after its run).
#
#   cmake -DBIN=<binary> -DDECLARED=--out,--report [-DREJECT="--margin nan|..."]
#         -P cli_contract.cmake
#
# DECLARED is comma-separated; REJECT is a |-separated list of
# space-separated argument sets whose first flag (without any =value) must
# appear in the message.
set(shared --jobs --seed --duration --out --report --serial --input --scale --readahead
    --strict --grid --checkpoint --resume --repeat --procs --service)
string(REPLACE "," ";" declared "${DECLARED}")

execute_process(COMMAND "${BIN}" --help RESULT_VARIABLE rc OUTPUT_VARIABLE help ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--help exited ${rc}, want 0")
endif()

# Each case is a ;-list of arguments for BIN.
set(cases "--bogus")
foreach(flag IN LISTS shared)
  string(REGEX MATCH "\n  ${flag}[ ,\n]" listed "${help}")
  list(FIND declared "${flag}" at)
  if(at GREATER -1 AND NOT listed)
    message(FATAL_ERROR "--help does not list declared ${flag}:\n${help}")
  elseif(at EQUAL -1 AND listed)
    message(FATAL_ERROR "--help lists undeclared ${flag}:\n${help}")
  elseif(at EQUAL -1)
    list(APPEND cases "${flag}")
  endif()
endforeach()
# The report is written after the run, so only a check in parse() makes this
# exit before the bench does any work.
list(FIND declared --report at)
if(at GREATER -1)
  list(APPEND cases "--report /nonexistent-dir/r.jsonl")
endif()
if(DEFINED REJECT)
  string(REPLACE "|" ";" extra "${REJECT}")
  list(APPEND cases ${extra})
endif()

foreach(case IN LISTS cases)
  separate_arguments(args UNIX_COMMAND "${case}")
  list(GET args 0 first)
  string(REGEX REPLACE "=.*" "" first "${first}")
  execute_process(COMMAND "${BIN}" ${args} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err TIMEOUT 60)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "'${case}' exited ${rc}, want 2:\n${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "'${case}' exited 2 only after running:\n${out}")
  endif()
  string(FIND "${err}" "${first}" named)
  if(named EQUAL -1)
    message(FATAL_ERROR "'${case}' exited 2 without naming ${first}:\n${err}")
  endif()
endforeach()
