# Checks that qfc_sweep fails loudly when its report cannot be written.
# /dev/full accepts open() and fails every write with ENOSPC, so each run
# below must exit 1 and name the destination and the system error:
#   - the smoke config's report (larger than the stream buffer) fails while
#     being written;
#   - a one-instance report fits the buffer and fails only at the flush;
#   - the same report sent to stdout fails at the flush of std::cout;
#   - the --list text and the --selfcheck verdict, which go to stdout too.
# A failed open of the config or of the --out file must exit 1 and name
# the path and the system error as well.
# A crash or any other exit code fails the test.
#
#   cmake -DQFC_SWEEP=<qfc_sweep> -DCONFIG=<sweep json> -DWORK_DIR=<dir>
#         -P qfc_sweep_write_error.cmake

set(tiny_config "${WORK_DIR}/qfc_sweep_write_error.json")
file(WRITE "${tiny_config}"
     "{\"sweeps\": [{\"scenario\": \"qudit_source\", \"axes\": "
     "[{\"param\": \"dimension\", \"values\": [2]}]}]}\n")

# Runs the command after `stdout_file` with its stdout sent there, and
# requires exit code 1 plus `message` on stderr.
function(expect_failure label message stdout_file)
  execute_process(COMMAND ${ARGN}
                  OUTPUT_FILE "${stdout_file}"
                  RESULT_VARIABLE code
                  ERROR_VARIABLE err)
  if(NOT code STREQUAL "1")
    message(FATAL_ERROR "${label}: exit code '${code}', expected 1\n${err}")
  endif()
  string(FIND "${err}" "${message}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "${label}: stderr does not say '${message}':\n${err}")
  endif()
endfunction()

# The same, for a write to `destination` that fails with ENOSPC.
function(expect_write_error label destination stdout_file)
  expect_failure("${label}" "qfc_sweep: cannot write ${destination}: No space left on device"
                 "${stdout_file}" ${ARGN})
endfunction()

expect_write_error("smoke report to --out" "/dev/full" /dev/null
                   "${QFC_SWEEP}" --config "${CONFIG}" --out /dev/full)
expect_write_error("one-instance report to --out" "/dev/full" /dev/null
                   "${QFC_SWEEP}" --config "${tiny_config}" --out /dev/full)
expect_write_error("one-instance report to stdout" "<stdout>" /dev/full
                   "${QFC_SWEEP}" --config "${tiny_config}")
expect_write_error("--list to stdout" "<stdout>" /dev/full
                   "${QFC_SWEEP}" --list)
expect_write_error("--selfcheck verdict to stdout" "<stdout>" /dev/full
                   "${QFC_SWEEP}" --config "${tiny_config}" --selfcheck)

set(missing "${WORK_DIR}/qfc_sweep_write_error.missing")
expect_failure("missing config" "qfc_sweep: cannot open ${missing}/config.json: No such file or directory"
               /dev/null "${QFC_SWEEP}" --config "${missing}/config.json")
expect_failure("--out in a missing directory"
               "qfc_sweep: cannot open ${missing}/report.json: No such file or directory"
               /dev/null "${QFC_SWEEP}" --config "${tiny_config}" --out "${missing}/report.json")
