# Runs every example with a malformed flag and requires exit status 1 with
# the reason on stderr. Invoked by the example_bad_flags test:
#   cmake -DEXAMPLES_DIR=<directory of the example binaries> -P expect_bad_flag_exit.cmake
function(expect_exit_1 stderr_regex example)
  execute_process(COMMAND ${EXAMPLES_DIR}/${example} ${ARGN}
    RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE stderr)
  string(JOIN " " call ${example} ${ARGN})
  if(NOT status STREQUAL "1")
    message(FATAL_ERROR "${call}: expected exit status 1, got '${status}'\n${stderr}")
  endif()
  if(NOT stderr MATCHES "${stderr_regex}")
    message(FATAL_ERROR "${call}: stderr does not match '${stderr_regex}':\n${stderr}")
  endif()
endfunction()

expect_exit_1("^example_grid_scheme: .*--side is not an integer: x"
  example_grid_scheme --side x)
expect_exit_1("^example_grid_scheme: .*--side must lie in \\[1, 4096\\], got 0"
  example_grid_scheme --side 0)
expect_exit_1("^example_sensor_lifetime: .*--radio is not a finite number: 1e400"
  example_sensor_lifetime --radio 1e400)
expect_exit_1("^example_isp_fairshare: .*--customers is not an integer: x"
  example_isp_fairshare --customers x)
expect_exit_1("^example_locality_limits: .*--d is not an integer: x"
  example_locality_limits --d x)
expect_exit_1("^example_mmlp_solve: .*--side is not an integer: x"
  example_mmlp_solve --side x)
expect_exit_1("^error: unknown flag --no-such-flag"
  example_quickstart --no-such-flag)
