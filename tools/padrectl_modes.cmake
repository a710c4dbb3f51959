# Runs `padrectl run` once per integration mode and checks that the
# split footer names the split the mode forces: cpu-only and gpu-dedup
# compress on the CPU backend, gpu-compress and gpu-both on the GPU.
# The backend that ran no chunks must print its rate as n/a, not the
# tuner's seed quote. Then checks that a cpu-only --backends list
# forces the CPU split whether it comes before or after --split gpu.
#
# Usage: cmake -DPADRECTL=/path/to/padrectl -P padrectl_modes.cmake
foreach(Case cpu-only=cpu gpu-dedup=cpu gpu-compress=gpu gpu-both=gpu)
  string(REPLACE "=" ";" Parts "${Case}")
  list(GET Parts 0 Mode)
  list(GET Parts 1 Split)
  execute_process(COMMAND "${PADRECTL}" run --bytes 1048576 --mode ${Mode}
                  OUTPUT_VARIABLE Out ERROR_VARIABLE Err
                  RESULT_VARIABLE Status)
  if(NOT Status EQUAL 0)
    message(FATAL_ERROR "padrectl run --mode ${Mode} failed (${Status}):\n"
                        "${Err}")
  endif()
  if(NOT Out MATCHES "backend split \\(${Split}\\)")
    message(FATAL_ERROR "--mode ${Mode}: footer does not name the forced "
                        "'${Split}' split:\n${Out}")
  endif()
  if(Split STREQUAL "cpu")
    set(Idle "gpu n/a")
  else()
    set(Idle "cpu n/a")
  endif()
  if(NOT Out MATCHES "observed rates: [^\n]*${Idle}")
    message(FATAL_ERROR "--mode ${Mode}: the idle backend's rate is not "
                        "'${Idle}':\n${Out}")
  endif()
  message(STATUS "--mode ${Mode}: backend split (${Split})")
endforeach()

foreach(Order "--split gpu --backends cpu" "--backends cpu --split gpu")
  separate_arguments(Flags UNIX_COMMAND "${Order}")
  execute_process(COMMAND "${PADRECTL}" run --bytes 1048576 ${Flags}
                  OUTPUT_VARIABLE Out ERROR_VARIABLE Err
                  RESULT_VARIABLE Status)
  if(NOT Status EQUAL 0)
    message(FATAL_ERROR "padrectl run ${Order} failed (${Status}):\n"
                        "${Err}")
  endif()
  if(NOT Out MATCHES "backend split \\(cpu\\)")
    message(FATAL_ERROR "${Order}: a cpu-only backend list must force "
                        "the cpu split:\n${Out}")
  endif()
  message(STATUS "${Order}: backend split (cpu)")
endforeach()
