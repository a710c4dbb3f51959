# Runs `padrectl run` once per integration mode and checks that the
# split footer names the split the mode forces: cpu-only and gpu-dedup
# compress on the CPU backend, gpu-compress and gpu-both on the GPU.
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
  message(STATUS "--mode ${Mode}: backend split (${Split})")
endforeach()
