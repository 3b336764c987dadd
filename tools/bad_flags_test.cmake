# Every tool and bench shares one strict flag layer (common/flags.h): a
# malformed, out-of-range or missing flag value must exit 2 with an
# "error" line on stderr, never abort, hang, or run with a silently
# mangled value.
#
# Invoked by ctest as:
#   cmake -D CLI=<spca_cli> -D SERVE=<spca_serve> -D STREAM=<spca_stream>
#         -D BENCH_SERVE=<bench_serve> -D BENCH_STREAM=<bench_stream>
#         -D BENCH_SKETCH=<bench_sketch>
#         -D BENCH_JOB_ANALYSIS=<bench_job_analysis> -D MODEL=<saved .spcm>
#         -D OUT_DIR=<scratch dir> -P this_file
foreach(var CLI SERVE STREAM BENCH_SERVE BENCH_STREAM BENCH_SKETCH
            BENCH_JOB_ANALYSIS MODEL OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "need -D ${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
set(failures 0)

# Runs one invocation (in OUT_DIR, so a regressed run cannot litter the
# build tree) and requires exit code 2 plus an error line on stderr.
function(expect_flag_error name)
  execute_process(
    COMMAND ${ARGN}
    WORKING_DIRECTORY "${OUT_DIR}"
    TIMEOUT 30
    RESULT_VARIABLE exit_code
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT exit_code STREQUAL "2" OR NOT stderr MATCHES "error")
    message(SEND_ERROR "${name}: expected exit 2 and an error line, got "
                       "'${exit_code}'\nstdout:\n${stdout}\nstderr:\n${stderr}")
    math(EXPR count "${failures} + 1")
    set(failures ${count} PARENT_SCOPE)
  else()
    string(REGEX MATCH "error[^\n]*" line "${stderr}")
    message(STATUS "${name}: exit 2, ${line}")
  endif()
endfunction()

set(cli "${CLI}" --generate tweets --rows 300 --cols 60 --components 4
        --iterations 2)
expect_flag_error(cli_partitions_0 ${cli} --partitions 0)
expect_flag_error(cli_nodes_0 ${cli} --nodes 0)
expect_flag_error(cli_fault_rate_nan ${cli} --fault-rate nan)
expect_flag_error(cli_target_abc ${cli} --target abc)
expect_flag_error(cli_components_4x ${cli} --components 4x)
expect_flag_error(cli_platform_typo ${cli} --platform sprak)
expect_flag_error(cli_rows_abc ${cli} --rows abc)

set(stream "${STREAM}" --dim 48 --rank 3 --batch-rows 64 --batches 4
           --publish-every 2 --serve-concurrency 0)
expect_flag_error(stream_partitions_0 ${stream} --partitions 0)
expect_flag_error(stream_decay_nan ${stream} --decay nan)
expect_flag_error(stream_rank_above_dim ${stream} --rank 60)

set(serve "${SERVE}" --model "${MODEL}" --threads 1 --qps 0 --concurrency 1
          --duration 0.1 --queries 16)
expect_flag_error(serve_qps_nan ${serve} --qps nan)
expect_flag_error(serve_listen_negative ${serve} --listen -5)
expect_flag_error(serve_nnz_abc ${serve} --nnz abc)
expect_flag_error(serve_flush_every_0 ${serve} --flush-every 0
                  --trace-stream "${OUT_DIR}/serve.jsonl")

expect_flag_error(bench_serve_duration_0 "${BENCH_SERVE}" --duration 0
                  --no-socket --threads 1)
expect_flag_error(bench_stream_batches_abc "${BENCH_STREAM}" --dim 32
                  --components 2 --batch-rows 32 --batches abc)
expect_flag_error(bench_stream_components_above_dim "${BENCH_STREAM}" --dim 32
                  --components 40 --batch-rows 32)
expect_flag_error(bench_sketch_target_missing "${BENCH_SKETCH}" --rows 300
                  --cols 40 --components 3 --target)
expect_flag_error(bench_job_analysis_fault_rate_nan "${BENCH_JOB_ANALYSIS}"
                  --fault-rate nan)

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} bad-flag invocation(s) did not exit 2")
endif()
message(STATUS "every bad flag exits 2 with an error line")
