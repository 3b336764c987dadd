# Malformed input files and an unwritable --output must make spca_cli exit
# 1 with an "error:" line: the loaders check every header size against
# the bytes in the file and every index before they allocate or append,
# and the writers report a failed write or close, so no input or output
# path ends in a CHECK abort, an allocation failure or a false "wrote".
#
# Invoked by ctest as:
#   cmake -D CLI=<path/to/spca_cli> -D OUT_DIR=<scratch dir> -P this_file
if(NOT DEFINED CLI OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "need -D CLI=... and -D OUT_DIR=...")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
set(failures 0)

# Writes `bytes` (printf escapes, \ooo octal) to OUT_DIR/name.
function(write_bytes name bytes)
  execute_process(COMMAND printf "${bytes}"
                  OUTPUT_FILE "${OUT_DIR}/${name}"
                  RESULT_VARIABLE exit_code)
  if(NOT exit_code EQUAL 0)
    message(FATAL_ERROR "cannot write ${OUT_DIR}/${name}")
  endif()
endfunction()

# Runs spca_cli with the given flags and requires exit code 1 plus an
# "error:" line on stderr.
function(expect_error name)
  execute_process(
    COMMAND "${CLI}" ${ARGN}
    WORKING_DIRECTORY "${OUT_DIR}"
    TIMEOUT 60
    RESULT_VARIABLE exit_code
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT exit_code STREQUAL "1" OR NOT stderr MATCHES "error:")
    message(SEND_ERROR "${name}: expected exit 1 and an error line, got "
                       "'${exit_code}'\nstdout:\n${stdout}\nstderr:\n${stderr}")
    math(EXPR count "${failures} + 1")
    set(failures ${count} PARENT_SCOPE)
  else()
    string(REGEX MATCH "error:[^\n]*" line "${stderr}")
    message(STATUS "${name}: exit 1, ${line}")
  endif()
endfunction()

# Little-endian fields of the binary formats (workload/io.cc).
set(sparse_magic "3RPSACPS")
set(dense_magic "3SNDACPS")
set(u64_1 "\\001\\000\\000\\000\\000\\000\\000\\000")
set(u64_2 "\\002\\000\\000\\000\\000\\000\\000\\000")
set(u64_4 "\\004\\000\\000\\000\\000\\000\\000\\000")
set(u64_2pow61 "\\000\\000\\000\\000\\000\\000\\000\\040")
set(u32_9 "\\011\\000\\000\\000")
set(f64_1 "\\000\\000\\000\\000\\000\\000\\360\\077")

# One row of 4 columns whose one entry names column 9.
write_bytes(index_past_cols.spm
            "${sparse_magic}${u64_1}${u64_4}${u64_1}${u64_1}${u32_9}${f64_1}")
expect_error(sparse_bin_index_past_cols
             --input index_past_cols.spm --format sparse-bin --components 2)

# A header that claims 2^61 rows over an empty body.
write_bytes(huge_rows.spm "${sparse_magic}${u64_2pow61}${u64_4}${u64_1}")
expect_error(sparse_bin_huge_rows
             --input huge_rows.spm --format sparse-bin --components 2)

write_bytes(huge_rows.dnm "${dense_magic}${u64_2pow61}${u64_2}")
expect_error(dense_bin_huge_rows
             --input huge_rows.dnm --format dense-bin --components 2)

file(WRITE "${OUT_DIR}/descending.txt" "0:1 3:2 2:5\n1:1\n")
expect_error(sparse_text_descending
             --input descending.txt --format sparse-text --text-cols 4
             --components 2)

# /dev/full accepts the open and fails the write.
if(EXISTS "/dev/full")
  expect_error(output_dev_full
               --generate tweets --rows 300 --cols 60 --components 4
               --iterations 2 --output /dev/full)
endif()

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} bad-input case(s) failed")
endif()
