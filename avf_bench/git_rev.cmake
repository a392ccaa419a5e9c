# Writes OUT as a header defining AVF_GIT_REV (the short revision of the
# checkout at ROOT, or "unknown" outside a git work tree).  The file is
# rewritten only when the revision changed, so an unchanged revision
# triggers no recompilation.
#
#   cmake -DROOT=<repo> -DOUT=<header> -P git_rev.cmake
get_filename_component(parent ${ROOT} DIRECTORY)
# Stop git from adopting an enclosing repository when ROOT is a plain
# source tree.
set(ENV{GIT_CEILING_DIRECTORIES} ${parent})
execute_process(COMMAND git rev-parse --short HEAD
  WORKING_DIRECTORY ${ROOT}
  OUTPUT_VARIABLE rev
  OUTPUT_STRIP_TRAILING_WHITESPACE
  RESULT_VARIABLE status
  ERROR_QUIET)
if(NOT status EQUAL 0 OR rev STREQUAL "")
  set(rev "unknown")
endif()
set(content "#pragma once\n#define AVF_GIT_REV \"${rev}\"\n")
if(EXISTS ${OUT})
  file(READ ${OUT} old)
  if(old STREQUAL content)
    return()
  endif()
endif()
file(WRITE ${OUT} "${content}")
