# Layering check: the lower layers (query, obs, storage, txn, common) must
# not include headers of the layers built on top of them (objectaware,
# cache), and objectaware must not include cache headers. Run as
# `cmake -DSRC_DIR=<repo>/src -P check_layering.cmake`; it fails listing
# every offending include.
if(NOT SRC_DIR)
  message(FATAL_ERROR "usage: cmake -DSRC_DIR=<src directory> -P check_layering.cmake")
endif()

set(violations "")
# check_layer(<layer> <regex of forbidden top-level directories>)
function(check_layer layer forbidden)
  file(GLOB_RECURSE sources "${SRC_DIR}/${layer}/*.h" "${SRC_DIR}/${layer}/*.cc")
  foreach(source ${sources})
    file(STRINGS "${source}" includes
         REGEX "^[ \t]*#[ \t]*include[ \t]*\"(${forbidden})/")
    foreach(line ${includes})
      file(RELATIVE_PATH rel "${SRC_DIR}" "${source}")
      string(STRIP "${line}" line)
      list(APPEND violations "src/${rel}: ${line}")
    endforeach()
  endforeach()
  set(violations "${violations}" PARENT_SCOPE)
endfunction()

foreach(layer query obs storage txn common)
  check_layer(${layer} "objectaware|cache")
endforeach()
check_layer(objectaware "cache")

if(violations)
  list(JOIN violations "\n  " report)
  message(FATAL_ERROR "layering violations (a lower layer includes an upper layer's header):\n  ${report}")
endif()
message(STATUS "layering ok: query, obs, storage, txn and common include no objectaware/ or cache/ header; objectaware includes no cache/ header")
