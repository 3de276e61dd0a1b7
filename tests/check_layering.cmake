# Layering check: the lower layers (query, obs, storage, txn, common) must
# not include headers of the layers built on top of them (objectaware,
# cache). Run as `cmake -DSRC_DIR=<repo>/src -P check_layering.cmake`; it
# fails listing every offending include.
if(NOT SRC_DIR)
  message(FATAL_ERROR "usage: cmake -DSRC_DIR=<src directory> -P check_layering.cmake")
endif()

set(violations "")
foreach(layer query obs storage txn common)
  file(GLOB_RECURSE sources "${SRC_DIR}/${layer}/*.h" "${SRC_DIR}/${layer}/*.cc")
  foreach(source ${sources})
    file(STRINGS "${source}" includes
         REGEX "^[ \t]*#[ \t]*include[ \t]*\"(objectaware|cache)/")
    foreach(line ${includes})
      file(RELATIVE_PATH rel "${SRC_DIR}" "${source}")
      string(STRIP "${line}" line)
      list(APPEND violations "src/${rel}: ${line}")
    endforeach()
  endforeach()
endforeach()

if(violations)
  list(JOIN violations "\n  " report)
  message(FATAL_ERROR "lower layers include objectaware/ or cache/ headers:\n  ${report}")
endif()
message(STATUS "layering ok: query, obs, storage, txn and common include no objectaware/ or cache/ header")
