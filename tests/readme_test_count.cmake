# Checks that README.md states the number of tests ctest lists: both its
# "# N tests" build-recipe line and its "N unit / integration" layout line.
#
# usage: cmake -DCTEST=<ctest> -DBUILD_DIR=<build tree> -DREADME=<README.md>
#              -P readme_test_count.cmake

execute_process(COMMAND "${CTEST}" -N
                WORKING_DIRECTORY "${BUILD_DIR}"
                OUTPUT_VARIABLE listing
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "ctest -N failed in ${BUILD_DIR}")
endif()
if(NOT listing MATCHES "Total Tests: ([0-9]+)")
  message(FATAL_ERROR "ctest -N printed no test total")
endif()
set(listed "${CMAKE_MATCH_1}")

file(READ "${README}" readme)
foreach(pattern "# ([0-9]+) tests" "([0-9]+) unit / integration")
  if(NOT readme MATCHES "${pattern}")
    message(FATAL_ERROR "README.md has no line matching '${pattern}'")
  endif()
  if(NOT CMAKE_MATCH_1 EQUAL listed)
    message(FATAL_ERROR
      "README.md states ${CMAKE_MATCH_1} tests ('${pattern}'), ctest lists ${listed}")
  endif()
endforeach()
