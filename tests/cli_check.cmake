# Helper steps of the bespoke_io end-to-end tests (tests/CMakeLists.txt),
# run with `cmake -DMODE=... -P cli_check.cmake`:
#   MODE=corrupt IN=a.v OUT=b.v   tie mem_addr[1] to 1 (an observable
#                                 corruption) in a Verilog netlist
#   MODE=status FILE=s.json       require the JobResult keys that
#                                 `tailor --status-json` writes
if(MODE STREQUAL "corrupt")
    file(READ "${IN}" text)
    string(REGEX REPLACE "assign mem_addr\\[1\\] = [^;]*;"
           "assign mem_addr[1] = 1'b1;" bad "${text}")
    if(bad STREQUAL text)
        message(FATAL_ERROR "${IN}: no mem_addr[1] driver to corrupt")
    endif()
    file(WRITE "${OUT}" "${bad}")
elseif(MODE STREQUAL "status")
    file(READ "${FILE}" doc)
    foreach(path
            "id" "kind" "ok" "payload;cut;gates_cut_direct"
            "payload;passes;0;changes" "payload;passes;0;gates_after"
            "payload;passes;0;power_after_uw"
            "payload;passes;0;depth_after_ps"
            "payload;rewritten_instances" "payload;gating;gated_banks"
            "payload;outputs_compared" "payload;paths_explored"
            "payload;sat_cross_check;verdict"
            "payload;sat_cross_check;depth" "payload;netlist_hash"
            "stages")
        string(JSON value ERROR_VARIABLE missing GET "${doc}" ${path})
        if(missing)
            message(FATAL_ERROR "${FILE}: no '${path}': ${missing}")
        endif()
    endforeach()
    # Per-pass wall times are volatile: stage detail, never payload.
    string(JSON wall ERROR_VARIABLE absent
           GET "${doc}" payload passes 0 wall_ms)
    if(NOT absent)
        message(FATAL_ERROR "${FILE}: wall_ms in the payload")
    endif()
    string(FIND "${doc}" "\"wall_ms\"" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "${FILE}: no per-pass wall_ms stage detail")
    endif()
    message(STATUS "status document complete")
else()
    message(FATAL_ERROR "unknown MODE '${MODE}'")
endif()
