# CLI contract test for noctool's numeric inputs: a negative cycle
# count (a window such as warmup=, or an interval such as verify-scan=),
# a load= value or list entry that is not a finite number in (0, 1]
# (trailing text included), and a packet= size below 1 must each be
# fatal, exit 1 with a message naming the key and the bad value. Cycle
# keys are checked on a single run; load= and packet= in every mode
# (single, sweep, calibrate, analytic), which share one rule. The sweep
# resilience keys must be in range too: job-retries= at least 1,
# job-deadline-ms= and job-backoff-ms= not negative (each used to be
# read as one attempt, no deadline or no backoff). A negative
# window used to run for ~1.8e19 cycles, so the short ctest TIMEOUT is
# part of the contract; an out-of-range load or packet size used to
# abort the run (or the whole sweep) on an assertion.
# Driven from ctest with
#   -DNOCTOOL=<noctool> -DWORK=<scratch dir>

if(NOT DEFINED NOCTOOL OR NOT DEFINED WORK)
    message(FATAL_ERROR "usage: cmake -DNOCTOOL=... -DWORK=... -P noctool_bad_values.cmake")
endif()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

set(run topology=mesh width=4 height=4 pattern=uniform seed=1)

# expect_fatal(<stderr text> <args...>): the run must exit 1 and print
# the given text on stderr.
function(expect_fatal text)
    execute_process(
        COMMAND "${NOCTOOL}" ${run} ${ARGN}
        OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
    string(JOIN " " args ${ARGN})
    if(NOT rc EQUAL 1)
        message(FATAL_ERROR "noctool ${args} exited ${rc}, want 1:\n"
                            "${out}${err}")
    endif()
    string(FIND "${err}" "${text}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "noctool ${args} did not say '${text}':\n"
                            "${err}")
    endif()
endfunction()

foreach(key warmup measure drain-limit health-sample)
    expect_fatal("option ${key} must not be negative, got: -1"
                 scheme=baseline load=0.05 ${key}=-1)
endforeach()
# A negative scan interval used to switch the full-state scan off.
expect_fatal("option verify-scan must not be negative, got: -1"
             scheme=baseline load=0.05 verify=all verify-scan=-1)

expect_fatal("bad load value: '0.05x'"
             scheme=baseline load=0.05x,0.1 warmup=100 measure=300)
expect_fatal("bad load value: 'abc'"
             "calibrate=${WORK}/cal.json" scheme=baseline load=0.1,abc
             warmup=100 measure=300)

# Out-of-range workload values, one rule in every mode.
foreach(load 5 -0.1 0 1.5 inf nan)
    expect_fatal("bad load value: '${load}' (want a number in (0, 1])"
                 scheme=baseline load=${load} warmup=100 measure=300)
endforeach()
expect_fatal("bad load value: '5'"
             scheme=baseline load=5,0.1 warmup=100 measure=300)
expect_fatal("bad load value: '5'" model=analytic load=5)
expect_fatal("bad load value: '5'"
             "calibrate=${WORK}/cal.json" scheme=baseline load=0.1,5
             warmup=100 measure=300)
foreach(packet 0 -3)
    set(want "option packet must be a flit count of at least 1, got: ${packet}")
    expect_fatal("${want}" scheme=baseline load=0.1 packet=${packet}
                 warmup=100 measure=300)
    expect_fatal("${want}" scheme=baseline load=0.05,0.1 packet=${packet}
                 warmup=100 measure=300)
    expect_fatal("${want}" model=analytic load=0.1 packet=${packet})
    expect_fatal("${want}" "calibrate=${WORK}/cal.json" scheme=baseline
                 load=0.1 packet=${packet} warmup=100 measure=300)
endforeach()

# Sweep resilience keys.
foreach(retries 0 -3)
    set(want "option job-retries must be an attempt count of at least 1, got: ${retries}")
    expect_fatal("${want}" scheme=baseline load=0.05,0.1 job-retries=${retries}
                 warmup=100 measure=300)
endforeach()
foreach(key job-deadline-ms job-backoff-ms)
    expect_fatal("option ${key} must not be negative, got: -5"
                 scheme=baseline load=0.05,0.1 ${key}=-5
                 warmup=100 measure=300)
endforeach()
