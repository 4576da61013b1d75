/**
 * @file
 * conopt_sweep: the one-command sharded sweep driver. Launches a bench
 * binary as N local shard processes, streams their progress, waits
 * with per-shard timeout and bounded retry, merges the shard
 * artifacts, recomputes the deferred figure geomeans, and gates the
 * merged artifact against a baseline. Exit codes match
 * conopt_bench_check: 0 ok, 1 drift, 2 error. All logic lives in
 * sim::sweepDriverMain / sim::runSweepDriver (src/sim/driver.hh) so
 * tests/test_sweep_driver.cc covers the behaviour in-process.
 */

#include <string>
#include <vector>

#include "src/sim/driver.hh"

int
main(int argc, char **argv)
{
    return conopt::sim::sweepDriverMain(
        std::vector<std::string>(argv + 1, argv + argc));
}
