/**
 * @file
 * Reproduces Table 2 of the paper: the simulated machine configuration,
 * as actually instantiated by this repository's timing model.
 */

#include "bench/bench_common.hh"

using namespace conopt;

int
main(int argc, char **argv)
{
    const bench::HarnessOptions hopts = bench::harnessInit(argc, argv);
    bench::header("Table 2: Simulated Machine Configuration (baseline)");
    std::printf("%s", pipeline::MachineConfig::baseline().describe().c_str());
    bench::header("Table 2: with continuous optimizer");
    std::printf("%s",
                pipeline::MachineConfig::optimized().describe().c_str());

    // No simulation here; the artifact pins the fingerprints of every
    // preset machine, so any silent change to the experimental setup
    // (Table 2 itself) trips the baseline gate.
    sim::BenchArtifact art;
    art.scale = hopts.run.effectiveScale();
    art.threads = hopts.run.effectiveThreads();
    size_t idx = 0;
    const auto preset = [&](const char *name,
                            const pipeline::MachineConfig &cfg) {
        // Positional shard partition over the preset list, matching
        // the sweep engine's round-robin convention.
        if (hopts.inShard(idx++))
            art.jobs.push_back(bench::configJob(name, cfg));
    };
    preset("baseline", pipeline::MachineConfig::baseline());
    preset("optimized", pipeline::MachineConfig::optimized());
    preset("fetch_bound", pipeline::MachineConfig::fetchBound(false));
    preset("fetch_bound_opt", pipeline::MachineConfig::fetchBound(true));
    preset("exec_bound", pipeline::MachineConfig::execBound(false));
    preset("exec_bound_opt", pipeline::MachineConfig::execBound(true));
    return bench::finish("table2_config", std::move(art), hopts);
}
