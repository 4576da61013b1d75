/**
 * @file
 * Reproduces Figure 6 of the paper: speedup of continuous optimization
 * over the baseline for every SPECint, SPECfp, and mediabench workload,
 * with a suite average as the rightmost entry.
 *
 * Paper-reported shape: speedups range from 0.98 to 1.28; almost every
 * benchmark improves despite the two extra pipeline stages; mcf and
 * untoast stand out in their suites; mediabench has the largest overall
 * improvement.
 */

#include "bench/bench_common.hh"

using namespace conopt;

int
main(int argc, char **argv)
{
    const bench::HarnessOptions hopts = bench::harnessInit(argc, argv);
    sim::SweepSpec spec;
    spec.allWorkloads()
        .config("base", pipeline::MachineConfig::baseline())
        .config("opt", pipeline::MachineConfig::optimized());

    sim::SweepRunner runner(hopts.sweepOptions());
    const auto res = runner.run(spec);

    sim::TableOptions t;
    t.title = "Figure 6: Speedup of continuous optimization over baseline";
    t.baselineConfig = "base";
    t.configs = {"opt"};
    t.rows = sim::TableOptions::Rows::PerWorkloadBySuite;
    t.colWidth = 6;
    sim::TableReporter(t).print(res);
    return bench::finishSweep("fig6_speedup", res, t.baselineConfig,
                              t.configs, hopts);
}
