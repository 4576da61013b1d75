/**
 * @file
 * Reproduces Table 1 of the paper: the experimental workload and its
 * dynamic instruction counts. The paper simulated the real SPEC2000 and
 * mediabench binaries (96M-1000M instructions); this repository runs
 * scaled synthetic kernels, so the table reports both the paper's count
 * and ours, plus the checksum that pins functional behaviour.
 *
 * This is a functional (emulator-only) run, so it uses the sweep
 * subsystem's program cache rather than a timing sweep.
 */

#include <cinttypes>

#include "bench/bench_common.hh"
#include "src/arch/emulator.hh"

using namespace conopt;

int
main(int argc, char **argv)
{
    const bench::HarnessOptions hopts = bench::harnessInit(argc, argv);
    bench::header("Table 1: Experimental Workload");
    std::printf("%-10s %-12s %38s %12s %10s\n", "App.", "Type", "Name",
                "Paper insts", "Our insts");

    // Functional runs have no timing, so the artifact's regression
    // units are the dynamic instruction count and the memory checksum
    // of every workload (cycles stay 0).
    sim::BenchArtifact art;
    art.scale = hopts.run.effectiveScale();
    art.threads = hopts.run.effectiveThreads();

    sim::ProgramCache cache;
    size_t idx = 0;
    for (const auto &w : workloads::allWorkloads()) {
        // Emulator loop, not a SweepRunner: apply the same round-robin
        // shard partition by position in the full workload list.
        if (!hopts.inShard(idx++))
            continue;
        const unsigned scale = w.defaultScale * hopts.run.effectiveScale();
        const auto program = cache.get(w.name, scale);
        arch::Emulator emu(*program);
        emu.run();
        if (!emu.halted()) {
            std::printf("%s DID NOT HALT\n", w.name.c_str());
            return 1;
        }
        const uint64_t checksum =
            emu.memory().readQuad(workloads::checksumAddr);
        std::printf("%-10s %-12s %38s %10uM %10" PRIu64
                    "  (checksum 0x%" PRIx64 ")\n",
                    w.name.c_str(), w.suite.c_str(), w.fullName.c_str(),
                    w.paperInstsM, emu.instCount(), checksum);

        sim::ArtifactJob j;
        j.label = w.name + "/emu";
        j.workload = w.name;
        j.suite = w.suite;
        j.config = "emu";
        j.scale = scale;
        j.instructions = emu.instCount();
        j.halted = true;
        j.checksum = checksum;
        art.jobs.push_back(std::move(j));
    }
    return bench::finish("table1_workloads", std::move(art), hopts);
}
