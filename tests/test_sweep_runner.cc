/**
 * @file
 * SweepRunner subsystem tests. The load-bearing property is
 * determinism: a parallel sweep must produce per-job results identical
 * to the same sweep run serially, independent of thread scheduling, and
 * the shared program-build cache must hand every configuration the very
 * same program object, assembled exactly once per (workload, scale).
 */

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/pipeline/stats_aggregate.hh"
#include "src/sim/baseline.hh"
#include "src/sim/harness.hh"
#include "src/sim/report.hh"
#include "src/sim/request.hh"
#include "src/sim/sweep.hh"
#include "src/workloads/workload.hh"

using namespace conopt;

namespace {

/** A small but non-trivial cross product: 3 workloads x 3 machines. */
sim::SweepSpec
smallSpec()
{
    sim::SweepSpec spec;
    spec.workloads({"untst", "mcf", "g721d"})
        .config("base", pipeline::MachineConfig::baseline())
        .config("opt", pipeline::MachineConfig::optimized())
        .config("feedback", pipeline::MachineConfig::withOptimizer(
                                core::OptimizerConfig::feedbackOnly()));
    return spec;
}

} // namespace

// ---------------------------------------------------------------------------
// Determinism: parallel == serial, job for job.
// ---------------------------------------------------------------------------

TEST(SweepRunner, ParallelMatchesSerialJobForJob)
{
    sim::SweepRunner serial({1, nullptr});
    sim::SweepRunner parallel({4, nullptr});

    const auto s = serial.run(smallSpec());
    const auto p = parallel.run(smallSpec());

    ASSERT_EQ(s.size(), p.size());
    ASSERT_EQ(s.size(), 9u);
    for (size_t i = 0; i < s.size(); ++i) {
        const auto &a = s.all()[i];
        const auto &b = p.all()[i];
        // Results land in submission order regardless of scheduling.
        EXPECT_EQ(a.job.label, b.job.label);
        EXPECT_EQ(a.job.seed, b.job.seed);
        EXPECT_EQ(a.sim.instructions, b.sim.instructions) << a.job.label;
        EXPECT_EQ(a.sim.stats.cycles, b.sim.stats.cycles) << a.job.label;
        EXPECT_EQ(a.sim.stats.retired, b.sim.stats.retired);
        EXPECT_EQ(a.sim.stats.mispredicted, b.sim.stats.mispredicted);
        EXPECT_EQ(a.sim.stats.opt.earlyExecuted,
                  b.sim.stats.opt.earlyExecuted);
        EXPECT_EQ(a.sim.stats.opt.loadsRemoved,
                  b.sim.stats.opt.loadsRemoved);
        EXPECT_TRUE(b.sim.halted) << a.job.label;
    }
}

TEST(SweepRunner, ManyThreadsManyJobsStillDeterministic)
{
    // More threads than jobs, and jobs sharing one workload program.
    sim::SweepSpec spec;
    spec.workload("untst").config(
        "base", pipeline::MachineConfig::baseline());
    for (unsigned stages : {0u, 2u, 4u}) {
        auto oc = core::OptimizerConfig::full();
        oc.extraStages = stages;
        spec.config("stages" + std::to_string(stages),
                    pipeline::MachineConfig::withOptimizer(oc));
    }
    sim::SweepRunner a({8, nullptr}), b({2, nullptr});
    const auto ra = a.run(spec);
    const auto rb = b.run(spec);
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); ++i)
        EXPECT_EQ(ra.all()[i].sim.stats.cycles,
                  rb.all()[i].sim.stats.cycles)
            << ra.all()[i].job.label;
}

// ---------------------------------------------------------------------------
// Batched multi-config execution: an engine-level knob that must be
// invisible in every result and artifact byte.
// ---------------------------------------------------------------------------

TEST(SweepRunner, BatchingOnOffProducesIdenticalResultsAndArtifacts)
{
    // batchJobs groups same-program jobs onto one warm worker session;
    // results must stay in submission order with bit-identical stats,
    // and the serialized artifact must not change by a byte — with any
    // thread count on either side.
    sim::ProgramCache cache;
    sim::SweepOptions batched(4, &cache);
    ASSERT_TRUE(batched.batchJobs) << "batching defaults on";
    sim::SweepOptions unbatched(1, &cache);
    unbatched.batchJobs = false;

    const auto b = sim::SweepRunner(batched).run(smallSpec());
    const auto u = sim::SweepRunner(unbatched).run(smallSpec());

    ASSERT_EQ(b.size(), u.size());
    ASSERT_EQ(b.size(), 9u);
    for (size_t i = 0; i < b.size(); ++i) {
        const auto &x = b.all()[i];
        const auto &y = u.all()[i];
        EXPECT_EQ(x.job.label, y.job.label) << i;
        EXPECT_EQ(x.job.seed, y.job.seed) << x.job.label;
        EXPECT_EQ(x.sim.instructions, y.sim.instructions) << x.job.label;
        EXPECT_EQ(x.sim.stats.cycles, y.sim.stats.cycles) << x.job.label;
        EXPECT_EQ(x.sim.stats.retired, y.sim.stats.retired);
        EXPECT_EQ(x.sim.stats.loadsForwardedFromStoreQ,
                  y.sim.stats.loadsForwardedFromStoreQ);
        EXPECT_EQ(x.sim.stats.opt.earlyExecuted,
                  y.sim.stats.opt.earlyExecuted);
        EXPECT_TRUE(x.sim.halted) << x.job.label;
    }
    EXPECT_EQ(sim::BenchArtifact::fromSweep(b).toJson(),
              sim::BenchArtifact::fromSweep(u).toJson())
        << "batching changed artifact bytes";
}

// ---------------------------------------------------------------------------
// Program cache: one build per (workload, scale), identical objects.
// ---------------------------------------------------------------------------

TEST(ProgramCache, BuildsOnceAndReturnsIdenticalPrograms)
{
    sim::ProgramCache cache;
    const auto p1 = cache.get("mcf", 1);
    const auto p2 = cache.get("mcf", 1);
    EXPECT_EQ(p1.get(), p2.get()) << "same (workload, scale) must be "
                                     "the same program object";
    EXPECT_EQ(cache.builds(), 1u);
    EXPECT_EQ(cache.hits(), 1u);

    // A different scale is a different program.
    const auto p3 = cache.get("mcf", 2);
    EXPECT_NE(p1.get(), p3.get());
    EXPECT_EQ(cache.builds(), 2u);
    EXPECT_GT(p3->size(), 0u);
}

TEST(ProgramCache, SharedAcrossParallelSweepBuildsEachProgramOnce)
{
    sim::ProgramCache cache;
    sim::SweepRunner runner({4, &cache});
    const auto res = runner.run(smallSpec());
    ASSERT_EQ(res.size(), 9u);
    // 3 workloads x 3 configs, but only 3 programs assembled.
    EXPECT_EQ(cache.builds(), 3u);
    EXPECT_EQ(cache.hits(), 6u);
}

// ---------------------------------------------------------------------------
// Result access, labels, seeds, speedup helpers.
// ---------------------------------------------------------------------------

TEST(SweepResult, LabelKeyedAccessAndSpeedups)
{
    sim::SweepRunner runner({0, nullptr});
    const auto res = runner.run(smallSpec());

    const auto &r = res.at("mcf/opt");
    EXPECT_EQ(r.job.workload, "mcf");
    EXPECT_EQ(r.job.configName, "opt");
    EXPECT_EQ(r.suite, "SPECint");
    EXPECT_TRUE(r.sim.halted);
    EXPECT_GT(r.hostSeconds, 0.0);

    EXPECT_EQ(res.find("mcf/nope"), nullptr);
    EXPECT_EQ(res.cycles("mcf/opt"), r.sim.stats.cycles);

    const double s = res.speedup("mcf/base", "mcf/opt");
    EXPECT_GT(s, 0.5);
    EXPECT_LT(s, 3.0);
    EXPECT_DOUBLE_EQ(s, res.speedupOf("mcf", "opt", "base"));
}

TEST(SweepSpec, CrossProductAndDerivedFields)
{
    const auto jobs = smallSpec().jobs();
    ASSERT_EQ(jobs.size(), 9u);
    EXPECT_EQ(jobs[0].label, "untst/base");
    EXPECT_EQ(jobs[1].label, "untst/opt");
    EXPECT_EQ(jobs[8].label, "g721d/feedback");
    // Scale 0 means "defaultScale * envScale()", resolved at run time.
    EXPECT_EQ(jobs[0].scale, 0u);
    EXPECT_EQ(jobs[0].seed, 0u);
}

TEST(SweepRunner, SeedsAreDeterministicPerLabelAndDistinct)
{
    sim::SweepRunner r1({1, nullptr}), r2({4, nullptr});
    const auto a = r1.run(smallSpec());
    const auto b = r2.run(smallSpec());
    std::set<uint64_t> seeds;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_NE(a.all()[i].job.seed, 0u);
        EXPECT_EQ(a.all()[i].job.seed, b.all()[i].job.seed)
            << "seed must depend on the job, not on thread count";
        seeds.insert(a.all()[i].job.seed);
    }
    EXPECT_EQ(seeds.size(), a.size()) << "per-job seeds must differ";
}

TEST(SweepRunner, ExplicitProgramJobsBypassTheRegistry)
{
    const auto &w = workloads::workloadByName("untst");
    const auto prog =
        std::make_shared<const assembler::Program>(w.build(1));
    sim::SimJob base, opt;
    base.label = "b";
    base.program = prog;
    base.config = pipeline::MachineConfig::baseline();
    opt.label = "o";
    opt.program = prog;
    opt.config = pipeline::MachineConfig::optimized();

    sim::SweepRunner runner({2, nullptr});
    const auto res = runner.run({base, opt});
    EXPECT_EQ(res.at("b").sim.instructions,
              res.at("o").sim.instructions);
    EXPECT_EQ(runner.cache().builds(), 0u);

    // sim::speedup() is itself a two-job sweep over the same program.
    const double s =
        sim::speedup(*prog, pipeline::MachineConfig::baseline(),
                     pipeline::MachineConfig::optimized());
    EXPECT_DOUBLE_EQ(s, res.speedup("b", "o"));
}

TEST(SweepRunner, PrebuiltProgramJobsGetAFullySpecifiedScale)
{
    // normalize() used to leave scale == 0 for jobs carrying a
    // pre-built program, so their seed derived from scale 0 and the
    // artifact/cache records carried an unspecified scale. A bare
    // program defaults to envScale(), like a defaultScale-1 registry
    // job.
    const auto &w = workloads::workloadByName("untst");
    const auto prog =
        std::make_shared<const assembler::Program>(w.build(1));

    sim::SimJob j;
    j.label = "prebuilt";
    j.program = prog;
    j.config = pipeline::MachineConfig::baseline();

    unsetenv("CONOPT_SCALE");
    sim::SweepRunner r1({1, nullptr});
    const auto res1 = r1.run({j});
    EXPECT_EQ(res1.at("prebuilt").job.scale, 1u);
    EXPECT_NE(res1.at("prebuilt").job.seed, 0u);

    setenv("CONOPT_SCALE", "3", 1);
    sim::SweepRunner r2({1, nullptr});
    const auto res2 = r2.run({j});
    unsetenv("CONOPT_SCALE");
    EXPECT_EQ(res2.at("prebuilt").job.scale, 3u);
    // The scale feeds the seed derivation, so the seed moves with it.
    EXPECT_NE(res2.at("prebuilt").job.seed,
              res1.at("prebuilt").job.seed);

    // An explicit scale is left alone.
    j.scale = 5;
    sim::SweepRunner r3({1, nullptr});
    EXPECT_EQ(r3.run({j}).at("prebuilt").job.scale, 5u);
}

// ---------------------------------------------------------------------------
// envScale handling (CONOPT_SCALE moved into the sweep subsystem).
// ---------------------------------------------------------------------------

TEST(EnvScale, DefaultsToOneAndReadsEnvironment)
{
    unsetenv("CONOPT_SCALE");
    EXPECT_EQ(sim::envScale(), 1u);
    setenv("CONOPT_SCALE", "3", 1);
    EXPECT_EQ(sim::envScale(), 3u);
    setenv("CONOPT_SCALE", "0", 1);
    EXPECT_EQ(sim::envScale(), 1u);
    unsetenv("CONOPT_SCALE");
}

TEST(EnvScale, GarbageNegativeAndHugeValuesAreSafe)
{
    setenv("CONOPT_SCALE", "banana", 1);
    EXPECT_EQ(sim::envScale(), 1u);
    setenv("CONOPT_SCALE", "", 1);
    EXPECT_EQ(sim::envScale(), 1u);
    setenv("CONOPT_SCALE", "-4", 1);
    EXPECT_EQ(sim::envScale(), 1u);
    // Whitespace-prefixed negatives must not wrap through strtoull.
    setenv("CONOPT_SCALE", "\n-5", 1);
    EXPECT_EQ(sim::envScale(), 1u);
    // Beyond-cap and beyond-uint64 values clamp instead of wrapping.
    setenv("CONOPT_SCALE", "4294967297", 1);
    EXPECT_EQ(sim::envScale(), sim::kMaxEnvScale);
    setenv("CONOPT_SCALE", "99999999999999999999999999", 1);
    EXPECT_EQ(sim::envScale(), sim::kMaxEnvScale);
    unsetenv("CONOPT_SCALE");
}

TEST(EnvScale, TrailingGarbageFallsBackToDefaultNotThePrefix)
{
    // "8x" used to parse as 8: the documented contract is garbage ->
    // default, and a typo'd scale silently running 8x the work (or a
    // trailing "," silently dropping a list) is exactly the failure
    // mode the contract exists for.
    setenv("CONOPT_SCALE", "8x", 1);
    EXPECT_EQ(sim::envScale(), 1u);
    setenv("CONOPT_SCALE", "4,", 1);
    EXPECT_EQ(sim::envScale(), 1u);
    setenv("CONOPT_SCALE", "2 4", 1);
    EXPECT_EQ(sim::envScale(), 1u);
    setenv("CONOPT_SCALE", "3.5", 1);
    EXPECT_EQ(sim::envScale(), 1u);
    // Trailing (and leading) whitespace is not garbage.
    setenv("CONOPT_SCALE", " 7 \n", 1);
    EXPECT_EQ(sim::envScale(), 7u);
    unsetenv("CONOPT_SCALE");

    setenv("CONOPT_THREADS", "4,", 1);
    EXPECT_EQ(sim::envThreads(), 0u);
    setenv("CONOPT_THREADS", "6x2", 1);
    EXPECT_EQ(sim::envThreads(), 0u);
    setenv("CONOPT_THREADS", "6 ", 1);
    EXPECT_EQ(sim::envThreads(), 6u);
    unsetenv("CONOPT_THREADS");
}

TEST(EnvThreads, EdgeCases)
{
    unsetenv("CONOPT_THREADS");
    EXPECT_EQ(sim::envThreads(), 0u);
    setenv("CONOPT_THREADS", "6", 1);
    EXPECT_EQ(sim::envThreads(), 6u);
    // 0 and nonsense both mean "use hardware concurrency".
    setenv("CONOPT_THREADS", "0", 1);
    EXPECT_EQ(sim::envThreads(), 0u);
    setenv("CONOPT_THREADS", "not-a-number", 1);
    EXPECT_EQ(sim::envThreads(), 0u);
    setenv("CONOPT_THREADS", "-2", 1);
    EXPECT_EQ(sim::envThreads(), 0u);
    setenv("CONOPT_THREADS", "18446744073709551616", 1);
    EXPECT_EQ(sim::envThreads(), sim::kMaxEnvThreads);
    unsetenv("CONOPT_THREADS");
}

TEST(IpcSampleInterval, SignedOrGarbageStrideExitsTwo)
{
    // strtoull would wrap "-1" to 2^64 - 1; the flag and the env var
    // both take the strict uint64 token parser instead.
    struct Case
    {
        const char *value;
        bool viaEnv;
    };
    for (const Case c : {Case{"-1", false}, Case{"5x", false},
                         Case{"-1", true}, Case{"5x", true}}) {
        std::vector<std::string> args = {"bench"};
        if (!c.viaEnv) {
            args.push_back("--ipc-sample-interval");
            args.push_back(c.value);
        }
        std::vector<char *> argv;
        for (auto &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        // The env var is set inside the death-test child only.
        EXPECT_EXIT(
            {
                if (c.viaEnv)
                    setenv("CONOPT_IPC_SAMPLE", c.value, 1);
                sim::HarnessOptions::parse(int(args.size()), argv.data());
            },
            ::testing::ExitedWithCode(2), "invalid")
            << (c.viaEnv ? "CONOPT_IPC_SAMPLE=" : "--ipc-sample-interval ")
            << c.value;
    }

    std::string prog = "bench", flag = "--ipc-sample-interval", v = "5";
    char *ok[] = {prog.data(), flag.data(), v.data(), nullptr};
    EXPECT_EQ(sim::HarnessOptions::parse(3, ok).run.ipcSampleInterval, 5u);
}

// ---------------------------------------------------------------------------
// speedup() guards: no division by zero, no fatal on missing labels.
// ---------------------------------------------------------------------------

TEST(SweepResult, SpeedupGuardsZeroCycleAndMissingDenominators)
{
    sim::SweepResult res;
    sim::JobResult a, b;
    a.job.label = "a";
    a.sim.stats.cycles = 1000;
    b.job.label = "zero";
    b.sim.stats.cycles = 0;
    res.add(std::move(a));
    res.add(std::move(b));

    EXPECT_DOUBLE_EQ(res.speedup("a", "zero"), 0.0);
    EXPECT_DOUBLE_EQ(res.speedup("a", "no-such-label"), 0.0);
    EXPECT_DOUBLE_EQ(res.speedup("no-such-label", "a"), 0.0);
    // Zero cycles in the *numerator* is well-defined (speedup 0).
    EXPECT_DOUBLE_EQ(res.speedup("zero", "a"), 0.0);
}

TEST(EnvScale, AppliedDuringJobNormalization)
{
    setenv("CONOPT_SCALE", "2", 1);
    sim::SweepSpec spec;
    spec.workload("untst").config(
        "base", pipeline::MachineConfig::baseline());
    sim::SweepRunner runner({1, nullptr});
    const auto res = runner.run(spec);
    unsetenv("CONOPT_SCALE");
    const auto &w = workloads::workloadByName("untst");
    EXPECT_EQ(res.at("untst/base").job.scale, 2 * w.defaultScale);
}

// ---------------------------------------------------------------------------
// Aggregation helpers (moved from bench_common to the pipeline layer).
// ---------------------------------------------------------------------------

TEST(StatsAggregate, GeomeanAndMean)
{
    EXPECT_DOUBLE_EQ(pipeline::geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(pipeline::mean({}), 0.0);
    EXPECT_NEAR(pipeline::geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_DOUBLE_EQ(pipeline::mean({2.0, 8.0}), 5.0);
}

TEST(StatsAggregate, AccumulatorSumsRuns)
{
    sim::SweepRunner runner({2, nullptr});
    const auto res = runner.run(smallSpec());
    pipeline::StatsAccumulator acc;
    uint64_t cycles = 0;
    for (const char *wl : {"untst", "mcf", "g721d"}) {
        const auto &s =
            res.at(sim::SweepSpec::labelFor(wl, "opt")).sim.stats;
        acc.add(s);
        cycles += s.cycles;
    }
    EXPECT_EQ(acc.runs(), 3u);
    EXPECT_EQ(acc.total().cycles, cycles);
    EXPECT_GT(acc.total().opt.earlyExecuted, 0u);
}

// ---------------------------------------------------------------------------
// Reporters produce sane output.
// ---------------------------------------------------------------------------

TEST(Reporters, CsvHasHeaderAndOneRowPerJob)
{
    sim::SweepRunner runner({2, nullptr});
    const auto res = runner.run(smallSpec());

    char buf[16384];
    std::FILE *f = fmemopen(buf, sizeof(buf), "w");
    ASSERT_NE(f, nullptr);
    sim::CsvReporter().report(res, f);
    std::fclose(f);

    const std::string out(buf);
    size_t lines = 0;
    for (char c : out)
        lines += c == '\n';
    EXPECT_EQ(lines, 1 + res.size());
    EXPECT_NE(out.find("label,workload,suite,config"), std::string::npos);
    EXPECT_NE(out.find("mcf/opt,mcf,SPECint,opt"), std::string::npos);
}

TEST(Reporters, TableContainsSuiteAndValues)
{
    sim::SweepRunner runner({2, nullptr});
    const auto res = runner.run(smallSpec());

    char buf[16384];
    std::FILE *f = fmemopen(buf, sizeof(buf), "w");
    ASSERT_NE(f, nullptr);
    sim::TableOptions t;
    t.baselineConfig = "base";
    t.configs = {"opt", "feedback"};
    t.rows = sim::TableOptions::Rows::PerSuite;
    sim::TableReporter(t).report(res, f);
    std::fclose(f);

    const std::string out(buf);
    EXPECT_NE(out.find("SPECint"), std::string::npos);
    EXPECT_NE(out.find("mediabench"), std::string::npos);
    EXPECT_NE(out.find("opt"), std::string::npos);
}
