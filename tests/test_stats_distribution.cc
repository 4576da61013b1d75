/**
 * @file
 * Distribution-statistics tests: the accumulators behind the host
 * percentiles in progress lines and artifacts, and the per-interval
 * IPC sampling path.
 *
 * The load-bearing properties:
 *   - ReservoirAccumulator is deterministic for a fixed (seed, stream)
 *     and keeps the first `capacity` values verbatim;
 *   - PercentileAccumulator's lazy-sort cache survives interleaved
 *     add/query sequences, and min()/max()/clamping follow the
 *     documented contract;
 *   - IPC sampling never perturbs simulated state: SimStats are
 *     bit-identical with sampling on or off, and — because retirement
 *     cycles are identical with fast-forward on or off — the sampled
 *     reservoirs match across fast-forward modes too;
 *   - the sweep-level distribution block recomputed after a shard
 *     merge equals the unsharded run's exactly (percentiles are
 *     order-independent over identical pooled multisets);
 *   - artifacts without sampling carry no distribution fields and
 *     reserialize byte-identically, and compareArtifacts never gates
 *     on the distribution fields.
 */

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/pipeline/machine_config.hh"
#include "src/pipeline/stats_aggregate.hh"
#include "src/sim/baseline.hh"
#include "src/sim/session.hh"
#include "src/sim/sweep.hh"
#include "src/workloads/workload.hh"

using namespace conopt;
namespace fs = std::filesystem;

namespace {

sim::ProgramPtr
programOf(const std::string &workload, unsigned scale = 1)
{
    const auto &w = workloads::workloadByName(workload);
    return std::make_shared<const assembler::Program>(w.build(scale));
}

/** A small but non-trivial cross product: 3 workloads x 2 machines. */
sim::SweepSpec
smallSpec()
{
    sim::SweepSpec spec;
    spec.workloads({"untst", "mcf", "g721d"})
        .config("base", pipeline::MachineConfig::baseline())
        .config("opt", pipeline::MachineConfig::optimized());
    return spec;
}

/** Scratch directory, removed on destruction. */
struct TempDir
{
    fs::path path;

    TempDir()
    {
        path = fs::temp_directory_path() /
               ("conopt_test_stats_dist_" +
                std::to_string(uint64_t(::getpid())) + "_" +
                std::to_string(counter()++));
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }

    std::string
    file(const std::string &name) const
    {
        return (path / name).string();
    }

    static unsigned &
    counter()
    {
        static unsigned c = 0;
        return c;
    }
};

} // namespace

// ---------------------------------------------------------------------------
// PercentileAccumulator: nearest-rank contract and the lazy-sort cache.
// ---------------------------------------------------------------------------

TEST(PercentileAccumulator, NearestRankOnKnownValues)
{
    pipeline::PercentileAccumulator acc;
    // Insertion order must not matter.
    for (double x : {7.0, 1.0, 10.0, 4.0, 2.0, 9.0, 5.0, 3.0, 8.0, 6.0})
        acc.add(x);
    ASSERT_EQ(acc.count(), 10u);
    EXPECT_EQ(acc.percentile(50), 5.0);  // rank ceil(5.0) = 5
    EXPECT_EQ(acc.percentile(10), 1.0);  // rank ceil(1.0) = 1
    EXPECT_EQ(acc.percentile(95), 10.0); // rank ceil(9.5) = 10
    EXPECT_EQ(acc.percentile(99), 10.0);
    EXPECT_EQ(acc.percentile(100), 10.0);
    EXPECT_EQ(acc.min(), 1.0);
    EXPECT_EQ(acc.max(), 10.0);
    // The documented clamp: p <= 0 returns min(), p > 100 returns max().
    EXPECT_EQ(acc.percentile(0), acc.min());
    EXPECT_EQ(acc.percentile(-5), acc.min());
    EXPECT_EQ(acc.percentile(200), acc.max());
}

TEST(PercentileAccumulator, LazySortSurvivesInterleavedAddsAndQueries)
{
    pipeline::PercentileAccumulator acc;
    for (double x : {3.0, 1.0, 2.0})
        acc.add(x);
    // Query sorts the cache...
    EXPECT_EQ(acc.percentile(50), 2.0);
    EXPECT_EQ(acc.max(), 3.0);
    // ...and a later add must dirty it again, not append past a sorted
    // prefix that queries then misread.
    acc.add(0.5);
    EXPECT_EQ(acc.min(), 0.5);
    EXPECT_EQ(acc.percentile(50), 1.0); // {0.5,1,2,3}: rank ceil(2.0) = 2
    acc.add(10.0);
    EXPECT_EQ(acc.max(), 10.0);
    EXPECT_EQ(acc.percentile(50), 2.0); // {0.5,1,2,3,10}: rank 3
}

TEST(PercentileAccumulator, EmptyReturnsZeroEverywhere)
{
    pipeline::PercentileAccumulator acc;
    EXPECT_TRUE(acc.empty());
    EXPECT_EQ(acc.percentile(50), 0.0);
    EXPECT_EQ(acc.min(), 0.0);
    EXPECT_EQ(acc.max(), 0.0);
}

// ---------------------------------------------------------------------------
// ReservoirAccumulator: determinism and the bounded-memory contract.
// ---------------------------------------------------------------------------

TEST(ReservoirAccumulator, KeepsFirstSamplesVerbatimBelowCapacity)
{
    pipeline::ReservoirAccumulator acc(8, /*seed=*/1);
    for (double x : {5.0, 3.0, 9.0})
        acc.add(x);
    EXPECT_EQ(acc.seen(), 3u);
    EXPECT_EQ(acc.samples(), (std::vector<double>{5.0, 3.0, 9.0}));
}

TEST(ReservoirAccumulator, DeterministicForFixedSeedAndStream)
{
    const auto fill = [](uint64_t seed) {
        pipeline::ReservoirAccumulator acc(16, seed);
        for (int i = 0; i < 1000; ++i)
            acc.add(double(i % 97) * 0.25);
        return acc;
    };
    const auto a = fill(42), b = fill(42), c = fill(43);
    EXPECT_EQ(a.seen(), 1000u);
    EXPECT_EQ(a.samples().size(), 16u) << "reservoir must stay bounded";
    EXPECT_EQ(a.samples(), b.samples())
        << "same seed + same stream must reproduce the same reservoir";
    EXPECT_NE(a.samples(), c.samples())
        << "a different seed should draw different replacement slots";
}

TEST(ReservoirAccumulator, PercentileMatchesExactAccumulatorOverReservoir)
{
    pipeline::ReservoirAccumulator acc(32, 7);
    for (int i = 0; i < 500; ++i)
        acc.add(double((i * 31) % 101));
    pipeline::PercentileAccumulator exact;
    for (double x : acc.samples())
        exact.add(x);
    for (double p : {50.0, 95.0, 99.0, 100.0})
        EXPECT_EQ(acc.percentile(p), exact.percentile(p)) << p;
}

// ---------------------------------------------------------------------------
// MovingAverage: trailing-window mean.
// ---------------------------------------------------------------------------

TEST(MovingAverage, AveragesTheTrailingWindowOnly)
{
    pipeline::MovingAverage ma(4);
    EXPECT_TRUE(ma.empty());
    EXPECT_EQ(ma.value(), 0.0);
    ma.add(1.0);
    ma.add(2.0);
    ma.add(3.0);
    EXPECT_DOUBLE_EQ(ma.value(), 2.0); // partial window: mean of 3
    ma.add(4.0);
    EXPECT_DOUBLE_EQ(ma.value(), 2.5);
    ma.add(5.0); // evicts the 1.0
    EXPECT_DOUBLE_EQ(ma.value(), 3.5);
    EXPECT_EQ(ma.count(), 5u);
    EXPECT_EQ(ma.window(), 4u);
    ma.clear();
    EXPECT_TRUE(ma.empty());
    EXPECT_EQ(ma.value(), 0.0);
}

// ---------------------------------------------------------------------------
// IPC sampling: host-side observability, never simulated-state drift.
// ---------------------------------------------------------------------------

TEST(IpcSampling, NeverPerturbsSimStatsAndMatchesAcrossFastForward)
{
    const std::vector<std::string> workloads{"mcf", "untst"};
    const std::vector<std::pair<const char *, pipeline::MachineConfig>>
        models{{"base", pipeline::MachineConfig::baseline()},
               {"opt", pipeline::MachineConfig::optimized()}};

    sim::SimSession plain; // sampling off (the default)
    sim::SimSession sampledOn, sampledOff;
    sampledOn.setIpcSampling(500, 64, /*seed=*/9);
    sampledOff.setIpcSampling(500, 64, /*seed=*/9);
    sampledOff.setFastForward(false);

    bool sawSamples = false;
    for (const auto &wl : workloads) {
        const auto program = programOf(wl);
        for (const auto &[name, cfg] : models) {
            const std::string what = wl + "/" + std::string(name);
            const auto ref = plain.simulate(program, cfg);
            const auto on = sampledOn.simulate(program, cfg);
            const auto off = sampledOff.simulate(program, cfg);

            // Sampling must be invisible in the simulated results.
            EXPECT_EQ(ref.stats.cycles, on.stats.cycles) << what;
            EXPECT_EQ(ref.stats.retired, on.stats.retired) << what;
            EXPECT_EQ(ref.stats.mispredicted, on.stats.mispredicted)
                << what;
            EXPECT_EQ(ref.stats.dl1Misses, on.stats.dl1Misses) << what;
            EXPECT_EQ(ref.stats.opt.earlyExecuted,
                      on.stats.opt.earlyExecuted)
                << what;
            EXPECT_EQ(ref.stats.mbc.hits, on.stats.mbc.hits) << what;
            EXPECT_EQ(ref.instructions, on.instructions) << what;
            EXPECT_EQ(ref.halted, on.halted) << what;
            EXPECT_EQ(ref.ipcSamplesSeen, 0u)
                << "sampling-off runs must carry no samples";
            EXPECT_TRUE(ref.ipcSamples.empty());

            // Fast-forward on/off retire on identical cycles, so the
            // per-interval IPC samples must be bit-identical too.
            EXPECT_EQ(on.stats.cycles, off.stats.cycles) << what;
            EXPECT_EQ(on.ipcSamplesSeen, off.ipcSamplesSeen) << what;
            EXPECT_EQ(on.ipcSamples, off.ipcSamples) << what;
            if (!on.ipcSamples.empty())
                sawSamples = true;
        }
    }
    EXPECT_TRUE(sawSamples)
        << "no run produced samples: the equivalence tested nothing";
}

TEST(IpcSampling, RepeatedRunsOnAWarmSessionReproduceTheReservoir)
{
    const auto program = programOf("g721d");
    const auto cfg = pipeline::MachineConfig::optimized();
    sim::SimSession s;
    s.setIpcSampling(300, 32, /*seed=*/5);
    const auto a = s.simulate(program, cfg);
    const auto b = s.simulate(program, cfg);
    ASSERT_FALSE(a.ipcSamples.empty());
    EXPECT_EQ(a.ipcSamplesSeen, b.ipcSamplesSeen);
    EXPECT_EQ(a.ipcSamples, b.ipcSamples)
        << "reset() must re-arm the reservoir, not accumulate across runs";
}

// ---------------------------------------------------------------------------
// Sweep-level distribution block: shard merge == unsharded, exactly.
// ---------------------------------------------------------------------------

TEST(ShardedDistribution, MergedShardPercentilesMatchUnsharded)
{
    const auto spec = smallSpec();
    sim::SweepOptions base;
    base.run.threads = 2;
    base.run.ipcSampleInterval = 200;
    base.ipcReservoirCapacity = 32;

    sim::SweepRunner full(base);
    const auto res = full.run(spec);
    auto artFull = sim::BenchArtifact::fromSweep(res);
    artFull.bench = "dist_test";
    artFull.addIpcSamples(res);
    artFull.addDistributionFromJobs();
    ASSERT_TRUE(artFull.ipcDist.measured());
    EXPECT_FALSE(artFull.hostDist.measured())
        << "no addPerf() ran, so host seconds must stay unmeasured";

    TempDir tmp;
    std::string err;
    for (unsigned i = 0; i < 2; ++i) {
        sim::SweepOptions o = base;
        o.run.shard = {i, 2};
        sim::SweepRunner part(o);
        const auto shardRes = part.run(spec);
        auto shard = sim::BenchArtifact::fromSweep(shardRes);
        shard.bench = "dist_test";
        shard.addIpcSamples(shardRes);
        // Per the merge contract, shards defer the distribution block.
        ASSERT_TRUE(shard.save(
            tmp.file("shard" + std::to_string(i) + ".json"), &err))
            << err;
    }

    sim::BenchArtifact merged;
    ASSERT_TRUE(sim::loadArtifactOrShards(tmp.path.string(), &merged,
                                          &err))
        << err;
    ASSERT_EQ(merged.jobs.size(), artFull.jobs.size());

    // The per-job reservoirs are seeded with job.seed, which the shard
    // partition preserves, so shard samples equal unsharded samples
    // label for label...
    for (const auto &j : artFull.jobs) {
        const sim::ArtifactJob *m = nullptr;
        for (const auto &k : merged.jobs)
            if (k.label == j.label)
                m = &k;
        ASSERT_NE(m, nullptr) << j.label;
        EXPECT_EQ(m->ipcSamplesSeen, j.ipcSamplesSeen) << j.label;
        EXPECT_EQ(m->ipcSamples, j.ipcSamples) << j.label;
        EXPECT_EQ(m->ipcP50, j.ipcP50) << j.label;
        EXPECT_EQ(m->ipcP95, j.ipcP95) << j.label;
        EXPECT_EQ(m->ipcP99, j.ipcP99) << j.label;
    }
    // ...and the post-merge recompute pools identical multisets, so the
    // sweep-level block is exactly the unsharded one.
    EXPECT_TRUE(merged.ipcDist == artFull.ipcDist);
    EXPECT_TRUE(merged.hostDist == artFull.hostDist);
}

// ---------------------------------------------------------------------------
// Artifact compatibility: the fields are optional and never gated.
// ---------------------------------------------------------------------------

TEST(ArtifactCompat, UnsampledArtifactsCarryNoDistributionFields)
{
    sim::SweepRunner runner({2, nullptr});
    const auto res = runner.run(smallSpec());
    auto art = sim::BenchArtifact::fromSweep(res);
    art.bench = "dist_test";
    art.addGeomeans(res, "base", {"opt"});
    art.addIpcSamples(res);       // no samples recorded: must be a no-op
    art.addDistributionFromJobs(); // nothing measured: must be a no-op

    const std::string json = art.toJson();
    EXPECT_EQ(json.find("ipc_samples"), std::string::npos);
    EXPECT_EQ(json.find("distribution"), std::string::npos);

    // Parse -> reserialize is byte-identical: the schema did not move
    // under existing artifacts.
    sim::BenchArtifact back;
    std::string err;
    ASSERT_TRUE(sim::parseArtifact(json, &back, &err)) << err;
    EXPECT_EQ(back.toJson(), json);
}

TEST(ArtifactCompat, SampledArtifactsRoundTripByteIdentically)
{
    sim::SweepOptions o;
    o.run.threads = 2;
    o.run.ipcSampleInterval = 200;
    o.ipcReservoirCapacity = 16;
    sim::SweepRunner runner(o);
    const auto res = runner.run(smallSpec());
    auto art = sim::BenchArtifact::fromSweep(res);
    art.bench = "dist_test";
    art.addIpcSamples(res);
    art.addDistributionFromJobs();

    const std::string json = art.toJson();
    EXPECT_NE(json.find("ipc_samples"), std::string::npos);
    EXPECT_NE(json.find("\"distribution\""), std::string::npos);

    sim::BenchArtifact back;
    std::string err;
    ASSERT_TRUE(sim::parseArtifact(json, &back, &err)) << err;
    EXPECT_EQ(back.toJson(), json);
}

TEST(ArtifactCompat, CompareArtifactsIgnoresDistributionFields)
{
    // The same sweep with and without sampling must gate clean at
    // tolerance 0 in both directions: distribution fields are
    // observability, never science.
    const auto spec = smallSpec();
    sim::SweepRunner plain({2, nullptr});
    auto artPlain = sim::BenchArtifact::fromSweep(plain.run(spec));
    artPlain.bench = "dist_test";

    sim::SweepOptions o;
    o.run.threads = 2;
    o.run.ipcSampleInterval = 200;
    sim::SweepRunner sampled(o);
    const auto res = sampled.run(spec);
    auto artSampled = sim::BenchArtifact::fromSweep(res);
    artSampled.bench = "dist_test";
    artSampled.addIpcSamples(res);
    artSampled.addDistributionFromJobs();

    EXPECT_TRUE(sim::compareArtifacts(artPlain, artSampled, {0.0}).ok);
    EXPECT_TRUE(sim::compareArtifacts(artSampled, artPlain, {0.0}).ok);
}
