/**
 * @file
 * conopt_sweep sharded-driver tests.
 *
 * The load-bearing properties:
 *   - the driver-merged artifact is byte-identical to the unsharded
 *     run (after the canonical sort + geomean recompute the driver
 *     performs), so one-command sharding never changes the
 *     science;
 *   - a crashed, killed, or hung shard is a hard failure (exit 2)
 *     with its captured stderr surfaced — never a silently thinner
 *     merged artifact (a shard that "succeeds" without writing its
 *     artifact is caught too);
 *   - bounded retry recovers a transient shard failure without
 *     double-counting its partial artifact;
 *   - CLI and progress-line parsing reject malformed input up front,
 *     including the retired remote and daemon flags.
 *
 * The test binary doubles as the bench binary the driver launches:
 * when CONOPT_DRIVER_TEST_CHILD is set, main() dispatches to a child
 * mode (a real 6-job sweep through the bench harness, a crash, a
 * SIGKILL, a hang, or a fail-once-then-succeed bench) instead of
 * running GoogleTest, so the whole spawn/stream/retry/merge/gate path
 * is exercised with no fixtures outside the build tree.
 */

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_common.hh"
#include "src/sim/baseline.hh"
#include "src/sim/driver.hh"
#include "src/sim/sweep.hh"

using namespace conopt;
namespace fs = std::filesystem;

namespace {

/** The sweep every "bench" child runs: 3 workloads x 2 machines. */
sim::SweepSpec
childSpec()
{
    sim::SweepSpec spec;
    spec.workloads({"untst", "mcf", "g721d"})
        .config("base", pipeline::MachineConfig::baseline())
        .config("opt", pipeline::MachineConfig::optimized());
    return spec;
}

/** The bench name the child reports; must match this binary's
 *  basename so the driver's derived name finds the artifacts. */
constexpr const char *kChildBench = "test_sweep_driver";

// Sanitizer instrumentation slows the simulated work inside each shard
// several-fold, so the lingering-child test scales the straggler's
// sleep and the finalize deadline together — the test must keep
// discriminating "finalized on the shard's own exit" from "waited the
// straggler out for pipe EOF" at either speed.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr int kLingerDeciseconds = 900;
// Must stay well under the straggler's 90 s sleep to keep its
// discriminating power, but high enough that sanitized shards on a
// contended CI box don't trip it on the pass path.
constexpr double kFinalizeBoundSeconds = 70.0;
#else
constexpr int kLingerDeciseconds = 300;
constexpr double kFinalizeBoundSeconds = 15.0;
#endif

std::string
shardArgOf(int argc, char **argv)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], "--shard") == 0)
            return argv[i + 1];
    return "none";
}

/** Child-mode entry: this binary re-exec'd by the driver as a shard. */
int
childMain(const std::string &mode, int argc, char **argv)
{
    if (mode == "crash") {
        std::fprintf(stderr, "boom: injected shard crash\n");
        return 3;
    }
    if (mode == "kill") {
        std::fprintf(stderr, "about to die to SIGKILL\n");
        std::fflush(nullptr);
        ::raise(SIGKILL);
        return 9; // unreachable
    }
    if (mode == "hang") {
        std::fprintf(stderr, "hanging until killed\n");
        std::fflush(nullptr);
        for (;;)
            ::pause();
    }
    if (mode == "flaky") {
        // Fail exactly once per shard (a marker file remembers the
        // first attempt), then behave like a normal bench.
        const char *dir = std::getenv("CONOPT_DRIVER_TEST_MARKER");
        if (!dir) {
            std::fprintf(stderr, "flaky mode without marker dir\n");
            return 4;
        }
        std::string shard = shardArgOf(argc, argv);
        for (auto &c : shard)
            if (c == '/')
                c = '_';
        const std::string marker =
            std::string(dir) + "/attempt." + shard;
        if (!fs::exists(marker)) {
            if (std::FILE *f = std::fopen(marker.c_str(), "w"))
                std::fclose(f);
            std::fprintf(stderr, "flaky: injected transient failure\n");
            return 1;
        }
    } else if (mode == "linger") {
        // Leak our stdout/stderr/progress write ends to a background
        // child that outlives us: the classic fd-inheriting daemonized
        // helper. The driver must finalize this shard on its own exit
        // shortly after, not wait the straggler out for pipe EOF.
        if (::fork() == 0) {
            for (int i = 0; i < kLingerDeciseconds; ++i)
                ::usleep(100000);
            ::_exit(0);
        }
    } else if (mode != "bench") {
        std::fprintf(stderr, "unknown child mode '%s'\n", mode.c_str());
        return 4;
    }
    const bench::HarnessOptions hopts = bench::harnessInit(argc, argv);
    sim::SweepRunner runner(hopts.sweepOptions());
    const auto res = runner.run(childSpec());
    return bench::finishSweep(kChildBench, res, "base", {"opt"}, hopts);
}

/** Scratch directory, removed on destruction. */
struct TempDir
{
    fs::path path;

    TempDir()
    {
        path = fs::temp_directory_path() /
               ("conopt_test_sweep_driver_" +
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

/** setenv for the lifetime of a test (driver children inherit it). */
struct EnvGuard
{
    std::string name;

    EnvGuard(const char *n, const std::string &v) : name(n)
    {
        ::setenv(n, v.c_str(), 1);
    }
    ~EnvGuard() { ::unsetenv(name.c_str()); }
};

std::string
selfExePath()
{
    return fs::read_symlink("/proc/self/exe").string();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Driver options pointing at this binary in child-bench mode. */
sim::DriverOptions
childDriverOptions(const TempDir &tmp, unsigned shards)
{
    sim::DriverOptions o;
    o.benchPath = selfExePath();
    o.benchName = kChildBench;
    o.shards = shards;
    o.run.artifactDir = tmp.path.string();
    return o;
}

/** The unsharded in-process reference artifact, canonicalized the way
 *  the driver canonicalizes its merge. */
sim::BenchArtifact
referenceArtifact()
{
    sim::SweepRunner full({2, nullptr});
    const auto res = full.run(childSpec());
    auto art = sim::BenchArtifact::fromSweep(res);
    art.bench = kChildBench;
    art.sortJobsByLabel();
    art.addGeomeansFromJobs("base", {"opt"});
    return art;
}

} // namespace

int
main(int argc, char **argv)
{
    if (const char *mode = std::getenv("CONOPT_DRIVER_TEST_CHILD"))
        return childMain(mode, argc, argv);
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}

// ---------------------------------------------------------------------------
// Progress line protocol.
// ---------------------------------------------------------------------------

TEST(ProgressLine, FormatParseRoundTripsExactly)
{
    sim::SweepProgress p;
    p.done = 3;
    p.total = 11;
    p.label = "mcf/base";
    p.jobHostSeconds = 0.1257;
    p.totalHostSeconds = 1.03125;
    p.elapsedSeconds = 2.5;
    p.etaSeconds = 7.333333333333333;
    p.geomeanIpc = 1.0213897;

    const std::string line = sim::formatProgressLine(p);
    EXPECT_EQ(line.rfind(sim::kProgressLineTag, 0), 0u) << line;

    sim::SweepProgress q;
    ASSERT_TRUE(sim::parseProgressLine(line, &q)) << line;
    EXPECT_EQ(q.done, p.done);
    EXPECT_EQ(q.total, p.total);
    EXPECT_EQ(q.label, p.label);
    // %.17g is lossless for doubles, so the round trip is exact.
    EXPECT_EQ(q.jobHostSeconds, p.jobHostSeconds);
    EXPECT_EQ(q.totalHostSeconds, p.totalHostSeconds);
    EXPECT_EQ(q.elapsedSeconds, p.elapsedSeconds);
    EXPECT_EQ(q.etaSeconds, p.etaSeconds);
    EXPECT_EQ(q.geomeanIpc, p.geomeanIpc);

    // A trailing newline (the wire form) is tolerated.
    EXPECT_TRUE(sim::parseProgressLine(line + "\n", &q));
}

TEST(ProgressLine, RejectsMalformedLines)
{
    sim::SweepProgress q;
    for (const char *bad : {
             "",
             "CONOPT-PROGRESS",
             "CONOPT-PROGRESS v1",
             "CONOPT-PROGRESS v2 done=1 total=2 label=x", // wrong version
             "CONOPT-PROGRESS v1 done=x total=2 label=x", // bad number
             "CONOPT-PROGRESS v1 done=1 total=2",         // no label
             "CONOPT-PROGRESS v1 done=1 label=x",         // no total
             "CONOPT-PROGRESS v1 total=2 label=x",        // no done
             "CONOPT-PROGRESS v1 done=1 total=2 eta_s=nope label=x",
             "[sweep]   9/44  gzp/base  12.31s", // the human line
         })
        EXPECT_FALSE(sim::parseProgressLine(bad, &q)) << bad;

    // Unknown keys are skipped (forward compatibility within v1).
    EXPECT_TRUE(sim::parseProgressLine(
        "CONOPT-PROGRESS v1 done=1 total=2 newfield=zzz label=x", &q));
    EXPECT_EQ(q.label, "x");
}

// ---------------------------------------------------------------------------
// Shard command composition.
// ---------------------------------------------------------------------------

TEST(ShardArtifactName, MatchesHarnessConvention)
{
    EXPECT_EQ(sim::shardArtifactName("fig6_speedup", 1, 2),
              "BENCH_fig6_speedup.shard1of2.json");
    // An unsharded run of one shard writes the plain artifact name.
    EXPECT_EQ(sim::shardArtifactName("fig6_speedup", 0, 1),
              "BENCH_fig6_speedup.json");
}

TEST(BuildShardArgv, LocalDirectExec)
{
    sim::DriverOptions o;
    o.benchPath = "/bin/bench_bin";
    o.benchName = "bench_bin";
    o.shards = 2;
    o.run.artifactDir = "out";
    o.run.resultCacheDir = "rc";
    const auto argv = sim::buildShardArgv(o, 1);
    const std::vector<std::string> want = {
        "/bin/bench_bin", "--shard",       "1/2",
        "--artifact-dir", "out/bench_bin.shards",
        "--result-cache", "rc",
        "--progress-fd",  "3"};
    EXPECT_EQ(argv, want);
}

// ---------------------------------------------------------------------------
// CLI parsing.
// ---------------------------------------------------------------------------

TEST(ParseDriverArgs, AcceptsAFullyLoadedCommandLine)
{
    sim::DriverOptions o;
    std::string err;
    ASSERT_TRUE(sim::parseDriverArgs(
        {"--shards", "4", "--baseline", "bench/baselines",
         "--result-cache", "rc", "--recompute-geomeans", "base",
         "--timeout", "2.5", "--retries", "0", "--artifact-dir", "out",
         "--tolerance", "0.01", "fig6_speedup", "--", "--progress"},
        &o, &err))
        << err;
    EXPECT_EQ(o.shards, 4u);
    EXPECT_EQ(o.benchPath, "fig6_speedup");
    EXPECT_EQ(o.benchName, "fig6_speedup");
    EXPECT_EQ(o.run.baselinePath, "bench/baselines");
    EXPECT_EQ(o.run.resultCacheDir, "rc");
    EXPECT_EQ(o.geomeanBase, "base");
    EXPECT_DOUBLE_EQ(o.timeoutSeconds, 2.5);
    EXPECT_EQ(o.retries, 0u);
    EXPECT_DOUBLE_EQ(o.run.tolerance, 0.01);
    EXPECT_EQ(o.run.artifactDir, "out");
    EXPECT_EQ(o.benchArgs, std::vector<std::string>{"--progress"});

    // A path-y bench derives its name from the basename.
    ASSERT_TRUE(sim::parseDriverArgs({"build/table1_workloads"}, &o,
                                     &err))
        << err;
    EXPECT_EQ(o.benchName, "table1_workloads");
}

TEST(ParseDriverArgs, RejectsMalformedInput)
{
    sim::DriverOptions o;
    std::string err;
    std::vector<std::vector<std::string>> bad = {
        {},                                    // missing bench
        {"--shards", "0", "b"},                // zero shards
        {"--shards", "2x", "b"},               // trailing garbage
        {"--shards", "-1", "b"},               // negative
        {"--shards", "b"},                     // missing value... "b" eaten
        {"--retries", "-2", "b"},              // negative retries
        {"--retries", "abc", "b"},             // garbage retries
        {"--timeout", "abc", "b"},             // garbage timeout
        {"--timeout", "-1", "b"},              // negative timeout
        {"--tolerance", "x", "b"},             // garbage tolerance
        {"--recompute-geomeans", "", "b"},     // empty base config
        {"--bench-name", "a/b", "b"},          // separator in name
        {"--bogus", "b"},                      // unknown flag
        {"bench1", "bench2"},                  // two positionals
    };
    // The retired remote-launch and daemon flags (name, value): a stale
    // script must fail loudly instead of silently running locally.
    const std::vector<std::vector<std::string>> retired = {
        {"connect", "a:1"}, {"ssh", "h1"}, {"launcher", "{cmd}"}};
    for (const auto &r : retired)
        bad.push_back({std::string("--") + r[0], r[1], "b"});
    for (const auto &args : bad) {
        EXPECT_FALSE(sim::parseDriverArgs(args, &o, &err))
            << "accepted:" << ::testing::PrintToString(args);
        EXPECT_FALSE(err.empty());
    }
    // They are rejected as unknown flags, so conopt_sweep exits 2.
    for (size_t i = bad.size() - retired.size(); i < bad.size(); ++i) {
        EXPECT_FALSE(sim::parseDriverArgs(bad[i], &o, &err));
        EXPECT_NE(err.find("unknown flag"), std::string::npos) << err;
        EXPECT_EQ(sim::sweepDriverMain(bad[i]), 2) << bad[i][0];
    }
}

// ---------------------------------------------------------------------------
// End-to-end: spawn, stream, merge, gate.
// ---------------------------------------------------------------------------

TEST(SweepDriverRun, MergedArtifactByteIdenticalToUnshardedRun)
{
    TempDir tmp;
    EnvGuard mode("CONOPT_DRIVER_TEST_CHILD", "bench");

    auto o = childDriverOptions(tmp, 2);
    o.geomeanBase = "base";
    const auto out = sim::runSweepDriver(o);
    ASSERT_EQ(out.exitCode, 0) << out.error;
    ASSERT_EQ(out.shards.size(), 2u);
    for (const auto &s : out.shards) {
        EXPECT_TRUE(s.ok) << "shard " << s.index;
        EXPECT_EQ(s.attempts, 1u);
        EXPECT_FALSE(s.timedOut);
        // 3 jobs per shard, one CONOPT-PROGRESS line per job.
        EXPECT_EQ(s.progressLines, 3u) << "shard " << s.index;
    }
    ASSERT_FALSE(out.mergedArtifactPath.empty());

    const std::string mergedJson = readFile(out.mergedArtifactPath);
    ASSERT_FALSE(mergedJson.empty());
    EXPECT_EQ(mergedJson, referenceArtifact().toJson());
}

TEST(SweepDriverRun, SingleShardRunStillMergesAndWritesArtifact)
{
    TempDir tmp;
    EnvGuard mode("CONOPT_DRIVER_TEST_CHILD", "bench");

    auto o = childDriverOptions(tmp, 1);
    o.geomeanBase = "base";
    const auto out = sim::runSweepDriver(o);
    ASSERT_EQ(out.exitCode, 0) << out.error;
    EXPECT_EQ(readFile(out.mergedArtifactPath),
              referenceArtifact().toJson());
}

TEST(SweepDriverRun, GatesMergedArtifactAgainstBaseline)
{
    TempDir tmp;
    EnvGuard mode("CONOPT_DRIVER_TEST_CHILD", "bench");

    auto baseline = referenceArtifact();
    std::string err;
    ASSERT_TRUE(baseline.save(tmp.file("baseline.json"), &err)) << err;

    auto o = childDriverOptions(tmp, 2);
    o.run.artifactDir = (tmp.path / "run_ok").string();
    o.geomeanBase = "base";
    o.run.baselinePath = tmp.file("baseline.json");
    EXPECT_EQ(sim::runSweepDriver(o).exitCode, 0);

    // Any cycle perturbation in the baseline must gate as drift (1),
    // with the offending label reported.
    baseline.jobs[0].cycles += 1;
    ASSERT_TRUE(baseline.save(tmp.file("drift.json"), &err)) << err;
    auto o2 = childDriverOptions(tmp, 2);
    o2.run.artifactDir = (tmp.path / "run_drift").string();
    o2.geomeanBase = "base";
    o2.run.baselinePath = tmp.file("drift.json");
    const auto drift = sim::runSweepDriver(o2);
    EXPECT_EQ(drift.exitCode, 1);
    EXPECT_FALSE(drift.gateDiffs.empty());
}

TEST(SweepDriverRun, CrashedShardFailsHardWithStderrSurfaced)
{
    TempDir tmp;
    EnvGuard mode("CONOPT_DRIVER_TEST_CHILD", "crash");

    auto o = childDriverOptions(tmp, 2);
    o.retries = 1;
    const auto out = sim::runSweepDriver(o);
    EXPECT_EQ(out.exitCode, 2);
    EXPECT_NE(out.error.find("failed"), std::string::npos) << out.error;
    EXPECT_TRUE(out.mergedArtifactPath.empty())
        << "a failed run must not merge";
    ASSERT_EQ(out.shards.size(), 2u);
    for (const auto &s : out.shards) {
        EXPECT_FALSE(s.ok);
        EXPECT_EQ(s.exitStatus, 3);
        // The retry budget was spent before giving up.
        EXPECT_EQ(s.attempts, 2u);
        EXPECT_NE(s.outputTail.find("boom: injected shard crash"),
                  std::string::npos)
            << s.outputTail;
    }
}

TEST(SweepDriverRun, KilledShardMakesDriverExitNonzero)
{
    TempDir tmp;
    EnvGuard mode("CONOPT_DRIVER_TEST_CHILD", "kill");

    auto o = childDriverOptions(tmp, 2);
    o.retries = 0;
    const auto out = sim::runSweepDriver(o);
    EXPECT_EQ(out.exitCode, 2);
    ASSERT_EQ(out.shards.size(), 2u);
    for (const auto &s : out.shards) {
        EXPECT_FALSE(s.ok);
        EXPECT_EQ(s.attempts, 1u);
        EXPECT_EQ(s.exitStatus, -SIGKILL);
    }
}

TEST(SweepDriverRun, HungShardIsKilledAtTheTimeout)
{
    TempDir tmp;
    EnvGuard mode("CONOPT_DRIVER_TEST_CHILD", "hang");

    auto o = childDriverOptions(tmp, 1);
    o.retries = 0;
    o.timeoutSeconds = 0.5;
    const auto out = sim::runSweepDriver(o);
    EXPECT_EQ(out.exitCode, 2);
    ASSERT_EQ(out.shards.size(), 1u);
    EXPECT_FALSE(out.shards[0].ok);
    EXPECT_TRUE(out.shards[0].timedOut);
    EXPECT_EQ(out.shards[0].exitStatus, -SIGKILL);
}

TEST(SweepDriverRun, LingeringChildHoldingPipesDoesNotHangTheFleet)
{
    TempDir tmp;
    EnvGuard mode("CONOPT_DRIVER_TEST_CHILD", "linger");

    auto o = childDriverOptions(tmp, 1);
    o.geomeanBase = "base";
    const auto t0 = std::chrono::steady_clock::now();
    const auto out = sim::runSweepDriver(o);
    const double took =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    ASSERT_EQ(out.exitCode, 0) << out.error;
    // The straggler sleeps kLingerDeciseconds holding the pipe write
    // ends; the driver must finalize on the shard's own exit plus the
    // short drain grace instead.
    EXPECT_LT(took, kFinalizeBoundSeconds);
    EXPECT_EQ(readFile(out.mergedArtifactPath),
              referenceArtifact().toJson());
}

TEST(SweepDriverRun, RetryRecoversATransientShardFailure)
{
    TempDir tmp;
    EnvGuard mode("CONOPT_DRIVER_TEST_CHILD", "flaky");
    EnvGuard marker("CONOPT_DRIVER_TEST_MARKER", tmp.path.string());

    auto o = childDriverOptions(tmp, 2);
    o.retries = 1;
    o.geomeanBase = "base";
    const auto out = sim::runSweepDriver(o);
    ASSERT_EQ(out.exitCode, 0) << out.error;
    for (const auto &s : out.shards) {
        EXPECT_TRUE(s.ok) << "shard " << s.index;
        EXPECT_EQ(s.attempts, 2u) << "shard " << s.index;
    }
    // The recovered run's merge is still exactly the unsharded run.
    EXPECT_EQ(readFile(out.mergedArtifactPath),
              referenceArtifact().toJson());
}

TEST(SweepDriverRun, TransientFailureWithoutRetryBudgetStaysFatal)
{
    TempDir tmp;
    EnvGuard mode("CONOPT_DRIVER_TEST_CHILD", "flaky");
    EnvGuard marker("CONOPT_DRIVER_TEST_MARKER", tmp.path.string());

    auto o = childDriverOptions(tmp, 2);
    o.retries = 0;
    const auto out = sim::runSweepDriver(o);
    EXPECT_EQ(out.exitCode, 2);
    for (const auto &s : out.shards) {
        EXPECT_FALSE(s.ok);
        EXPECT_EQ(s.attempts, 1u);
        EXPECT_NE(s.outputTail.find("transient failure"),
                  std::string::npos);
    }
}

TEST(SweepDriverRun, ShardThatWritesNoArtifactIsAHardError)
{
    TempDir tmp;
    EnvGuard mode("CONOPT_DRIVER_TEST_CHILD", "bench");

    // --no-artifact makes every shard exit 0 without writing its file:
    // the classic silently-thinner-merge hazard the driver must catch.
    auto o = childDriverOptions(tmp, 2);
    o.benchArgs = {"--no-artifact"};
    const auto out = sim::runSweepDriver(o);
    EXPECT_EQ(out.exitCode, 2);
    EXPECT_NE(out.error.find("missing"), std::string::npos) << out.error;
    for (const auto &s : out.shards)
        EXPECT_TRUE(s.ok) << "the shards themselves exited 0";
}

TEST(SweepDriverRun, BenchFlagErrorSurfacesInCapturedOutput)
{
    TempDir tmp;
    EnvGuard mode("CONOPT_DRIVER_TEST_CHILD", "bench");

    auto o = childDriverOptions(tmp, 2);
    o.benchArgs = {"--definitely-bogus-flag"};
    o.retries = 0;
    const auto out = sim::runSweepDriver(o);
    EXPECT_EQ(out.exitCode, 2);
    ASSERT_EQ(out.shards.size(), 2u);
    EXPECT_EQ(out.shards[0].exitStatus, 2);
    EXPECT_NE(out.shards[0].outputTail.find("unknown argument"),
              std::string::npos)
        << out.shards[0].outputTail;
}

TEST(SweepDriverRun, MissingBenchBinaryFailsBeforeSpawning)
{
    TempDir tmp;
    sim::DriverOptions o;
    o.benchPath = tmp.file("no_such_bench");
    o.benchName = "no_such_bench";
    o.shards = 2;
    o.run.artifactDir = tmp.path.string();
    const auto out = sim::runSweepDriver(o);
    EXPECT_EQ(out.exitCode, 2);
    EXPECT_NE(out.error.find("not found"), std::string::npos)
        << out.error;
    EXPECT_TRUE(out.shards.empty());
}
