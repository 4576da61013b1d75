/**
 * @file
 * perfbench: the repository benchmark. Measures how fast the simulator
 * reproduces the paper's experiments, and checks on every pass that the
 * simulated numbers are exactly the checked-in ones.
 *
 *   perfbench --workload fig6-grid|functional --seed N --seconds S
 *             --trace 0|1
 *
 * Run from the repository root (the reference artifacts are read from
 * bench/baselines/). The seed permutes the order in which jobs are
 * submitted on each pass; the work itself never changes. A run sets up
 * several times (median reported as setup_s), then repeats whole passes
 * over the job list for S seconds. --trace 0 reports the end-to-end
 * metrics, timed on concurrent replicas of the workload (see
 * replicaCount); --trace 1 alternates untraced and traced passes, then
 * spans the calls into each layer (see perfbench/README.md) and reports
 * the per-layer metrics. The last line of standard output is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. Exit status is
 * 0 when every job matched its reference, 1 when any did not, 2 on a
 * usage or set-up error.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/layers.hh"
#include "perfbench/trace.hh"
#include "src/arch/emulator.hh"
#include "src/arch/predecode.hh"
#include "src/pipeline/machine_config.hh"
#include "src/pipeline/stats_aggregate.hh"
#include "src/sim/baseline.hh"
#include "src/sim/report.hh"
#include "src/sim/session.hh"
#include "src/sim/sweep.hh"
#include "src/workloads/workload.hh"

namespace {

using namespace conopt;
using perfbench::Metric;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;
using Clock = std::chrono::steady_clock;

/** Workload scale multiplier: the scale of the checked-in baselines, so
 *  every pass is gated against them at tolerance 0. */
constexpr unsigned kScale = 1;
/** Set-ups per run; setup_s is their median. */
constexpr int kSetupReps = 101;
/** Most concurrent replicas of an untraced run. */
constexpr unsigned kMaxReplicas = 3;
/** Per-job samples a run must hold: p90 then has >= 10 beyond it. */
constexpr size_t kMinJobSamples = 110;

const char *const kFig6Baseline = "bench/baselines/BENCH_fig6_speedup.json";
const char *const kTable1Baseline =
    "bench/baselines/BENCH_table1_workloads.json";

enum class Kind { Fig6Grid, Functional };

struct Args
{
    Kind kind = Kind::Fig6Grid;
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** Concurrent replicas of the untraced run: one per CPU but one, at
 *  most kMaxReplicas. More runs per job in the same wall time give each
 *  job more chances to run while its core is uncontended. */
unsigned
replicaCount()
{
    const unsigned cpus = std::thread::hardware_concurrency();
    return std::clamp(cpus > 1 ? cpus - 1 : 1u, 1u, kMaxReplicas);
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median (mean of the middle two for even sizes); 0 when empty. */
double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload fig6-grid|functional "
                 "--seed N --seconds S --trace 0|1\n",
                 msg.c_str());
    return 2;
}

bool
parseArgs(int argc, char **argv, Args *a, std::string *err)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            *err = "missing value for " + flag;
            return false;
        }
        const char *val = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a->workload = val;
            if (a->workload == "fig6-grid")
                a->kind = Kind::Fig6Grid;
            else if (a->workload == "functional")
                a->kind = Kind::Functional;
            else {
                *err = "unknown workload '" + a->workload + "'";
                return false;
            }
        } else if (flag == "--seed") {
            errno = 0;
            a->seed = std::strtoull(val, &end, 10);
            if (!*val || *end || errno || val[0] == '-') {
                *err = std::string("bad --seed '") + val + "'";
                return false;
            }
        } else if (flag == "--seconds") {
            a->seconds = std::strtod(val, &end);
            if (!*val || *end || !std::isfinite(a->seconds) ||
                a->seconds <= 0.0 || a->seconds > 600.0) {
                *err = std::string("bad --seconds '") + val +
                       "' (want 0 < S <= 600)";
                return false;
            }
        } else if (flag == "--trace") {
            if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
                *err = std::string("bad --trace '") + val + "' (want 0|1)";
                return false;
            }
            a->trace = val[0] == '1';
        } else {
            *err = "unknown flag '" + flag + "'";
            return false;
        }
    }
    if (a->workload.empty()) {
        *err = "--workload is required";
        return false;
    }
    return true;
}

/** fig6-grid: the paper's headline experiment, every Table 1 kernel
 *  under the baseline and optimized machines, kernel-major. */
std::vector<sim::SimJob>
gridJobs()
{
    const std::pair<std::string, pipeline::MachineConfig> configs[] = {
        {"base", pipeline::MachineConfig::baseline()},
        {"opt", pipeline::MachineConfig::optimized()}};
    std::vector<sim::SimJob> jobs;
    for (const auto &w : workloads::allWorkloads()) {
        for (const auto &[name, cfg] : configs) {
            sim::SimJob j;
            j.label = sim::SweepSpec::labelFor(w.name, name);
            j.workload = w.name;
            j.scale = w.defaultScale * kScale;
            j.config = cfg;
            j.configName = name;
            jobs.push_back(std::move(j));
        }
    }
    return jobs;
}

/** The submission order of pass @p pass: a permutation of 0..n-1 drawn
 *  from the seed, different on every pass. */
std::vector<size_t>
passOrder(size_t n, uint64_t seed, unsigned pass)
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + pass);
    std::shuffle(order.begin(), order.end(), rng);
    return order;
}

/** What one pass over the job list did. Per-job vectors are indexed
 *  by the job's position in the canonical (unpermuted) list. */
struct PassOut
{
    double wallS = 0.0;    ///< jobs + artifact + compare
    double runWallS = 0.0; ///< the jobs alone
    double busyS = 0.0;    ///< sum of per-job host seconds
    uint64_t insts = 0;
    std::vector<double> jobSeconds;
    std::vector<uint64_t> jobInsts;
    size_t failed = 0;
};

/**
 * Passes of one kind (traced or untraced) accumulated over a run, and
 * the estimators the run reports. Other tenants of the shared host
 * contend for cache and memory, which only ever slows a job down, so a
 * job's fastest run is the steadiest estimate of its own cost:
 *
 *  - job samples: each job contributes its `perJob` fastest runs of the
 *    whole run, giving jobs x perJob >= kMinJobSamples samples (>= 10
 *    beyond p90);
 *  - kips: one pass's instructions over the pass time the per-job
 *    bests imply, i.e. their sum over the measured worker utilisation,
 *    plus the pass's own artifact and compare time.
 */
struct PassStats
{
    unsigned perJob = 1;
    std::vector<std::vector<double>> jobSeconds; ///< [pass][job]
    std::vector<uint64_t> jobInsts;              ///< [job]
    std::vector<double> util;     ///< per pass: busy / run wall
    std::vector<double> harnessS; ///< per pass: wall outside the jobs
    size_t jobs = 0;
    size_t failed = 0;
    uint64_t insts = 0;
    double wallS = 0.0;

    void
    add(PassOut o)
    {
        util.push_back(o.busyS / o.runWallS);
        harnessS.push_back(o.wallS - o.runWallS);
        jobs += o.jobSeconds.size();
        failed += o.failed;
        insts += o.insts;
        wallS += o.wallS;
        jobInsts = std::move(o.jobInsts);
        jobSeconds.push_back(std::move(o.jobSeconds));
    }

    /** Take in the passes of another replica of the same workload. */
    void
    merge(PassStats o)
    {
        util.insert(util.end(), o.util.begin(), o.util.end());
        harnessS.insert(harnessS.end(), o.harnessS.begin(), o.harnessS.end());
        jobs += o.jobs;
        failed += o.failed;
        insts += o.insts;
        wallS += o.wallS;
        for (auto &s : o.jobSeconds)
            jobSeconds.push_back(std::move(s));
    }
    size_t passes() const { return jobSeconds.size(); }

    /** Seconds of every run of job @p j, fastest first. */
    std::vector<double>
    runs(size_t j) const
    {
        std::vector<double> s;
        for (const auto &pass : jobSeconds)
            s.push_back(pass[j]);
        std::sort(s.begin(), s.end());
        return s;
    }

    /** Host ns per simulated instruction: the perJob fastest runs of
     *  every job. */
    std::vector<double>
    jobSamples() const
    {
        std::vector<double> out;
        for (size_t j = 0; j < jobInsts.size(); ++j) {
            const std::vector<double> s = runs(j);
            for (size_t k = 0; k < std::min<size_t>(perJob, s.size()); ++k)
                out.push_back(s[k] * 1e9 / double(jobInsts[j]));
        }
        return out;
    }

    double
    kips() const
    {
        double bestS = 0.0;
        uint64_t passInsts = 0;
        for (size_t j = 0; j < jobInsts.size(); ++j) {
            bestS += runs(j).front();
            passInsts += jobInsts[j];
        }
        const double passS = bestS / median(util) + median(harnessS);
        return double(passInsts) / passS / 1e3;
    }

    double idleFrac() const { return 1.0 - median(util); }
};

/**
 * One workload: its job list, its set-up state, and one pass over it
 * with the correctness check. The check compares each pass's artifact
 * with the checked-in baseline at tolerance 0, and every timing job's
 * full SimStats with its first pass.
 */
class Bench
{
  public:
    explicit Bench(Kind kind) : kind_(kind)
    {
        if (kind_ == Kind::Fig6Grid)
            jobs_ = gridJobs();
        for (size_t i = 0; i < jobs_.size(); ++i)
            index_[jobs_[i].label] = i;
    }

    Kind kind() const { return kind_; }
    size_t jobsPerPass() const
    {
        return kind_ == Kind::Functional ? workloads::allWorkloads().size()
                                         : jobs_.size();
    }
    const std::vector<sim::SimJob> &jobs() const { return jobs_; }
    sim::ProgramCache &cache() { return *cache_; }

    /** One set-up: build every program through a fresh ProgramCache,
     *  build their pre-decode tables in an emptied PredecodeCache, load
     *  the reference artifact and, for functional, construct the
     *  emulator. */
    bool
    setup(std::string *err)
    {
        arch::PredecodeCache::instance().clear();
        cache_ = std::make_unique<sim::ProgramCache>();
        std::vector<sim::ProgramPtr> progs;
        for (const auto &w : workloads::allWorkloads()) {
            progs.push_back(cache_->get(w.name, w.defaultScale * kScale));
            arch::PredecodeCache::instance().get(*progs.back());
        }
        reference_ = sim::BenchArtifact{};
        refStats_.clear();
        const char *path =
            kind_ == Kind::Functional ? kTable1Baseline : kFig6Baseline;
        if (!sim::loadArtifact(path, &reference_, err)) {
            *err += " (run from the repository root)";
            return false;
        }
        if (kind_ == Kind::Functional)
            emu_ = std::make_unique<arch::Emulator>(progs.front());
        return true;
    }

    PassOut
    pass(uint64_t seed, unsigned passIdx, SpanRecorder *rec)
    {
        PassOut o = kind_ == Kind::Functional ? emuPass(seed, passIdx, rec)
                                              : sweepPass(seed, passIdx, rec);
        if (passIdx == 0) {
            firstBuilds_ = cache_->builds();
            firstHits_ = cache_->hits();
        }
        return o;
    }

    /** ProgramCache counters after the last set-up and the first pass:
     *  fixed by the job list, however many passes the run then makes. */
    uint64_t firstPassBuilds() const { return firstBuilds_; }
    uint64_t firstPassHits() const { return firstHits_; }

    /** Check finished timing jobs (any order) against the references;
     *  returns how many failed. Spans go under @p parent. */
    size_t
    checkTiming(const sim::SweepResult &res, SpanRecorder *rec,
                int32_t parent)
    {
        sim::SweepResult canon;
        for (const auto &j : jobs_)
            if (const auto *r = res.find(j.label))
                canon.add(*r);
        sim::BenchArtifact art;
        std::string json;
        {
            ScopedSpan s(rec, "sim.artifact", parent);
            art = sim::BenchArtifact::fromSweep(canon);
            art.scale = kScale;
            art.bench = "fig6_speedup";
            art.addGeomeans(canon, "base", {"opt"});
            json = art.toJson();
        }
        std::set<std::string> bad = compareToReference(json, rec, parent);
        for (const auto &r : canon.all()) {
            const auto key = perfbench::statsKey(r.sim.stats);
            const auto it = refStats_.emplace(r.job.label, key).first;
            if (!r.sim.halted)
                mismatch("'" + r.job.label + "' did not halt");
            else if (it->second != key)
                mismatch("SimStats of '" + r.job.label +
                         "' differ from its first pass");
            else
                continue;
            bad.insert(r.job.label);
        }
        if (canon.size() != jobs_.size())
            return jobs_.size();
        return bad.size();
    }

  private:
    PassOut
    sweepPass(uint64_t seed, unsigned passIdx, SpanRecorder *rec)
    {
        const auto t0 = Clock::now();
        const int32_t ps = rec ? rec->begin("pass") : -1;
        std::vector<sim::SimJob> order;
        for (size_t i : passOrder(jobs_.size(), seed, passIdx))
            order.push_back(jobs_[i]);

        sim::SweepOptions so(1, cache_.get());
        so.run.scale = kScale;
        if (rec) {
            // Progress callbacks are serialized by the runner and arrive
            // as each job finishes: the job span ends now.
            so.onProgress = [this, rec, ps](const sim::SweepProgress &p) {
                const int64_t end = rec->now();
                const int64_t dur = int64_t(p.jobHostSeconds * 1e9);
                rec->add("job", end - dur, end, ps,
                         int64_t(index_.at(p.label)));
            };
        }
        sim::SweepRunner runner(so);
        const auto r0 = Clock::now();
        const sim::SweepResult res = runner.run(std::move(order));
        PassOut o;
        o.runWallS = secondsSince(r0);
        o.jobSeconds.assign(jobs_.size(), 0.0);
        o.jobInsts.assign(jobs_.size(), 1);
        for (const auto &r : res.all()) {
            const size_t i = index_.at(r.job.label);
            o.insts += r.sim.instructions;
            o.busyS += r.hostSeconds;
            o.jobSeconds[i] = r.hostSeconds;
            o.jobInsts[i] = std::max<uint64_t>(r.sim.instructions, 1);
        }
        o.failed = checkTiming(res, rec, ps);
        o.wallS = secondsSince(t0);
        if (rec)
            rec->end(ps, int64_t(o.insts));
        return o;
    }

    PassOut
    emuPass(uint64_t seed, unsigned passIdx, SpanRecorder *rec)
    {
        const auto &all = workloads::allWorkloads();
        const auto t0 = Clock::now();
        const int32_t ps = rec ? rec->begin("pass") : -1;
        PassOut o;
        o.jobSeconds.assign(all.size(), 0.0);
        o.jobInsts.assign(all.size(), 1);
        std::vector<sim::ArtifactJob> done(all.size());
        for (size_t k : passOrder(all.size(), seed, passIdx)) {
            const auto &w = all[k];
            const unsigned scale = w.defaultScale * kScale;
            const sim::ProgramPtr prog = cache_->get(w.name, scale);
            const auto j0 = Clock::now();
            ScopedSpan js(rec, "job", ps, int64_t(k));
            {
                ScopedSpan s(rec, "arch.emu_reset", js.id(), int64_t(k));
                emu_->reset(prog);
            }
            {
                ScopedSpan s(rec, "arch.emu_run", js.id(), int64_t(k));
                s.setWork(int64_t(emu_->run()));
            }
            const double jobS = secondsSince(j0);
            const uint64_t n = emu_->instCount();
            js.setWork(int64_t(n));
            o.insts += n;
            o.busyS += jobS;
            o.jobSeconds[k] = jobS;
            o.jobInsts[k] = std::max<uint64_t>(n, 1);

            sim::ArtifactJob &j = done[k];
            j.label = w.name + "/emu";
            j.workload = w.name;
            j.suite = w.suite;
            j.config = "emu";
            j.scale = scale;
            j.instructions = n;
            j.halted = emu_->halted();
            j.checksum = emu_->memory().readQuad(workloads::checksumAddr);
        }
        o.runWallS = secondsSince(t0);

        std::string json;
        {
            ScopedSpan s(rec, "sim.artifact", ps);
            sim::BenchArtifact art;
            art.bench = "table1_workloads";
            art.scale = kScale;
            art.jobs = done;
            json = art.toJson();
        }
        std::set<std::string> bad = compareToReference(json, rec, ps);
        for (const auto &j : done) {
            if (!j.halted) {
                mismatch("'" + j.label + "' did not halt");
                bad.insert(j.label);
            }
        }
        o.failed = bad.size();
        o.wallS = secondsSince(t0);
        if (rec)
            rec->end(ps, int64_t(o.insts));
        return o;
    }

    /** Parse @p json back and compare it with the reference; returns
     *  the labels of failing jobs (every job when the drift is not
     *  specific to one). The first pass becomes the reference when
     *  the workload has no checked-in one. */
    std::set<std::string>
    compareToReference(const std::string &json, SpanRecorder *rec,
                       int32_t parent)
    {
        ScopedSpan s(rec, "sim.compare", parent);
        sim::BenchArtifact parsed;
        std::string err;
        std::set<std::string> bad;
        if (!sim::parseArtifact(json, &parsed, &err)) {
            mismatch("artifact does not parse: " + err);
            bad.insert("<artifact>");
            for (const auto &j : reference_.jobs)
                bad.insert(j.label);
            return bad;
        }
        const sim::CompareResult cmp =
            sim::compareArtifacts(reference_, parsed);
        for (const auto &d : cmp.diffs) {
            mismatch(d);
            bool matched = false;
            for (const auto &j : reference_.jobs) {
                if (d.find("'" + j.label + "'") != std::string::npos) {
                    bad.insert(j.label);
                    matched = true;
                }
            }
            if (!matched)
                for (const auto &j : reference_.jobs)
                    bad.insert(j.label);
        }
        return bad;
    }

    /** Report a failed check on stderr (the first few only). */
    void
    mismatch(const std::string &msg)
    {
        if (reported_++ < 5)
            std::fprintf(stderr, "perfbench: MISMATCH %s\n", msg.c_str());
    }

    Kind kind_;
    std::vector<sim::SimJob> jobs_; ///< canonical order; empty: functional
    std::map<std::string, size_t> index_; ///< label -> position in jobs_
    std::unique_ptr<sim::ProgramCache> cache_;
    std::unique_ptr<arch::Emulator> emu_;
    sim::BenchArtifact reference_;
    std::map<std::string, std::vector<uint64_t>> refStats_;
    uint64_t firstBuilds_ = 0, firstHits_ = 0;
    unsigned reported_ = 0;
};

/**
 * Repeat whole passes until @p seconds have passed and each kind of
 * pass holds at least twice as many passes as samples it takes per
 * job. With @p rec, odd passes are traced, so traced and untraced
 * passes interleave and share the host's drift. Replica @p rep of
 * @p reps takes every reps-th submission order, from the rep-th on.
 */
void
timedPhase(Bench &b, const Args &a, unsigned rep, unsigned reps,
           SpanRecorder *rec, PassStats *untraced, PassStats *traced)
{
    const unsigned perJob = unsigned(
        (kMinJobSamples + b.jobsPerPass() - 1) / b.jobsPerPass());
    for (PassStats *ps : {untraced, traced})
        if (ps)
            ps->perJob = perJob;
    const auto t0 = Clock::now();
    for (unsigned pass = 0;; ++pass) {
        const bool tr = rec && pass % 2 == 1;
        (tr ? traced : untraced)
            ->add(b.pass(a.seed, pass * reps + rep, tr ? rec : nullptr));
        const bool enough = untraced->passes() >= 2 * perJob &&
                            (!rec || traced->passes() >= 2 * perJob);
        if (enough && secondsSince(t0) >= a.seconds)
            break;
    }
}

/** Peak resident set of this program, from VmHWM. getrusage's maxrss
 *  would also count the launcher's memory from before the exec. */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof(line), f))
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kb = std::strtod(line + 6, nullptr);
    std::fclose(f);
    return kb / 1024.0;
}

/** The environment stamp: how the binary was built, the box it ran on,
 *  and the host-speed switches as shipped (never flipped here). */
std::string
envJson(const Args &a)
{
    double load[3] = {0.0, 0.0, 0.0};
    if (getloadavg(load, 3) != 3)
        load[0] = load[1] = load[2] = -1.0;
    const sim::SimSession session;
    char buf[4096];
    std::snprintf(
        buf, sizeof(buf),
        "{\"build_type\": \"%s\", \"cxx_flags\": \"%s\", \"compiler\": "
        "\"%s\", \"nproc\": %u, \"loadavg\": [%.2f, %.2f, %.2f], "
        "\"fast_forward\": %s, \"predecode\": %s, \"store_window\": %s, "
        "\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"seconds\": %g, "
        "\"trace\": %d, \"scale\": %u, \"workers\": 1, \"replicas\": %u}",
        sim::jsonEscape(PERFBENCH_BUILD_TYPE).c_str(),
        sim::jsonEscape(PERFBENCH_CXX_FLAGS).c_str(),
        sim::jsonEscape(PERFBENCH_COMPILER).c_str(),
        std::thread::hardware_concurrency(), load[0], load[1], load[2],
        session.fastForwardEnabled() ? "true" : "false",
        session.predecodeEnabled() ? "true" : "false",
        session.storeWindowEnabled() ? "true" : "false",
        a.workload.c_str(), a.seed, a.seconds, a.trace ? 1 : 0, kScale,
        a.trace ? 1u : replicaCount());
    return buf;
}

void
printMetric(const Metric &m, const std::string &note = "")
{
    std::printf("  %-38s %14.6g %-10s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), note.c_str());
}

/** The result line: the last line of standard output. */
void
printResult(size_t attempted, size_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                failed == 0 ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(),
                    std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

int
runUntraced(Bench &b, const Args &a, double setupS)
{
    // Each replica is a full copy of the workload (its own programs,
    // sessions and references) timing its own passes on its own thread.
    const unsigned reps = replicaCount();
    std::vector<std::unique_ptr<Bench>> copies;
    std::string err;
    for (unsigned r = 1; r < reps; ++r) {
        copies.push_back(std::make_unique<Bench>(b.kind()));
        if (!copies.back()->setup(&err)) {
            std::fprintf(stderr, "perfbench: %s\n", err.c_str());
            return 2;
        }
    }
    std::vector<PassStats> stats(reps);
    std::vector<std::thread> pool;
    for (unsigned r = 1; r < reps; ++r)
        pool.emplace_back([&, r] {
            timedPhase(*copies[r - 1], a, r, reps, nullptr, &stats[r],
                       nullptr);
        });
    timedPhase(b, a, 0, reps, nullptr, &stats[0], nullptr);
    for (auto &t : pool)
        t.join();
    PassStats u = std::move(stats[0]);
    for (unsigned r = 1; r < reps; ++r)
        u.merge(std::move(stats[r]));

    pipeline::PercentileAccumulator samples;
    for (double x : u.jobSamples())
        samples.add(x);
    const std::vector<Metric> metrics = {
        {"kips", u.kips(), "kinst/s"},
        {"job_ns_per_inst_p50", samples.percentile(50), "ns/inst"},
        {"job_ns_per_inst_p90", samples.percentile(90), "ns/inst"},
        {"setup_s", setupS, "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    const size_t n = samples.count();
    const size_t beyond = n - size_t(std::ceil(0.9 * double(n)));
    std::printf("[perfbench] %s: %zu passes on %u replicas, %zu jobs, "
                "%.1fM insts in %.2f pass-seconds\n",
                a.workload.c_str(), u.passes(), reps, u.jobs,
                double(u.insts) / 1e6, u.wallS);
    printMetric(metrics[0], "from per-job bests of " +
                                std::to_string(u.passes()) + " passes");
    const std::string fastest =
        " (" + std::to_string(u.perJob) + " fastest runs per job)";
    printMetric(metrics[1], "n=" + std::to_string(n) + fastest);
    printMetric(metrics[2], "n=" + std::to_string(n) + fastest + ", " +
                                std::to_string(beyond) + " beyond p90");
    printMetric(metrics[3],
                "median of " + std::to_string(kSetupReps) + " set-ups");
    printMetric(metrics[4]);
    printMetric({"failed_frac", double(u.failed) / double(u.jobs), "frac"},
                std::to_string(u.failed) + " of " + std::to_string(u.jobs) +
                    " jobs");
    printResult(u.jobs, u.failed, metrics);
    return u.failed ? 1 : 0;
}

int
runTraced(Bench &b, const Args &a, const std::string &env)
{
    SpanRecorder rec;
    PassStats u, t;
    timedPhase(b, a, 0, 1, &rec, &u, &t);
    size_t attempted = u.jobs + t.jobs;
    size_t failed = u.failed + t.failed;

    // Layer measurements, outside the timed passes. functional has no
    // timing jobs of its own: its timing-layer rows come from the
    // fig6-grid job list, set up and checked the same way.
    std::unique_ptr<Bench> grid;
    Bench *timing = &b;
    if (b.jobs().empty()) {
        grid = std::make_unique<Bench>(Kind::Fig6Grid);
        std::string err;
        if (!grid->setup(&err)) {
            std::fprintf(stderr, "perfbench: %s\n", err.c_str());
            return 2;
        }
        timing = grid.get();
    }
    const int32_t lr = rec.begin("layers");
    for (const auto &w : workloads::allWorkloads()) {
        ScopedSpan s(&rec, "workloads.build", lr);
        const assembler::Program p = w.build(w.defaultScale * kScale);
        s.setWork(int64_t(p.code.size()));
    }
    std::vector<sim::SimJob> order;
    for (size_t i : passOrder(timing->jobs().size(), a.seed, 0))
        order.push_back(timing->jobs()[i]);
    const int32_t lp = rec.begin("layer_pass", lr);
    const auto layer = perfbench::layerPass(order, timing->cache(), rec, lp);
    rec.end(lp);
    sim::SweepResult layerRes;
    uint64_t layerInsts = 0, optInsts = 0;
    for (const auto &r : layer) {
        sim::JobResult jr;
        jr.job = r.job;
        jr.suite = workloads::findWorkload(r.job.workload)->suite;
        jr.sim = r.sim;
        layerRes.add(std::move(jr));
        layerInsts += r.sim.instructions;
        if (r.job.config.opt.enabled)
            optInsts += r.sim.instructions;
    }
    attempted += layer.size();
    failed += timing->checkTiming(layerRes, nullptr, -1);

    std::vector<sim::ProgramPtr> progs;
    for (const auto &w : workloads::allWorkloads())
        progs.push_back(timing->cache().get(w.name, w.defaultScale * kScale));
    const int32_t rp = rec.begin("replay", lr);
    const perfbench::ReplayCounts rc =
        perfbench::replayKernels(progs, rec, rp);
    rec.end(rp);
    rec.end(lr);

    // Reorder the layer jobs canonically so speedup_geomean multiplies
    // in the figure's own order.
    std::map<std::string, uint64_t> baseCycles;
    sim::BenchArtifact fig6;
    std::string err;
    if (!sim::loadArtifact(kFig6Baseline, &fig6, &err)) {
        std::fprintf(stderr, "perfbench: %s\n", err.c_str());
        return 2;
    }
    for (const auto &j : fig6.jobs)
        if (j.config == "base")
            baseCycles[j.workload] = j.cycles;
    std::vector<perfbench::LayerJobResult> canon;
    for (const auto &j : timing->jobs())
        for (const auto &r : layer)
            if (r.job.label == j.label)
                canon.push_back(r);

    // pipeline.own: SimSession::run time not explained by the emulator,
    // rename, branch and cache replays, per simulated instruction.
    const double probeInsts = double(rc.insts);
    const double emuNs = rec.nsPerWork("arch.emu_run");
    const double renBase = rec.nsPerWork("core.rename.base");
    const double renOpt = rec.nsPerWork("core.rename.opt");
    const double runNs =
        rec.totalNs("sim.run.base") + rec.totalNs("sim.run.opt");
    const double own =
        (runNs - double(layerInsts) * emuNs -
         double(layerInsts - optInsts) * renBase - double(optInsts) * renOpt) /
            double(layerInsts) -
        (rec.totalNs("branch.replay") + rec.totalNs("cache.replay")) /
            probeInsts;

    const double kipsU = u.kips(), kipsT = t.kips();
    std::vector<Metric> m = {
        {"sim.run_ns_per_inst.base", rec.nsPerWork("sim.run.base"),
         "ns/inst"},
        {"sim.run_ns_per_inst.opt", rec.nsPerWork("sim.run.opt"), "ns/inst"},
        {"sim.reset_us", median(rec.durationsMs("sim.reset")) * 1e3, "us"},
        {"sim.worker_idle_frac", u.idleFrac(), "frac"},
        {"sim.artifact_ms", median(rec.durationsMs("sim.artifact")), "ms"},
        {"sim.compare_ms", median(rec.durationsMs("sim.compare")), "ms"},
        {"sim.program_builds", double(b.firstPassBuilds()), "count"},
        {"sim.program_cache_hits", double(b.firstPassHits()), "count"},
        {"workloads.build_ms", rec.totalNs("workloads.build") / 1e6, "ms"},
        {"arch.emu_ns_per_inst", emuNs, "ns/inst"},
        {"core.rename_ns_per_inst.base", renBase, "ns/inst"},
        {"core.rename_ns_per_inst.opt", renOpt, "ns/inst"},
        {"branch.ns_per_branch", rec.nsPerWork("branch.replay"),
         "ns/branch"},
        {"cache.ns_per_access", rec.nsPerWork("cache.replay"), "ns/access"},
        {"pipeline.own_ns_per_inst", own, "ns/inst"},
    };
    for (auto &x : perfbench::statsMetrics(canon, baseCycles))
        m.push_back(std::move(x));
    m.push_back({"trace.kips_untraced", kipsU, "kinst/s"});
    m.push_back({"trace.kips_traced", kipsT, "kinst/s"});
    m.push_back({"trace.overhead_frac", kipsU / kipsT - 1.0, "frac"});

    std::printf("[perfbench] %s traced run: %zu untraced + %zu traced "
                "passes, layer pass of %zu jobs, replay of %zu kernels\n",
                a.workload.c_str(), u.passes(), t.passes(), layer.size(),
                progs.size());
    for (const auto &x : m)
        printMetric(x);

    // Replay fidelity: the replays' own counts beside the core's.
    uint64_t br = 0, mis = 0, dh = 0, dm = 0, il1 = 0, ret = 0, early = 0;
    for (const auto &r : canon) {
        const auto &s = r.sim.stats;
        if (r.job.config.opt.enabled) {
            ret += s.retired;
            early += s.opt.earlyExecuted;
        } else {
            br += s.branches;
            mis += s.mispredicted;
            dh += s.dl1Hits;
            dm += s.dl1Misses;
            il1 += s.il1Misses;
        }
    }
    const auto frac = [](uint64_t x, uint64_t y) {
        return y ? double(x) / double(y) : 0.0;
    };
    std::printf("replay fidelity (replay | in-core; in-core counts from "
                "the layer pass):\n");
    std::printf("  mispredict rate   %.4f (%" PRIu64 "/%" PRIu64
                ") | %.4f (%" PRIu64 "/%" PRIu64 ", plain-rename jobs)\n",
                frac(rc.mispredicts, rc.branches), rc.mispredicts,
                rc.branches, frac(mis, br), mis, br);
    std::printf("  dl1 miss rate     %.4f (%" PRIu64 "/%" PRIu64
                ") | %.4f (%" PRIu64 "/%" PRIu64 ", plain-rename jobs)\n",
                frac(rc.dl1Misses, rc.dataAccesses), rc.dl1Misses,
                rc.dataAccesses, frac(dm, dh + dm), dm, dh + dm);
    std::printf("  il1 misses        %" PRIu64 " | %" PRIu64
                " (plain-rename jobs)\n",
                rc.il1Misses, il1);
    std::printf("  early-exec frac   %.4f (%" PRIu64 "/%" PRIu64
                ", optimized) | %.4f (%" PRIu64 "/%" PRIu64
                ", optimizing jobs); base replay %" PRIu64 "\n",
                frac(rc.earlyExecOpt, rc.insts), rc.earlyExecOpt, rc.insts,
                frac(early, ret), early, ret, rc.earlyExecBase);

    std::printf("self time by span (ms; work in insts, branches or "
                "accesses):\n  %-20s %8s %12s %12s %14s\n",
                "span", "count", "total", "self", "work");
    for (const auto &s : rec.totals())
        std::printf("  %-20s %8" PRIu64 " %12.2f %12.2f %14" PRId64 "\n",
                    s.name.c_str(), s.count, s.totalMs, s.selfMs, s.work);

    const std::string dir = ".bench_build/perfbench-trace";
    const std::string path = dir + "/" + a.workload + "-seed" +
                             std::to_string(a.seed) + ".json";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec || !rec.writeJson(path, env, &err))
        std::fprintf(stderr, "perfbench: trace not written: %s\n",
                     ec ? ec.message().c_str() : err.c_str());
    else
        std::printf("spans written to %s\n", path.c_str());

    printResult(attempted, failed, m);
    return failed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    std::string err;
    if (!parseArgs(argc, argv, &a, &err))
        return usage(err);

    Bench b(a.kind);
    std::vector<double> setupS;
    for (int i = 0; i < kSetupReps; ++i) {
        const auto t0 = Clock::now();
        if (!b.setup(&err)) {
            std::fprintf(stderr, "perfbench: %s\n", err.c_str());
            return 2;
        }
        setupS.push_back(secondsSince(t0));
    }
    const std::string env = envJson(a);
    std::printf("# env %s\n", env.c_str());
    return a.trace ? runTraced(b, a, env)
                   : runUntraced(b, a, median(setupS));
}
