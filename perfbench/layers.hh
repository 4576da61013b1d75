/**
 * @file
 * Layer measurements for the traced run, all taken from outside the
 * library through its public calls:
 *
 *  - layerPass(): drives one SimSession per job with spans around
 *    SimSession::reset and SimSession::run, so host time splits into
 *    reset and run per job, base vs optimized rename;
 *  - replayKernels(): records each kernel's DynInst stream once (in
 *    fixed-size chunks) and replays it through the cache hierarchy, the
 *    branch predictor and the rename unit under the baseline and
 *    optimized presets, with a span around each replay. The replays are
 *    approximations of what the core does with the same stream (no
 *    wrong path, no timing feedback), so each reports its own counts
 *    beside the in-core SimStats counts;
 *  - statsMetrics(): exact simulated-machine ratios from SimStats,
 *    which host-only changes must leave bit-identical.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/trace.hh"
#include "src/pipeline/sim_stats.hh"
#include "src/sim/sweep.hh"

namespace perfbench {

/** One named measurement with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Every scalar SimStats counter, for exact equality checks. */
std::vector<uint64_t> statsKey(const conopt::pipeline::SimStats &s);

/** Outcome of one job of the layer pass. */
struct LayerJobResult
{
    conopt::sim::SimJob job;
    conopt::sim::SimResult sim;
    uint64_t ticks = 0; ///< OooCore::ticksExecuted() of the run
};

/** Run @p jobs one by one on a benchmark-owned SimSession, spanning
 *  each reset ("sim.reset") and run ("sim.run.base"/"sim.run.opt"). */
std::vector<LayerJobResult>
layerPass(const std::vector<conopt::sim::SimJob> &jobs,
          conopt::sim::ProgramCache &cache, SpanRecorder &rec,
          int32_t parent);

/** Counts the replays produce, to set beside the in-core counts. */
struct ReplayCounts
{
    uint64_t insts = 0;
    uint64_t branches = 0;
    uint64_t mispredicts = 0;
    uint64_t dataAccesses = 0;
    uint64_t dl1Misses = 0;
    uint64_t il1Misses = 0;
    uint64_t earlyExecBase = 0;
    uint64_t earlyExecOpt = 0;
};

/** Emulate each program once (span "arch.emu_run"), then record its
 *  DynInst stream and replay it through the layers (spans
 *  "arch.emu_step", "cache.replay", "branch.replay",
 *  "core.rename.base", "core.rename.opt"). */
ReplayCounts replayKernels(const std::vector<conopt::sim::ProgramPtr> &progs,
                           SpanRecorder &rec, int32_t parent);

/** Exact SimStats ratios over @p jobs. @p baseCycles maps a kernel to
 *  its cycles on the baseline machine; speedup_geomean is taken over
 *  every job whose config is not "base", in job order. */
std::vector<Metric>
statsMetrics(const std::vector<LayerJobResult> &jobs,
             const std::map<std::string, uint64_t> &baseCycles);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
