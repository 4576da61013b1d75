/**
 * @file
 * The canonical description of one sweep run: `RunOptions`, every knob
 * shared by the harness CLI, the sweep engine, and the shard driver.
 *
 *   - bench binaries:  HarnessOptions (src/sim/harness.hh) parses the
 *                      CONOPT_* environment and harness flags into a
 *                      RunOptions
 *   - sweep engine:    SweepOptions (src/sim/sweep.hh) embeds a
 *                      RunOptions for shard/threads/scale/ipc-sampling
 *   - shard driver:    DriverOptions (src/sim/driver.hh) embeds a
 *                      RunOptions for artifact/baseline/cache/tolerance
 *
 * The shard/scale/thread environment parsing (CONOPT_SCALE,
 * CONOPT_THREADS, CONOPT_SHARD) and the strict numeric-token parsers
 * live here too, as the one copy shared by the harness and the driver.
 */

#ifndef CONOPT_SIM_REQUEST_HH
#define CONOPT_SIM_REQUEST_HH

#include <cstdint>
#include <string>

namespace conopt::sim {

/** Upper bounds on the CONOPT_SCALE / CONOPT_THREADS environment
 *  variables; larger values clamp rather than overflow the scale
 *  multiplication or the thread-pool size. */
constexpr unsigned kMaxEnvScale = 1u << 20;
constexpr unsigned kMaxEnvThreads = 1u << 16;

/** Workload scale multiplier from the CONOPT_SCALE environment variable
 *  (default 1); lets the harness trade runtime for statistical weight.
 *  Unset, zero, negative, or garbage values yield the default; huge
 *  values clamp to kMaxEnvScale. */
unsigned envScale();

/** Worker-thread count from the CONOPT_THREADS environment variable;
 *  0 (unset/invalid/garbage) means use
 *  std::thread::hardware_concurrency(); huge values clamp to
 *  kMaxEnvThreads. */
unsigned envThreads();

/** One shard of a sweep split across processes/machines. The job list
 *  is partitioned round-robin over submission order (job i belongs to
 *  shard i % count), so shards are balanced across the workload-major
 *  cross product and a job's shard depends only on its position, never
 *  on thread scheduling. {0, 1} is the whole sweep. */
struct ShardSpec
{
    unsigned index = 0; ///< 0-based shard id
    unsigned count = 1; ///< total shards; 1 = unsharded

    bool active() const { return count > 1; }
    /** Does submission position @p i fall in this shard? */
    bool contains(size_t i) const { return i % count == index; }
};

/** Parse "<i>/<n>" (e.g. "0/2", "1/2") into @p out. False on anything
 *  else: garbage, trailing characters, n == 0, or i >= n. */
bool parseShard(const std::string &s, ShardSpec *out);

/** Strict uint64 token: all-digits, no sign, no trailing characters,
 *  no overflow. The shared primitive behind the progress protocol and
 *  the harness and driver number flags. */
bool parseU64Token(const std::string &s, uint64_t *out);

/** Strict finite-double token (strtod grammar, whole token, finite). */
bool parseDoubleToken(const std::string &s, double *out);

/**
 * Every run-shaping knob of one sweep execution. Scale and threads are
 * explicit overrides here; 0 means "ask the environment via
 * envScale()/envThreads()".
 */
struct RunOptions
{
    sim::ShardSpec shard;     ///< {0,1} = whole sweep
    unsigned scale = 0;       ///< workload scale multiplier; 0 = env
    unsigned threads = 0;     ///< sweep worker threads; 0 = env
    /** Per-interval IPC sampling stride in retired instructions;
     *  0 = off (the default — gated artifacts stay byte-identical). */
    uint64_t ipcSampleInterval = 0;
    bool perf = false;        ///< record host_seconds/kips per job
    bool emitArtifact = true; ///< false = skip artifact (and gate)
    double tolerance = 0.0;   ///< relative drift tolerance for the gate
    std::string artifactDir = "."; ///< where BENCH_*.json is written
    std::string baselinePath; ///< file or directory; empty = no gate
    std::string resultCacheDir; ///< persistent result cache; empty = none

    /** The effective scale multiplier: the explicit field, or the
     *  CONOPT_SCALE environment when the field is 0. */
    unsigned effectiveScale() const { return scale ? scale : envScale(); }
    /** The effective worker-thread request (still 0 when neither the
     *  field nor CONOPT_THREADS is set: "use hardware concurrency"). */
    unsigned effectiveThreads() const
    {
        return threads ? threads : envThreads();
    }
};

} // namespace conopt::sim

#endif // CONOPT_SIM_REQUEST_HH
