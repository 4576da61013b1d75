/**
 * @file
 * conopt_sweep: the local sharded-sweep driver. One command that turns
 * the sharded-sweep primitives (ShardSpec partitioning, per-shard
 * BENCH_*.shard<i>of<n>.json artifacts, the persistent ResultCache,
 * and the conopt_bench_check merge/gate) into a single run:
 *
 *   conopt_sweep --shards 4 --baseline bench/baselines fig6_speedup
 *
 * launches all shard processes with the right `--shard i/n
 * --artifact-dir --result-cache` arguments, streams their progress,
 * waits with a per-shard timeout and bounded retry, then merges the
 * shard directory, recomputes the deferred figure geomeans, and gates
 * the merged artifact against a baseline. Exit codes are
 * conopt_bench_check-compatible: 0 match, 1 drift, 2 error. A crashed,
 * killed, or hung shard is a hard failure with its captured output
 * surfaced — never a silently thinner merged artifact (the driver
 * verifies every expected shard artifact exists before merging).
 *
 * Pieces:
 *   - progress line protocol: formatProgressLine/parseProgressLine/
 *     writeProgressLine — the machine-readable form of SweepProgress
 *     that bench binaries emit on `--progress-fd N` and the driver
 *     multiplexes into one aggregate ETA line
 *   - DriverOptions/parseDriverArgs/buildShardArgv: CLI parsing and
 *     per-shard command composition
 *   - runSweepDriver/ShardOutcome/DriverOutcome: the spawn/wait/retry/
 *     merge/gate engine, exposed as a library so
 *     tests/test_sweep_driver.cc covers it in-process
 *   - sweepDriverMain: the `conopt_sweep` CLI entry point
 */

#ifndef CONOPT_SIM_DRIVER_HH
#define CONOPT_SIM_DRIVER_HH

#include <string>
#include <vector>

#include "src/sim/sweep.hh"

namespace conopt::sim {

// --------------------------------------------------------------------------
// Machine-readable progress line protocol (--progress-fd)
// --------------------------------------------------------------------------

/** Line prefix + version of the progress protocol. A bench binary with
 *  `--progress-fd N` writes one such line per finished job; the driver
 *  parses them per shard. Versioned so a driver can detect (and skip)
 *  lines from a newer harness instead of misreading them. */
constexpr const char *kProgressLineTag = "CONOPT-PROGRESS";
constexpr unsigned kProgressLineVersion = 1;

/** @p p as one protocol line (no trailing newline):
 *    CONOPT-PROGRESS v1 done=D total=T job_s=J host_s=H elapsed_s=E
 *      eta_s=X geomean_ipc=G kips=K host_p50=A host_p95=B host_p99=C
 *      label=LABEL
 *  Doubles use %.17g, so format -> parse round-trips exactly; the
 *  label is last and runs to end of line. The kips/host_p* fields
 *  (running host throughput and per-job host-latency percentiles)
 *  were added within v1: the parser has always skipped unknown keys,
 *  so older drivers keep reading new-harness lines and this parser
 *  reads old lines (the fields just stay 0). */
std::string formatProgressLine(const SweepProgress &p);

/** Parse one protocol line (trailing newline tolerated). False on
 *  anything else: wrong tag or version, missing/garbled numeric
 *  fields, or a missing label. Unknown numeric keys are ignored so
 *  minor protocol additions stay readable by older drivers. */
bool parseProgressLine(const std::string &line, SweepProgress *out);

/** Write @p p as one protocol line (newline-terminated, single write()
 *  so concurrent shards never interleave mid-line) to @p fd. Write
 *  errors are ignored: progress is advisory and must never fail the
 *  sweep itself. */
void writeProgressLine(int fd, const SweepProgress &p);

// --------------------------------------------------------------------------
// Driver options and CLI parsing
// --------------------------------------------------------------------------

/** Everything `conopt_sweep` needs to run one sharded sweep. */
struct DriverOptions
{
    std::string benchPath; ///< bench binary (resolved via ./ then PATH)
    std::string benchName; ///< artifact name; "" = basename(benchPath)
    std::vector<std::string> benchArgs; ///< extra args after `--`

    unsigned shards = 2;         ///< shard process count (>= 1)
    /** The run description (src/sim/request.hh). The driver consumes
     *  run.artifactDir (the merged artifact lands here; the per-shard
     *  files go to a driver-owned `<name>.shards/` subdirectory that
     *  is cleaned of stale artifacts first), run.resultCacheDir
     *  (forwarded to every shard when set), run.baselinePath (file or
     *  directory; "" = no gate), and run.tolerance (0 = exact). */
    RunOptions run;
    std::string geomeanBase;     ///< non-empty: recompute merged figure
                                 ///< geomeans over this base config
    double timeoutSeconds = 0.0; ///< per shard attempt; 0 = none
    unsigned retries = 1;        ///< extra attempts per failed shard
    bool streamProgress = true;  ///< attach --progress-fd + render ETA
};

/** Parse `conopt_sweep` CLI arguments into @p out. False (with a
 *  usage-ready message in @p err) on malformed input: an unknown flag,
 *  `--shards 0` or garbage counts, a bad timeout/tolerance/retries
 *  value, or a missing bench argument. */
bool parseDriverArgs(const std::vector<std::string> &args,
                     DriverOptions *out, std::string *err);

/** The exact argv the driver execs for shard @p index: the bench
 *  command plus `--shard i/n --artifact-dir <shard-dir>` (and
 *  `--result-cache`/`--progress-fd` when configured), then the bench
 *  arguments. */
std::vector<std::string> buildShardArgv(const DriverOptions &opts,
                                        unsigned index);

/** The artifact filename shard @p index of @p count writes, matching
 *  the bench harness convention: `BENCH_<bench>.shard<i>of<n>.json`,
 *  or plain `BENCH_<bench>.json` when count <= 1 (an unsharded run). */
std::string shardArtifactName(const std::string &bench, unsigned index,
                              unsigned count);

// --------------------------------------------------------------------------
// Running
// --------------------------------------------------------------------------

/** Final state of one shard after all its attempts. */
struct ShardOutcome
{
    unsigned index = 0;
    unsigned attempts = 0; ///< launches performed (1 = no retry needed)
    bool ok = false;       ///< last attempt exited 0 within the timeout
    bool timedOut = false; ///< last attempt was killed at the deadline
    /** Last attempt's status: the exit code when >= 0, or -SIGNAL when
     *  the process died to a signal (a killed shard is -9). */
    int exitStatus = 0;
    double seconds = 0.0;    ///< last attempt's wall-clock duration
    std::string outputTail;  ///< captured stdout+stderr (bounded tail)
    /** Well-formed CONOPT-PROGRESS lines received over --progress-fd
     *  across all attempts (0 when the pipe was not attached or the
     *  bench runs no SweepRunner sweep). */
    size_t progressLines = 0;
};

/** What runSweepDriver() did, beyond its exit code. */
struct DriverOutcome
{
    /** conopt_bench_check-compatible: 0 merged+gated ok, 1 baseline
     *  drift, 2 error (shard failure, missing artifact, bad config). */
    int exitCode = 2;
    std::string error;              ///< human-readable when exitCode == 2
    std::vector<ShardOutcome> shards;
    std::string mergedArtifactPath; ///< written on successful merge
    std::vector<std::string> gateDiffs; ///< populated on exitCode == 1
};

/** Launch, stream, wait, retry, merge, and gate one sharded sweep.
 *  Progress/status lines go to stderr; structured results come back in
 *  the DriverOutcome so callers (and tests) never scrape output. */
DriverOutcome runSweepDriver(const DriverOptions &opts);

/** The `conopt_sweep` CLI: parse args, run, print the outcome. Returns
 *  the process exit code (0 ok / 1 drift / 2 error). */
int sweepDriverMain(const std::vector<std::string> &args);

} // namespace conopt::sim

#endif // CONOPT_SIM_DRIVER_HH
