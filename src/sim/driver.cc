#include "src/sim/driver.hh"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/baseline.hh"

namespace conopt::sim {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace

// --------------------------------------------------------------------------
// Progress line protocol
// --------------------------------------------------------------------------

std::string
formatProgressLine(const SweepProgress &p)
{
    char head[768];
    std::snprintf(head, sizeof(head),
                  "%s v%u done=%zu total=%zu job_s=%.17g host_s=%.17g "
                  "elapsed_s=%.17g eta_s=%.17g geomean_ipc=%.17g "
                  "kips=%.17g host_p50=%.17g host_p95=%.17g "
                  "host_p99=%.17g ",
                  kProgressLineTag, kProgressLineVersion, p.done, p.total,
                  p.jobHostSeconds, p.totalHostSeconds, p.elapsedSeconds,
                  p.etaSeconds, p.geomeanIpc, p.kips, p.hostP50, p.hostP95,
                  p.hostP99);
    std::string line = head;
    line += "label=";
    return line + p.label;
}

bool
parseProgressLine(const std::string &lineIn, SweepProgress *out)
{
    std::string line = lineIn;
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
        line.pop_back();
    const std::string head = std::string(kProgressLineTag) + " v" +
                             std::to_string(kProgressLineVersion) + " ";
    if (line.size() < head.size() || line.compare(0, head.size(), head) != 0)
        return false;

    SweepProgress p;
    bool haveDone = false, haveTotal = false, haveLabel = false;
    size_t pos = head.size();
    while (pos < line.size()) {
        const size_t eq = line.find('=', pos);
        if (eq == std::string::npos || eq == pos)
            return false;
        const std::string key = line.substr(pos, eq - pos);
        if (key.find(' ') != std::string::npos)
            return false;
        if (key == "label") {
            // The label is last and runs to end of line (labels never
            // need escaping; "=" or spaces inside one stay intact).
            p.label = line.substr(eq + 1);
            haveLabel = true;
            break;
        }
        size_t end = line.find(' ', eq + 1);
        if (end == std::string::npos)
            end = line.size();
        const std::string val = line.substr(eq + 1, end - eq - 1);
        uint64_t u = 0;
        double d = 0.0;
        if (key == "done") {
            if (!parseU64Token(val, &u))
                return false;
            p.done = size_t(u);
            haveDone = true;
        } else if (key == "total") {
            if (!parseU64Token(val, &u))
                return false;
            p.total = size_t(u);
            haveTotal = true;
        } else if (key == "job_s") {
            if (!parseDoubleToken(val, &d))
                return false;
            p.jobHostSeconds = d;
        } else if (key == "host_s") {
            if (!parseDoubleToken(val, &d))
                return false;
            p.totalHostSeconds = d;
        } else if (key == "elapsed_s") {
            if (!parseDoubleToken(val, &d))
                return false;
            p.elapsedSeconds = d;
        } else if (key == "eta_s") {
            if (!parseDoubleToken(val, &d))
                return false;
            p.etaSeconds = d;
        } else if (key == "geomean_ipc") {
            if (!parseDoubleToken(val, &d))
                return false;
            p.geomeanIpc = d;
        } else if (key == "kips") {
            if (!parseDoubleToken(val, &d))
                return false;
            p.kips = d;
        } else if (key == "host_p50") {
            if (!parseDoubleToken(val, &d))
                return false;
            p.hostP50 = d;
        } else if (key == "host_p95") {
            if (!parseDoubleToken(val, &d))
                return false;
            p.hostP95 = d;
        } else if (key == "host_p99") {
            if (!parseDoubleToken(val, &d))
                return false;
            p.hostP99 = d;
        }
        // Unknown keys are skipped: a same-major-version harness may
        // append fields without breaking older drivers.
        pos = end < line.size() ? end + 1 : end;
    }
    if (!haveDone || !haveTotal || !haveLabel)
        return false;
    *out = std::move(p);
    return true;
}

void
writeProgressLine(int fd, const SweepProgress &p)
{
    if (fd < 0)
        return;
    std::string line = formatProgressLine(p);
    line += '\n';
    // One write per line: lines are far below PIPE_BUF, so writers
    // sharing a sink never interleave mid-line. Progress is advisory;
    // a closed/bad fd — or a reader that vanished (the driver was
    // killed mid-sweep) — must never fail the sweep itself, so SIGPIPE
    // is blocked for this thread around the write and a resulting
    // pending signal is drained. SIGPIPE is thread-synchronous, which
    // makes the per-thread mask exact.
    sigset_t pipeSet, oldSet;
    sigemptyset(&pipeSet);
    sigaddset(&pipeSet, SIGPIPE);
    const bool masked =
        ::pthread_sigmask(SIG_BLOCK, &pipeSet, &oldSet) == 0;
    const ssize_t rc = ::write(fd, line.data(), line.size());
    if (masked) {
        if (rc < 0 && errno == EPIPE) {
            struct timespec none = {0, 0};
            ::sigtimedwait(&pipeSet, nullptr, &none);
        }
        ::pthread_sigmask(SIG_SETMASK, &oldSet, nullptr);
    }
}

// --------------------------------------------------------------------------
// Options, parsing, shard command composition
// --------------------------------------------------------------------------

namespace {

/** "./name" when a bare name exists in the working directory (bench
 *  binaries normally sit next to the driver in build/); otherwise the
 *  path as given (execvp falls back to PATH). */
std::string
resolveBenchPath(const std::string &path)
{
    if (path.find('/') != std::string::npos)
        return path;
    std::error_code ec;
    if (fs::exists("./" + path, ec))
        return "./" + path;
    return path;
}

std::string
shardDirOf(const DriverOptions &opts)
{
    return (fs::path(opts.run.artifactDir) / (opts.benchName + ".shards"))
        .string();
}

/** Validate a user-supplied bench/artifact name: it becomes a file
 *  name component, so path separators are rejected. */
bool
validBenchName(const std::string &name)
{
    return !name.empty() && name.find('/') == std::string::npos;
}

} // namespace

std::string
shardArtifactName(const std::string &bench, unsigned index, unsigned count)
{
    if (count <= 1)
        return "BENCH_" + bench + ".json";
    return "BENCH_" + bench + ".shard" + std::to_string(index) + "of" +
           std::to_string(count) + ".json";
}

bool
parseDriverArgs(const std::vector<std::string> &args, DriverOptions *out,
                std::string *err)
{
    DriverOptions o;
    std::vector<std::string> positional;
    size_t i = 0;
    const auto value = [&](const std::string &flag,
                           std::string *v) -> bool {
        if (i + 1 >= args.size()) {
            *err = flag + " requires a value";
            return false;
        }
        *v = args[++i];
        return true;
    };
    for (; i < args.size(); ++i) {
        const std::string &a = args[i];
        std::string v;
        if (a == "--") {
            o.benchArgs.assign(args.begin() + i + 1, args.end());
            break;
        } else if (a == "--shards") {
            uint64_t n = 0;
            if (!value(a, &v))
                return false;
            if (!parseU64Token(v, &n) || n == 0 || n > kMaxEnvThreads) {
                *err = "invalid --shards '" + v +
                       "' (want an integer in [1, " +
                       std::to_string(kMaxEnvThreads) + "])";
                return false;
            }
            o.shards = unsigned(n);
        } else if (a == "--bench-name") {
            if (!value(a, &v))
                return false;
            if (!validBenchName(v)) {
                *err = "invalid --bench-name '" + v +
                       "' (want a non-empty name without '/')";
                return false;
            }
            o.benchName = v;
        } else if (a == "--artifact-dir") {
            if (!value(a, &o.run.artifactDir))
                return false;
        } else if (a == "--result-cache") {
            if (!value(a, &o.run.resultCacheDir))
                return false;
        } else if (a == "--baseline") {
            if (!value(a, &o.run.baselinePath))
                return false;
        } else if (a == "--tolerance") {
            if (!value(a, &v))
                return false;
            if (!parseTolerance(v.c_str(), &o.run.tolerance)) {
                *err = "invalid --tolerance '" + v +
                       "' (want a finite non-negative number)";
                return false;
            }
        } else if (a == "--recompute-geomeans") {
            if (!value(a, &v))
                return false;
            if (v.empty()) {
                *err = "--recompute-geomeans requires a non-empty base "
                       "config name";
                return false;
            }
            o.geomeanBase = v;
        } else if (a == "--timeout") {
            if (!value(a, &v))
                return false;
            double t = 0.0;
            if (!parseDoubleToken(v, &t) || t < 0.0) {
                *err = "invalid --timeout '" + v +
                       "' (want a finite non-negative number of seconds)";
                return false;
            }
            o.timeoutSeconds = t;
        } else if (a == "--retries") {
            uint64_t n = 0;
            if (!value(a, &v))
                return false;
            if (!parseU64Token(v, &n) || n > 1000) {
                *err = "invalid --retries '" + v +
                       "' (want an integer in [0, 1000])";
                return false;
            }
            o.retries = unsigned(n);
        } else if (a == "--no-progress") {
            o.streamProgress = false;
        } else if (!a.empty() && a[0] == '-') {
            *err = "unknown flag '" + a + "'";
            return false;
        } else {
            positional.push_back(a);
        }
    }
    if (positional.empty()) {
        *err = "missing bench binary argument";
        return false;
    }
    if (positional.size() > 1) {
        *err = "expected exactly one bench binary, got '" + positional[0] +
               "' and '" + positional[1] +
               "' (pass bench arguments after --)";
        return false;
    }
    o.benchPath = positional[0];
    if (o.benchName.empty()) {
        o.benchName = fs::path(o.benchPath).filename().string();
        if (!validBenchName(o.benchName)) {
            *err = "cannot derive a bench name from '" + o.benchPath +
                   "' (pass --bench-name)";
            return false;
        }
    }
    *out = std::move(o);
    return true;
}

std::vector<std::string>
buildShardArgv(const DriverOptions &opts, unsigned index)
{
    std::vector<std::string> bench;
    bench.push_back(resolveBenchPath(opts.benchPath));
    bench.push_back("--shard");
    bench.push_back(std::to_string(index) + "/" +
                    std::to_string(opts.shards));
    bench.push_back("--artifact-dir");
    bench.push_back(shardDirOf(opts));
    if (!opts.run.resultCacheDir.empty()) {
        bench.push_back("--result-cache");
        bench.push_back(opts.run.resultCacheDir);
    }
    if (opts.streamProgress) {
        // The driver dup2()s the progress pipe to fd 3 in the child.
        bench.push_back("--progress-fd");
        bench.push_back("3");
    }
    bench.insert(bench.end(), opts.benchArgs.begin(), opts.benchArgs.end());
    return bench;
}

// --------------------------------------------------------------------------
// The spawn/wait/retry engine
// --------------------------------------------------------------------------

namespace {

constexpr size_t kOutputTailMax = 64 * 1024;
constexpr int kPollMillis = 50;
constexpr double kRenderIntervalSeconds = 0.5;
/** How long after a shard's own exit the driver keeps waiting for its
 *  pipes to reach EOF before force-closing them: a descendant that
 *  inherited the write ends (a daemonized helper) must not be able to
 *  hang the whole sweep. */
constexpr double kExitDrainGraceSeconds = 2.0;

/** Set by the SIGINT/SIGTERM handler while shards are running, so an
 *  interrupted driver kills and reaps its shards instead of orphaning
 *  them (an orphan would keep simulating and later rewrite shard
 *  artifacts underneath a rerun). */
volatile std::sig_atomic_t gDriverInterrupted = 0;

void
onDriverSignal(int)
{
    gDriverInterrupted = 1;
}

/** Installs the interrupt flag handler for the driver's lifetime and
 *  restores the previous handlers on scope exit (the driver is also a
 *  library entry point; tests call it in-process). */
struct SignalGuard
{
    struct sigaction oldInt{}, oldTerm{};

    SignalGuard()
    {
        gDriverInterrupted = 0;
        struct sigaction sa{};
        sa.sa_handler = onDriverSignal;
        sigemptyset(&sa.sa_mask);
        ::sigaction(SIGINT, &sa, &oldInt);
        ::sigaction(SIGTERM, &sa, &oldTerm);
    }
    ~SignalGuard()
    {
        ::sigaction(SIGINT, &oldInt, nullptr);
        ::sigaction(SIGTERM, &oldTerm, nullptr);
    }
};

void
appendBounded(std::string &buf, const char *data, size_t n)
{
    buf.append(data, n);
    if (buf.size() > kOutputTailMax)
        buf.erase(0, buf.size() - kOutputTailMax);
}

void
setNonblocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/** One shard process slot across its (possibly retried) attempts. */
struct LiveShard
{
    unsigned index = 0;
    unsigned attempts = 0;
    pid_t pid = -1;
    int outFd = -1;  ///< combined stdout+stderr (read end)
    int progFd = -1; ///< progress protocol pipe (read end), or -1
    std::string outputTail;
    std::string progPartial;
    bool haveProgress = false;
    size_t progressLines = 0;
    SweepProgress progress;
    Clock::time_point start;
    Clock::time_point exitTime; ///< when the last attempt was reaped
    bool running = false;
    bool exited = false;
    bool timedOut = false;
    bool aborted = false; ///< driver gave up on this shard (interrupt,
                          ///< poll failure): never counts as ok
    int status = 0; ///< raw waitpid status of the last attempt
    double seconds = 0.0;

    bool
    okNow() const
    {
        return !timedOut && !aborted && WIFEXITED(status) &&
               WEXITSTATUS(status) == 0;
    }

    /** "exit N" / "signal N" / "timeout" for log lines. */
    std::string
    describeStatus() const
    {
        if (aborted)
            return "aborted by driver";
        if (timedOut)
            return "timed out";
        if (WIFEXITED(status))
            return "exit " + std::to_string(WEXITSTATUS(status));
        if (WIFSIGNALED(status))
            return "signal " + std::to_string(WTERMSIG(status));
        return "status " + std::to_string(status);
    }
};

bool
spawnShard(const DriverOptions &opts, LiveShard &s, std::string *err)
{
    const auto argv = buildShardArgv(opts, s.index);
    const bool wantProgress = opts.streamProgress;

    int outPipe[2] = {-1, -1}, progPipe[2] = {-1, -1};
    if (::pipe(outPipe) != 0) {
        *err = std::string("pipe: ") + std::strerror(errno);
        return false;
    }
    if (wantProgress && ::pipe(progPipe) != 0) {
        *err = std::string("pipe: ") + std::strerror(errno);
        ::close(outPipe[0]);
        ::close(outPipe[1]);
        return false;
    }

    const pid_t pid = ::fork();
    if (pid < 0) {
        *err = std::string("fork: ") + std::strerror(errno);
        for (int fd : {outPipe[0], outPipe[1], progPipe[0], progPipe[1]})
            if (fd >= 0)
                ::close(fd);
        return false;
    }
    if (pid == 0) {
        // Child. Own process group, so a timeout kill reaches the
        // bench's own children, not just the immediate process.
        ::setpgid(0, 0);
        ::dup2(outPipe[1], 1);
        ::dup2(outPipe[1], 2);
        int keep = -1;
        if (wantProgress) {
            ::dup2(progPipe[1], 3);
            keep = 3;
        }
        for (int fd : {outPipe[0], outPipe[1], progPipe[0], progPipe[1]})
            if (fd > 2 && fd != keep)
                ::close(fd);
        std::vector<char *> cargv;
        cargv.reserve(argv.size() + 1);
        for (const auto &a : argv)
            cargv.push_back(const_cast<char *>(a.c_str()));
        cargv.push_back(nullptr);
        ::execvp(cargv[0], cargv.data());
        std::fprintf(stderr, "conopt_sweep: cannot exec %s: %s\n",
                     cargv[0], std::strerror(errno));
        ::_exit(127);
    }

    // Parent. Set the pgid from this side too, closing the race where
    // a timeout fires before the child reaches its own setpgid().
    ::setpgid(pid, pid);
    ::close(outPipe[1]);
    if (wantProgress)
        ::close(progPipe[1]);
    setNonblocking(outPipe[0]);
    if (wantProgress)
        setNonblocking(progPipe[0]);

    s.pid = pid;
    s.outFd = outPipe[0];
    s.progFd = wantProgress ? progPipe[0] : -1;
    s.outputTail.clear();
    s.progPartial.clear();
    // A retry starts from zero: the killed attempt's last progress
    // snapshot must not inflate the aggregate line until the new
    // attempt reports (progressLines stays cumulative by design).
    s.haveProgress = false;
    s.progress = SweepProgress{};
    s.start = Clock::now();
    s.running = true;
    s.exited = false;
    s.timedOut = false;
    s.status = 0;
    s.seconds = 0.0;
    ++s.attempts;
    return true;
}

/** Drain @p fd into the shard until EAGAIN or EOF; closes (and clears)
 *  it on EOF. @p progress routes the bytes to the line parser instead
 *  of the output tail. */
void
drainFd(LiveShard &s, int &fd, bool progress)
{
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n > 0) {
            if (!progress) {
                appendBounded(s.outputTail, buf, size_t(n));
                continue;
            }
            s.progPartial.append(buf, size_t(n));
            size_t nl;
            while ((nl = s.progPartial.find('\n')) !=
                   std::string::npos) {
                const std::string line = s.progPartial.substr(0, nl);
                s.progPartial.erase(0, nl + 1);
                SweepProgress p;
                if (parseProgressLine(line, &p)) {
                    s.progress = std::move(p);
                    s.haveProgress = true;
                    ++s.progressLines;
                }
                // Non-protocol lines on the progress fd are ignored.
            }
            if (s.progPartial.size() > kOutputTailMax)
                s.progPartial.clear();
            continue;
        }
        if (n == 0) {
            ::close(fd);
            fd = -1;
            return;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return;
        ::close(fd);
        fd = -1;
        return;
    }
}

void
renderProgress(const std::vector<LiveShard> &shards)
{
    size_t done = 0, total = 0;
    bool any = false;
    std::string per;
    for (const auto &s : shards) {
        if (!s.haveProgress)
            continue;
        any = true;
        done += s.progress.done;
        total += s.progress.total;
        char buf[192];
        int len =
            std::snprintf(buf, sizeof(buf), "  shard%u %zu/%zu eta %.0fs",
                          s.index, s.progress.done, s.progress.total,
                          s.progress.etaSeconds);
        // Host throughput plus per-job host-latency percentiles, once
        // the shard's harness has measured them.
        if (len > 0 && size_t(len) < sizeof(buf) &&
            (s.progress.kips > 0.0 || s.progress.hostP99 > 0.0))
            std::snprintf(buf + len, sizeof(buf) - size_t(len),
                          " %.0fkips p50/p95/p99 %.3f/%.3f/%.3fs",
                          s.progress.kips, s.progress.hostP50,
                          s.progress.hostP95, s.progress.hostP99);
        per += buf;
    }
    if (any)
        std::fprintf(stderr, "[conopt_sweep] %zu/%zu jobs%s\n", done,
                     total, per.c_str());
}

/** Kill and reap everything still running: the bail-out path for a
 *  mid-launch spawn failure, an interrupt, or a broken poll loop.
 *  Records each shard's real wait status and marks it aborted, so an
 *  abandoned shard can never be mistaken for a successful one. */
void
killRemaining(std::vector<LiveShard> &shards)
{
    for (auto &s : shards) {
        if (!s.running)
            continue;
        ::kill(-s.pid, SIGKILL);
        ::kill(s.pid, SIGKILL);
        if (!s.exited) {
            int st = 0;
            if (::waitpid(s.pid, &st, 0) == s.pid)
                s.status = st;
            s.exited = true;
            s.seconds = secondsSince(s.start);
        }
        s.aborted = true;
        if (s.outFd >= 0)
            ::close(s.outFd);
        if (s.progFd >= 0)
            ::close(s.progFd);
        s.outFd = s.progFd = -1;
        s.running = false;
    }
}

/** Indent a captured-output tail for failure reports. */
void
printOutputTail(const LiveShard &s)
{
    std::fprintf(stderr,
                 "--- shard %u captured output (last %zu bytes) ---\n",
                 s.index, s.outputTail.size());
    std::fwrite(s.outputTail.data(), 1, s.outputTail.size(), stderr);
    if (!s.outputTail.empty() && s.outputTail.back() != '\n')
        std::fputc('\n', stderr);
    std::fprintf(stderr, "--- end shard %u output ---\n", s.index);
}

void mergeVerifyAndGate(const DriverOptions &opts, const std::string &sdir,
                        DriverOutcome *outp);

} // namespace

DriverOutcome
runSweepDriver(const DriverOptions &optsIn)
{
    DriverOutcome out;
    DriverOptions opts = optsIn;
    if (opts.shards == 0 || opts.shards > kMaxEnvThreads) {
        out.error = "invalid shard count " + std::to_string(opts.shards);
        return out;
    }
    if (opts.benchName.empty())
        opts.benchName = fs::path(opts.benchPath).filename().string();
    if (!validBenchName(opts.benchName)) {
        out.error = "cannot derive a bench name from '" + opts.benchPath +
                    "' (set benchName)";
        return out;
    }

    // Fail fast on a missing binary, before any directory is touched.
    std::error_code ec;
    const std::string resolved = resolveBenchPath(opts.benchPath);
    if (resolved.find('/') != std::string::npos &&
        !fs::exists(resolved, ec)) {
        out.error = "bench binary '" + opts.benchPath + "' not found";
        return out;
    }

    const std::string sdir = shardDirOf(opts);
    fs::create_directories(opts.run.artifactDir, ec);
    fs::create_directories(sdir, ec);
    if (ec) {
        out.error =
            "cannot create shard directory " + sdir + ": " + ec.message();
        return out;
    }
    // Stale artifacts from an earlier run (possibly with a different
    // shard count) would merge in or collide; the shard directory is
    // driver-owned, so clearing it is safe.
    try {
        for (const auto &e : fs::directory_iterator(sdir)) {
            if (e.is_regular_file() && e.path().extension() == ".json")
                fs::remove(e.path(), ec);
        }
    } catch (const fs::filesystem_error &fe) {
        out.error = std::string("cannot clean shard directory: ") +
                    fe.what();
        return out;
    }

    const unsigned maxAttempts = opts.retries + 1;
    // From here on the driver owns child processes: catch SIGINT /
    // SIGTERM so an interrupted run kills and reaps its shards instead
    // of orphaning them to keep writing artifacts.
    SignalGuard signalGuard;
    std::vector<LiveShard> shards(opts.shards);
    for (unsigned i = 0; i < opts.shards; ++i) {
        shards[i].index = i;
        std::string serr;
        if (!spawnShard(opts, shards[i], &serr)) {
            killRemaining(shards);
            out.error = "cannot launch shard " + std::to_string(i) + ": " +
                        serr;
            return out;
        }
    }
    std::fprintf(stderr,
                 "[conopt_sweep] launched %u shard%s of %s (artifacts in "
                 "%s)\n",
                 opts.shards, opts.shards == 1 ? "" : "s",
                 opts.benchName.c_str(), sdir.c_str());

    size_t live = shards.size();
    auto lastRender = Clock::now();
    bool progressDirty = false;
    std::string abortReason;
    while (live > 0) {
        if (gDriverInterrupted && abortReason.empty()) {
            abortReason = "interrupted; shards killed";
            std::fprintf(stderr,
                         "[conopt_sweep] interrupted; killing %zu "
                         "running shard(s)\n",
                         live);
            killRemaining(shards);
            break;
        }
        std::vector<pollfd> pfds;
        std::vector<std::pair<size_t, bool>> who; // shard slot, isProgress
        for (size_t si = 0; si < shards.size(); ++si) {
            const auto &s = shards[si];
            if (!s.running)
                continue;
            if (s.outFd >= 0) {
                pfds.push_back({s.outFd, POLLIN, 0});
                who.emplace_back(si, false);
            }
            if (s.progFd >= 0) {
                pfds.push_back({s.progFd, POLLIN, 0});
                who.emplace_back(si, true);
            }
        }
        if (!pfds.empty()) {
            const int pr = ::poll(pfds.data(), nfds_t(pfds.size()),
                                  kPollMillis);
            if (pr < 0 && errno != EINTR) {
                // A broken event loop cannot supervise the shards:
                // kill and reap everything (recorded as aborted, so
                // no half-finished shard masquerades as success).
                abortReason = std::string("poll failed: ") +
                              std::strerror(errno) + "; shards killed";
                killRemaining(shards);
                break;
            }
            for (size_t k = 0; pr > 0 && k < pfds.size(); ++k) {
                if (!(pfds[k].revents & (POLLIN | POLLHUP | POLLERR)))
                    continue;
                auto &s = shards[who[k].first];
                const bool progress = who[k].second;
                const bool had = s.haveProgress;
                const size_t hadDone = s.progress.done;
                drainFd(s, progress ? s.progFd : s.outFd, progress);
                if (progress &&
                    (s.haveProgress != had || s.progress.done != hadDone))
                    progressDirty = true;
            }
        } else {
            // All pipes are closed but a process is still unreaped.
            ::poll(nullptr, 0, kPollMillis);
        }

        for (auto &s : shards) {
            if (!s.running)
                continue;
            if (!s.exited) {
                int st = 0;
                const pid_t r = ::waitpid(s.pid, &st, WNOHANG);
                if (r == s.pid) {
                    s.exited = true;
                    s.status = st;
                    s.seconds = secondsSince(s.start);
                    s.exitTime = Clock::now();
                }
            }
            if (!s.exited && !s.timedOut && opts.timeoutSeconds > 0.0 &&
                secondsSince(s.start) > opts.timeoutSeconds) {
                s.timedOut = true;
                std::fprintf(stderr,
                             "[conopt_sweep] shard %u/%u timed out after "
                             "%.1fs; killing\n",
                             s.index, opts.shards, opts.timeoutSeconds);
                ::kill(-s.pid, SIGKILL);
                ::kill(s.pid, SIGKILL);
            }
            if (s.exited && (s.outFd >= 0 || s.progFd >= 0) &&
                secondsSince(s.exitTime) > kExitDrainGraceSeconds) {
                // The shard itself is gone but a descendant still
                // holds the pipe write ends (daemonized helper,
                // backgrounded wrapper). Kill the stragglers, take
                // any last buffered bytes, and finalize on the
                // shard's own exit status — a leaked fd must never
                // hang the sweep or defeat the timeout.
                ::kill(-s.pid, SIGKILL);
                if (s.outFd >= 0)
                    drainFd(s, s.outFd, false);
                if (s.progFd >= 0)
                    drainFd(s, s.progFd, true);
                if (s.outFd >= 0)
                    ::close(s.outFd);
                if (s.progFd >= 0)
                    ::close(s.progFd);
                s.outFd = s.progFd = -1;
            }
            if (s.exited && s.outFd < 0 && s.progFd < 0) {
                s.running = false;
                --live;
                if (s.okNow()) {
                    std::fprintf(stderr,
                                 "[conopt_sweep] shard %u/%u: ok in %.1fs "
                                 "(attempt %u)\n",
                                 s.index, opts.shards, s.seconds,
                                 s.attempts);
                } else if (s.attempts < maxAttempts) {
                    std::fprintf(
                        stderr,
                        "[conopt_sweep] shard %u/%u attempt %u failed "
                        "(%s); retrying (%u attempt%s left)\n",
                        s.index, opts.shards, s.attempts,
                        s.describeStatus().c_str(),
                        maxAttempts - s.attempts,
                        maxAttempts - s.attempts == 1 ? "" : "s");
                    // A partial artifact from the failed attempt must
                    // not survive into the merge.
                    fs::remove(fs::path(sdir) /
                                   shardArtifactName(opts.benchName,
                                                     s.index, opts.shards),
                               ec);
                    std::string serr;
                    if (spawnShard(opts, s, &serr)) {
                        ++live;
                    } else {
                        std::fprintf(stderr,
                                     "[conopt_sweep] shard %u/%u: respawn "
                                     "failed: %s\n",
                                     s.index, opts.shards, serr.c_str());
                    }
                }
            }
        }

        if (progressDirty &&
            secondsSince(lastRender) >= kRenderIntervalSeconds) {
            renderProgress(shards);
            lastRender = Clock::now();
            progressDirty = false;
        }
    }

    // An interrupt that landed after the last finalize (the loop only
    // checks the flag at its top) must still abort before merging.
    if (gDriverInterrupted && abortReason.empty())
        abortReason = "interrupted; not merging";

    // Collect final outcomes; any shard that never exited 0 is a hard
    // failure with its captured output surfaced.
    unsigned failures = 0;
    for (const auto &s : shards) {
        ShardOutcome so;
        so.index = s.index;
        so.attempts = s.attempts;
        so.ok = s.okNow();
        so.timedOut = s.timedOut;
        so.exitStatus = WIFEXITED(s.status) ? WEXITSTATUS(s.status)
                        : WIFSIGNALED(s.status) ? -WTERMSIG(s.status)
                                                : -1;
        so.seconds = s.seconds;
        so.outputTail = s.outputTail;
        so.progressLines = s.progressLines;
        if (!so.ok) {
            ++failures;
            std::fprintf(stderr,
                         "[conopt_sweep] shard %u/%u FAILED after %u "
                         "attempt%s (%s)\n",
                         s.index, opts.shards, s.attempts,
                         s.attempts == 1 ? "" : "s",
                         s.describeStatus().c_str());
            printOutputTail(s);
        }
        out.shards.push_back(std::move(so));
    }
    if (!abortReason.empty()) {
        out.error = abortReason;
        out.exitCode = 2;
        return out;
    }
    if (failures > 0) {
        out.error = std::to_string(failures) + " of " +
                    std::to_string(opts.shards) +
                    " shard(s) failed; not merging";
        out.exitCode = 2;
        return out;
    }

    mergeVerifyAndGate(opts, sdir, &out);
    return out;
}

namespace {

/** The back half of a run once every shard exited 0: verify every
 *  expected shard artifact exists, merge the shard directory, recompute
 *  the deferred figure geomeans, save the merged artifact, and gate it
 *  against the baseline. Fills out->exitCode/error/mergedArtifactPath/
 *  gateDiffs. */
void
mergeVerifyAndGate(const DriverOptions &opts, const std::string &sdir,
                   DriverOutcome *outp)
{
    DriverOutcome &out = *outp;
    std::error_code ec;
    // Every shard claims success: verify each expected artifact really
    // exists, so a shard that "succeeded" without writing its file can
    // never produce a silently thinner merged artifact.
    std::string missing;
    for (unsigned i = 0; i < opts.shards; ++i) {
        const auto p = fs::path(sdir) /
                       shardArtifactName(opts.benchName, i, opts.shards);
        if (!fs::exists(p, ec)) {
            if (!missing.empty())
                missing += ", ";
            missing += p.string();
        }
    }
    if (!missing.empty()) {
        out.error = "shard artifact(s) missing after successful shard "
                    "exit: " +
                    missing;
        return;
    }

    BenchArtifact merged;
    std::string err;
    if (!loadArtifactOrShards(sdir, &merged, &err)) {
        out.error = "cannot merge shard artifacts: " + err;
        return;
    }
    if (merged.jobs.empty()) {
        out.error = "merged artifact has zero jobs: nothing was swept";
        return;
    }
    merged.sortJobsByLabel();

    // Resolve and load the baseline before any geomean recompute so
    // the recomputed columns can mirror the baseline's exactly (the
    // conopt_bench_check contract).
    BenchArtifact baseline;
    bool haveBaseline = false;
    std::string basePath = opts.run.baselinePath;
    if (!basePath.empty() && fs::is_directory(basePath, ec)) {
        basePath = (fs::path(basePath) /
                    ("BENCH_" + opts.benchName + ".json"))
                       .string();
        if (!fs::exists(basePath, ec)) {
            std::fprintf(stderr,
                         "[conopt_sweep] no baseline for %s in %s; gate "
                         "skipped\n",
                         opts.benchName.c_str(),
                         opts.run.baselinePath.c_str());
            basePath.clear();
        }
    }
    if (!basePath.empty()) {
        if (!loadArtifact(basePath, &baseline, &err)) {
            out.error = "cannot load baseline: " + err;
            return;
        }
        haveBaseline = true;
    }

    if (!opts.geomeanBase.empty()) {
        std::vector<std::string> cols;
        if (haveBaseline) {
            for (const auto &[k, v] : baseline.geomeans) {
                (void)v;
                cols.push_back(k);
            }
        } else {
            std::set<std::string> configs;
            for (const auto &j : merged.jobs)
                if (!j.config.empty() && j.config != opts.geomeanBase)
                    configs.insert(j.config);
            cols.assign(configs.begin(), configs.end());
        }
        merged.geomeans.clear();
        merged.addGeomeansFromJobs(opts.geomeanBase, cols);
    }

    const std::string mergedPath =
        (fs::path(opts.run.artifactDir) / ("BENCH_" + opts.benchName + ".json"))
            .string();
    if (!merged.save(mergedPath, &err)) {
        out.error = "cannot write merged artifact: " + err;
        return;
    }
    out.mergedArtifactPath = mergedPath;
    std::fprintf(stderr,
                 "[conopt_sweep] merged %u shard artifact%s -> %s (%zu "
                 "jobs, %zu geomeans)\n",
                 opts.shards, opts.shards == 1 ? "" : "s",
                 mergedPath.c_str(), merged.jobs.size(),
                 merged.geomeans.size());

    // Last interrupt window: a Ctrl-C during the merge itself must
    // not be swallowed into a clean exit 0 / gate verdict.
    if (gDriverInterrupted) {
        out.error = "interrupted during merge";
        out.exitCode = 2;
        return;
    }
    if (!haveBaseline) {
        out.exitCode = 0;
        return;
    }
    const auto cmp = compareArtifacts(baseline, merged, {opts.run.tolerance});
    if (!cmp.ok) {
        std::fprintf(stderr,
                     "[conopt_sweep] BASELINE DRIFT vs %s (%zu "
                     "difference%s, tolerance %g):\n",
                     basePath.c_str(), cmp.diffs.size(),
                     cmp.diffs.size() == 1 ? "" : "s", opts.run.tolerance);
        for (const auto &d : cmp.diffs)
            std::fprintf(stderr, "  %s\n", d.c_str());
        out.gateDiffs = cmp.diffs;
        out.exitCode = 1;
        return;
    }
    std::fprintf(stderr,
                 "[conopt_sweep] merged artifact matches baseline %s "
                 "(tolerance %g)\n",
                 basePath.c_str(), opts.run.tolerance);
    out.exitCode = 0;
}

} // namespace

// --------------------------------------------------------------------------
// CLI
// --------------------------------------------------------------------------

namespace {

constexpr const char *kUsage =
    "usage: conopt_sweep [options] <bench> [-- <bench args...>]\n"
    "  Launches <bench> as N shard processes (--shard i/n), streams\n"
    "  their progress, waits with per-shard timeout and bounded retry,\n"
    "  merges the per-shard BENCH artifacts, optionally recomputes the\n"
    "  deferred figure geomeans, and gates the merged artifact against\n"
    "  a baseline.\n"
    "options:\n"
    "  --shards N              shard process count (default 2)\n"
    "  --bench-name NAME       artifact name (default: basename of "
    "<bench>)\n"
    "  --artifact-dir DIR      merged artifact directory; shards write\n"
    "                          to DIR/<name>.shards/ (default .)\n"
    "  --result-cache DIR      forward --result-cache DIR to every "
    "shard\n"
    "  --baseline PATH         gate the merged artifact (file or\n"
    "                          baseline directory)\n"
    "  --tolerance T           gate tolerance (default 0: exact)\n"
    "  --recompute-geomeans B  rebuild the merged figure geomeans over\n"
    "                          base config B (needed for figure "
    "benches)\n"
    "  --timeout SECONDS       per-shard-attempt timeout (default: "
    "none)\n"
    "  --retries K             extra attempts per failed shard "
    "(default 1)\n"
    "  --no-progress           do not stream per-shard progress/ETA\n"
    "exit status: 0 merged artifact ok, 1 baseline drift, 2 error\n";

} // namespace

int
sweepDriverMain(const std::vector<std::string> &args)
{
    for (const auto &a : args) {
        if (a == "--help" || a == "-h") {
            // conopt-lint: allow(stray-output) --help goes to stdout
            std::fputs(kUsage, stdout);
            return 0;
        }
    }
    DriverOptions opts;
    std::string err;
    if (!parseDriverArgs(args, &opts, &err)) {
        std::fprintf(stderr, "conopt_sweep: %s\n%s", err.c_str(), kUsage);
        return 2;
    }
    const auto out = runSweepDriver(opts);
    if (out.exitCode == 2 && !out.error.empty())
        std::fprintf(stderr, "conopt_sweep: %s\n", out.error.c_str());
    return out.exitCode;
}

} // namespace conopt::sim
