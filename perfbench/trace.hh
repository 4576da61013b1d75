/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span is one call into a layer, timed from the benchmark's side of
 * the call: name, start, end, the span that caused it, and the id of
 * the job it belongs to. Spans stay in memory while the benchmark runs
 * and are written out once, at exit, so recording costs two clock
 * reads and a vector append per span. Self time of a span is its
 * duration minus the part of it covered by its children; children of
 * one parent may overlap (two sweep workers), so coverage is the union
 * of their intervals.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** One recorded call. Times are ns since the recorder was created. */
struct Span
{
    const char *name = ""; ///< static string: the layer call's name
    int64_t startNs = 0;
    int64_t endNs = 0;
    int32_t parent = -1; ///< index of the causing span, -1 for roots
    int64_t job = -1;    ///< job id shared by a job's spans, -1 for none
    int64_t work = 0;    ///< units of work the call did (insts, branches...)
};

/** Per-name totals over every recorded span. */
struct SpanTotal
{
    std::string name;
    uint64_t count = 0;
    double totalMs = 0.0;
    double selfMs = 0.0;
    int64_t work = 0;
};

/**
 * Thread-safe span store. The sweep layer reports finished jobs from
 * its worker threads, so add() may be called concurrently with itself;
 * everything else runs on the main thread.
 */
class SpanRecorder
{
  public:
    SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

    /** Nanoseconds since the recorder was created. */
    int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }

    /** Open a span starting now; close it with end(). */
    int32_t begin(const char *name, int32_t parent = -1, int64_t job = -1);
    /** Close span @p id at the current time, crediting @p work units. */
    void end(int32_t id, int64_t work = 0);
    /** Record an already-finished span. */
    int32_t add(const char *name, int64_t startNs, int64_t endNs,
                int32_t parent, int64_t job, int64_t work = 0);

    /** Durations (ms) of every span named @p name, in record order. */
    std::vector<double> durationsMs(const std::string &name) const;
    /** Summed duration (ns) of every span named @p name. */
    double totalNs(const std::string &name) const;
    /** Summed duration over summed work of every span named @p name;
     *  0 when no work was recorded. */
    double nsPerWork(const std::string &name) const;

    /** Count, total and self time per span name, sorted by self time. */
    std::vector<SpanTotal> totals() const;

    /** Write every span plus @p envJson (a JSON object) to @p path as
     *  one JSON document. False with @p err on I/O failure. */
    bool writeJson(const std::string &path, const std::string &envJson,
                   std::string *err) const;

  private:
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mu_;
    std::vector<Span> spans_; ///< guarded by mu_
};

/** RAII span: open on construction, closed on destruction. A null
 *  recorder records nothing, so untraced code paths share the code. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const char *name, int32_t parent = -1,
               int64_t job = -1)
        : rec_(rec), id_(rec ? rec->begin(name, parent, job) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (rec_)
            rec_->end(id_, work_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int32_t id() const { return id_; }
    /** Work units credited to the span when it closes. */
    void setWork(int64_t work) { work_ = work; }

  private:
    SpanRecorder *rec_;
    int32_t id_;
    int64_t work_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
