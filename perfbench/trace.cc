#include "perfbench/trace.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

namespace perfbench {

int32_t
SpanRecorder::begin(const char *name, int32_t parent, int64_t job)
{
    const int64_t t = now();
    return add(name, t, t, parent, job);
}

void
SpanRecorder::end(int32_t id, int64_t work)
{
    const int64_t t = now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[size_t(id)].endNs = t;
    spans_[size_t(id)].work = work;
}

int32_t
SpanRecorder::add(const char *name, int64_t startNs, int64_t endNs,
                  int32_t parent, int64_t job, int64_t work)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, startNs, endNs, parent, job, work});
    return int32_t(spans_.size() - 1);
}

std::vector<double>
SpanRecorder::durationsMs(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const auto &s : spans_)
        if (name == s.name)
            out.push_back(double(s.endNs - s.startNs) / 1e6);
    return out;
}

double
SpanRecorder::totalNs(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    double ns = 0.0;
    for (const auto &s : spans_)
        if (name == s.name)
            ns += double(s.endNs - s.startNs);
    return ns;
}

double
SpanRecorder::nsPerWork(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    double ns = 0.0;
    int64_t work = 0;
    for (const auto &s : spans_) {
        if (name == s.name) {
            ns += double(s.endNs - s.startNs);
            work += s.work;
        }
    }
    return work > 0 ? ns / double(work) : 0.0;
}

std::vector<SpanTotal>
SpanRecorder::totals() const
{
    std::lock_guard<std::mutex> lock(mu_);
    // Children's intervals per parent, clipped to the parent.
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(
        spans_.size());
    for (const auto &s : spans_) {
        if (s.parent < 0)
            continue;
        const Span &p = spans_[size_t(s.parent)];
        const int64_t lo = std::max(s.startNs, p.startNs);
        const int64_t hi = std::min(s.endNs, p.endNs);
        if (hi > lo)
            kids[size_t(s.parent)].emplace_back(lo, hi);
    }
    std::map<std::string, SpanTotal> byName;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0;
        int64_t curLo = 0, curHi = -1;
        for (const auto &[lo, hi] : iv) {
            if (lo > curHi) {
                if (curHi > curLo)
                    covered += curHi - curLo;
                curLo = lo;
                curHi = hi;
            } else {
                curHi = std::max(curHi, hi);
            }
        }
        if (curHi > curLo)
            covered += curHi - curLo;
        const int64_t dur = s.endNs - s.startNs;
        SpanTotal &t = byName[s.name];
        t.name = s.name;
        ++t.count;
        t.totalMs += double(dur) / 1e6;
        t.selfMs += double(dur - covered) / 1e6;
        t.work += s.work;
    }
    std::vector<SpanTotal> out;
    for (auto &[name, t] : byName)
        out.push_back(std::move(t));
    std::sort(out.begin(), out.end(),
              [](const SpanTotal &a, const SpanTotal &b) {
                  return a.selfMs > b.selfMs;
              });
    return out;
}

bool
SpanRecorder::writeJson(const std::string &path, const std::string &envJson,
                        std::string *err) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        *err = "cannot open " + path;
        return false;
    }
    std::fprintf(f, "{\"env\": %s,\n \"spans\": [", envJson.c_str());
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "%s\n  {\"id\": %zu, \"name\": \"%s\", "
                         "\"start_ns\": %lld, \"end_ns\": %lld, "
                         "\"parent\": %d, \"job\": %lld, "
                         "\"work\": %lld}",
                         i ? "," : "", i, s.name, (long long)s.startNs,
                         (long long)s.endNs, int(s.parent),
                         (long long)s.job, (long long)s.work);
        }
    }
    std::fprintf(f, "\n ]}\n");
    if (std::fclose(f) != 0) {
        *err = "cannot write " + path;
        return false;
    }
    return true;
}

} // namespace perfbench
