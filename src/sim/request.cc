#include "src/sim/request.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace conopt::sim {

namespace {

/** Parse environment variable @p name as an unsigned. Unset, empty,
 *  non-numeric, negative, zero, or partially-numeric values (e.g.
 *  "8x", "4,") yield @p def; values beyond @p cap clamp to it (so
 *  absurd inputs can't overflow downstream scale/thread arithmetic). */
unsigned
envUnsigned(const char *name, unsigned def, unsigned cap)
{
    const char *s = std::getenv(name);
    if (!s || !*s)
        return def;
    // Skip exactly the whitespace strtoull would, so a negative value
    // is rejected here rather than wrapping to a huge unsigned there.
    while (std::isspace(uint8_t(*s)))
        ++s;
    if (*s == '-')
        return def;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s)
        return def;
    // The whole token must be the number: trailing whitespace is fine,
    // trailing garbage means the value was not what the user intended
    // ("8x", "4,") and must fall back to the default, not silently
    // parse as its numeric prefix.
    while (std::isspace(uint8_t(*end)))
        ++end;
    if (*end != '\0')
        return def;
    if (errno == ERANGE || v > cap)
        return cap;
    return v == 0 ? def : unsigned(v);
}

} // namespace

unsigned
envScale()
{
    return envUnsigned("CONOPT_SCALE", 1, kMaxEnvScale);
}

unsigned
envThreads()
{
    return envUnsigned("CONOPT_THREADS", 0, kMaxEnvThreads);
}

bool
parseShard(const std::string &s, ShardSpec *out)
{
    // Strict "<digits>/<digits>": no sign, no whitespace, no trailing
    // characters (strtoull alone would accept all three).
    const char *p = s.c_str();
    if (!std::isdigit(uint8_t(*p)))
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long i = std::strtoull(p, &end, 10);
    if (*end != '/' || errno == ERANGE)
        return false;
    const char *q = end + 1;
    if (!std::isdigit(uint8_t(*q)))
        return false;
    errno = 0;
    const unsigned long long n = std::strtoull(q, &end, 10);
    if (*end != '\0' || errno == ERANGE)
        return false;
    if (n == 0 || n > kMaxEnvThreads || i >= n)
        return false;
    out->index = unsigned(i);
    out->count = unsigned(n);
    return true;
}

bool
parseU64Token(const std::string &s, uint64_t *out)
{
    if (s.empty() || !std::isdigit(uint8_t(s[0])))
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (*end != '\0' || errno == ERANGE)
        return false;
    *out = v;
    return true;
}

bool
parseDoubleToken(const std::string &s, double *out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0' || !std::isfinite(v))
        return false;
    *out = v;
    return true;
}

} // namespace conopt::sim
