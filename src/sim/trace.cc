#include "sim/trace.hh"

#include <charconv>
#include <cmath>
#include <sstream>

#include "common/logging.hh"
#include "common/rng.hh"

namespace pka::sim
{

using pka::common::fatal;
using pka::common::Rng;
using pka::common::strfmt;
using pka::workload::KernelDescriptor;

uint32_t
resolveCtaIterations(const KernelDescriptor &k, uint64_t workload_seed,
                     uint64_t cta_id, uint64_t launch_salt)
{
    if (k.ctaWorkCv <= 0.0)
        return k.iterations;
    Rng crng = Rng::forKey(workload_seed, launch_salt, cta_id);
    double sigma = std::sqrt(std::log(1.0 + k.ctaWorkCv * k.ctaWorkCv));
    return std::max<uint32_t>(
        1, static_cast<uint32_t>(
               std::lround(k.iterations * crng.jitter(sigma))));
}

KernelTrace
captureTrace(pka::workload::Launch l, uint64_t workload_seed)
{
    const KernelDescriptor &k = l.config;
    PKA_ASSERT(k.program != nullptr, "launch has no program");
    KernelTrace t;
    t.launchId = l.launchId;
    t.kernelName = k.program->name;
    uint64_t ctas = k.numCtas();
    t.ctaIterations.reserve(ctas);
    for (uint64_t c = 0; c < ctas; ++c)
        t.ctaIterations.push_back(
            resolveCtaIterations(k, workload_seed, c, l.launchId));
    return t;
}

void
writeTraces(std::ostream &os, const std::vector<KernelTrace> &traces)
{
    os << "# pka-trace v1\n";
    os << traces.size() << "\n";
    for (const auto &t : traces) {
        os << t.launchId << " " << t.ctaIterations.size() << " "
           << t.kernelName << "\n";
        // Run-length encoding: regular kernels collapse to one run.
        size_t i = 0;
        bool first = true;
        while (i < t.ctaIterations.size()) {
            size_t j = i;
            while (j < t.ctaIterations.size() &&
                   t.ctaIterations[j] == t.ctaIterations[i])
                ++j;
            if (!first)
                os << " ";
            os << (j - i) << "x" << t.ctaIterations[i];
            first = false;
            i = j;
        }
        os << "\n";
    }
}

namespace
{

uint64_t
parseU64Tok(const std::string &s, const char *ctx)
{
    uint64_t v = 0;
    auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc() || p != s.data() + s.size())
        fatal(strfmt("malformed %s in trace: '%s'", ctx, s.c_str()));
    return v;
}

} // namespace

std::vector<KernelTrace>
readTraces(std::istream &is)
{
    std::string line;
    if (!std::getline(is, line) || line != "# pka-trace v1")
        fatal("not a pka trace file (missing magic header)");
    if (!std::getline(is, line))
        fatal("trace file truncated before the launch count");
    size_t n = parseU64Tok(line, "launch count");

    std::vector<KernelTrace> out;
    out.reserve(n);
    for (size_t t = 0; t < n; ++t) {
        if (!std::getline(is, line))
            fatal("trace file truncated inside a launch header");
        std::istringstream hs(line);
        KernelTrace trace;
        uint64_t ctas = 0;
        if (!(hs >> trace.launchId >> ctas))
            fatal("malformed trace launch header: '" + line + "'");
        std::getline(hs, trace.kernelName);
        if (!trace.kernelName.empty() && trace.kernelName.front() == ' ')
            trace.kernelName.erase(0, 1);

        if (!std::getline(is, line))
            fatal("trace file truncated inside a run-length block");
        std::istringstream rs(line);
        std::string tok;
        trace.ctaIterations.reserve(ctas);
        while (rs >> tok) {
            auto x = tok.find('x');
            if (x == std::string::npos)
                fatal("malformed run-length token: '" + tok + "'");
            uint64_t count = parseU64Tok(tok.substr(0, x), "run length");
            uint32_t iters = static_cast<uint32_t>(
                parseU64Tok(tok.substr(x + 1), "trip count"));
            for (uint64_t i = 0; i < count; ++i)
                trace.ctaIterations.push_back(iters);
        }
        if (trace.ctaIterations.size() != ctas)
            fatal(strfmt("trace launch %u decodes %zu CTAs, header says "
                         "%llu",
                         trace.launchId, trace.ctaIterations.size(),
                         static_cast<unsigned long long>(ctas)));
        out.push_back(std::move(trace));
    }
    return out;
}

} // namespace pka::sim
