#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace ledger {

uint64_t
Lane::open(const char *name, uint64_t request)
{
    SpanRecord rec;
    rec.name = name;
    rec.id = (static_cast<uint64_t>(index) << 40) | next++;
    rec.parent = stack.empty() ? 0 : spans[stack.back()].id;
    rec.request = request;
    rec.lane = index;
    rec.stage = stage;
    stack.push_back(spans.size());
    spans.push_back(rec);
    spans.back().startNs = nowNs();
    return rec.id;
}

void
Lane::close(uint64_t id, uint64_t items)
{
    const int64_t end = nowNs();
    // Spans are strictly nested per thread: the one closing is the
    // innermost open span.
    SpanRecord &rec = spans[stack.back()];
    if (rec.id == id) {
        rec.endNs = end;
        rec.items = items;
        stack.pop_back();
    }
}

Lane *
Tracer::newLane(uint32_t stage)
{
    lanes.push_back(std::make_unique<Lane>(
        static_cast<uint32_t>(lanes.size() + 1), stage));
    return lanes.back().get();
}

size_t
Tracer::spanCount() const
{
    size_t n = 0;
    for (const auto &lane : lanes)
        n += lane->records().size();
    return n;
}

std::map<std::string, LayerTotals>
Tracer::totals(int stage) const
{
    std::map<std::string, LayerTotals> out;
    for (const auto &lane : lanes) {
        const std::vector<SpanRecord> &spans = lane->records();
        // Children share their parent's lane, so self time is local.
        std::unordered_map<uint64_t, double> childNs;
        for (const SpanRecord &s : spans)
            if (s.parent != 0)
                childNs[s.parent] +=
                    static_cast<double>(s.endNs - s.startNs);
        for (const SpanRecord &s : spans) {
            if (stage >= 0 && s.stage != static_cast<uint32_t>(stage))
                continue;
            const double dur = static_cast<double>(s.endNs - s.startNs);
            LayerTotals &t = out[s.name];
            ++t.calls;
            t.items += s.items;
            t.totalNs += dur;
            const auto child = childNs.find(s.id);
            t.selfNs += dur - (child == childNs.end() ? 0.0
                                                      : child->second);
            t.durationsNs.push_back(dur);
        }
    }
    return out;
}

bool
Tracer::dump(const std::string &path,
             const std::vector<std::string> &stageNames) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"fields\": [\"name\", \"stage\", \"lane\", "
                    "\"id\", \"parent\", \"request\", \"start_ns\", "
                    "\"end_ns\", \"items\"],\n \"spans\": [");
    bool first = true;
    for (const auto &lane : lanes) {
        for (const SpanRecord &s : lane->records()) {
            std::fprintf(f,
                         "%s\n  [\"%s\", \"%s\", %u, %llu, %llu, %llu, "
                         "%lld, %lld, %llu]",
                         first ? "" : ",", s.name,
                         stageNames.at(s.stage).c_str(), s.lane,
                         static_cast<unsigned long long>(s.id),
                         static_cast<unsigned long long>(s.parent),
                         static_cast<unsigned long long>(s.request),
                         static_cast<long long>(s.startNs),
                         static_cast<long long>(s.endNs),
                         static_cast<unsigned long long>(s.items));
            first = false;
        }
    }
    std::fprintf(f, "\n ],\n \"self_time\": [");
    first = true;
    for (size_t stage = 0; stage < stageNames.size(); ++stage) {
        for (const auto &[name, t] : totals(static_cast<int>(stage))) {
            std::fprintf(f,
                         "%s\n  {\"stage\": \"%s\", \"name\": \"%s\", "
                         "\"calls\": %llu, \"items\": %llu, "
                         "\"total_ms\": %.6f, \"self_ms\": %.6f}",
                         first ? "" : ",", stageNames[stage].c_str(),
                         name.c_str(),
                         static_cast<unsigned long long>(t.calls),
                         static_cast<unsigned long long>(t.items),
                         t.totalNs / 1e6, t.selfNs / 1e6);
            first = false;
        }
    }
    std::fprintf(f, "\n ]\n}\n");
    return std::fclose(f) == 0;
}

void
Tracer::printSelfTimes(const std::vector<std::string> &stageNames) const
{
    std::fprintf(stderr, "%-9s %-22s %9s %12s %11s %11s\n", "stage",
                 "span", "calls", "items", "total_ms", "self_ms");
    for (size_t stage = 0; stage < stageNames.size(); ++stage) {
        for (const auto &[name, t] : totals(static_cast<int>(stage))) {
            std::fprintf(stderr, "%-9s %-22s %9llu %12llu %11.3f %11.3f\n",
                         stageNames[stage].c_str(), name.c_str(),
                         static_cast<unsigned long long>(t.calls),
                         static_cast<unsigned long long>(t.items),
                         t.totalNs / 1e6, t.selfNs / 1e6);
        }
    }
}

} // namespace ledger
