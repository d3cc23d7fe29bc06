#include "uhm/profile.hh"

namespace uhm
{

obs::ProfileData
buildProfile(const ProfileMeta &meta, const RunResult &result)
{
    obs::ProfileData p;
    if (!meta.program.empty())
        p.meta.emplace_back("program", meta.program);
    if (!meta.machine.empty())
        p.meta.emplace_back("machine", meta.machine);
    if (!meta.encoding.empty())
        p.meta.emplace_back("encoding", meta.encoding);
    if (meta.imageBits != 0)
        p.meta.emplace_back("image_bits",
                            std::to_string(meta.imageBits));

    const CycleBreakdown &b = result.breakdown;
    p.phases = {
        {"fetch", b.fetch},         {"decode", b.decode},
        {"stage", b.stage},         {"dispatch", b.dispatch},
        {"semantic", b.semantic},   {"translate", b.translate},
        {"translate2", b.translate2},
        {"total", b.total()},
    };

    p.counters = result.counters;
    p.histograms = result.histograms;
    p.samples = result.samples;

    auto counter = [&result](const char *name) -> uint64_t {
        auto it = result.counters.find(name);
        return it == result.counters.end() ? 0 : it->second;
    };
    uint64_t translated = counter("machine.translated_instrs");
    uint64_t emitted = counter("translate.short_emitted");

    p.ratios.emplace_back("cycles_per_instr", result.avgInterpTime());
    p.ratios.emplace_back("dtb.hit_ratio", result.dtbHitRatio);
    p.ratios.emplace_back("dtbl1.hit_ratio", result.dtbL1HitRatio);
    p.ratios.emplace_back("icache.hit_ratio", result.cacheHitRatio);
    p.ratios.emplace_back(
        "translate.amplification",
        translated == 0 ? 0.0 :
        static_cast<double>(emitted) /
        static_cast<double>(translated));
    p.ratios.emplace_back(
        "translate.cycle_fraction",
        b.total() == 0 ? 0.0 :
        static_cast<double>(b.translate) /
        static_cast<double>(b.total()));
    p.ratios.emplace_back("measured_d", result.measuredD);
    p.ratios.emplace_back("measured_x", result.measuredX);
    p.ratios.emplace_back("measured_g", result.measuredG);
    p.ratios.emplace_back("tier.trace_hit_ratio", result.traceHitRatio);
    p.ratios.emplace_back("tier.coverage", result.traceCoverage);
    p.ratios.emplace_back("tier.mean_iter_len",
                          result.traceMeanIterLen);
    p.ratios.emplace_back("measured_g2", result.measuredG2);
    // Trace-ring health: the fraction of recorded events the bounded
    // ring overwrote. Anything above 0 means the event trace (and any
    // timeline built from it) is a suffix of the run, not the whole.
    p.ratios.emplace_back(
        "events.drop_rate",
        result.eventsSeen == 0 ? 0.0 :
        static_cast<double>(result.eventsDropped) /
        static_cast<double>(result.eventsSeen));

    p.events = result.events;
    p.eventsSeen = result.eventsSeen;
    p.eventsDropped = result.eventsDropped;
    return p;
}

std::string
profileJsonl(const ProfileMeta &meta, const RunResult &result)
{
    return obs::toJsonl(buildProfile(meta, result));
}

std::vector<std::string>
interpFlow(const RunResult &result)
{
    // A miss is one DtbMiss .. Translate [.. DtbReject] group; its line
    // is complete once the next lookup begins. A group whose DtbMiss
    // the ring dropped is not shown.
    std::vector<std::string> lines;
    bool pending = false;
    uint64_t miss_addr = 0;
    uint64_t emitted = 0;
    bool rejected = false;
    auto flush_miss = [&]() {
        if (!pending)
            return;
        lines.push_back("interp miss dir@" + std::to_string(miss_addr) +
                        " -> translate (" + std::to_string(emitted) +
                        " short instrs, " +
                        (rejected ? "rejected" : "stored") + ")");
        pending = false;
    };
    for (const obs::Event &e : result.events) {
        switch (e.kind) {
          case obs::EventKind::DtbHit:
            flush_miss();
            lines.push_back("interp hit dir@" + std::to_string(e.addr));
            break;
          case obs::EventKind::DtbMiss:
            flush_miss();
            pending = true;
            miss_addr = e.addr;
            emitted = 0;
            rejected = false;
            break;
          case obs::EventKind::Translate:
            emitted = e.arg;
            break;
          case obs::EventKind::DtbReject:
            rejected = true;
            break;
          default:
            break;
        }
    }
    flush_miss();
    return lines;
}

} // namespace uhm
