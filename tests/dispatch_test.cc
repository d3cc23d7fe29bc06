/**
 * @file
 * Fast-run dispatch (--dispatch=threaded): the threaded engine is a
 * host-side implementation detail, so every simulated observable must
 * be byte-identical to the reference switch interpreter — across
 * machine kinds, encoders, the interval sampler, batch sweeps, and the
 * multi-tenant scheduler — and the per-site inline caches must be
 * invalidated by the existing DTB flush and eviction paths.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "hlr/compiler.hh"
#include "sched/scheduler.hh"
#include "uhm/machine.hh"
#include "workload/samples.hh"
#include "workload/synthetic.hh"

namespace uhm
{
namespace
{

const std::vector<MachineKind> kAllKinds = {
    MachineKind::Conventional, MachineKind::Cached, MachineKind::Dtb,
    MachineKind::Dtb2,         MachineKind::Tiered,
};

/** Every simulated observable of two runs must agree exactly. */
void
expectIdentical(const RunResult &sw, const RunResult &th,
                const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(sw.output, th.output);
    EXPECT_EQ(sw.cycles, th.cycles);
    EXPECT_EQ(sw.dirInstrs, th.dirInstrs);
    EXPECT_EQ(sw.breakdown.fetch, th.breakdown.fetch);
    EXPECT_EQ(sw.breakdown.decode, th.breakdown.decode);
    EXPECT_EQ(sw.breakdown.stage, th.breakdown.stage);
    EXPECT_EQ(sw.breakdown.dispatch, th.breakdown.dispatch);
    EXPECT_EQ(sw.breakdown.semantic, th.breakdown.semantic);
    EXPECT_EQ(sw.breakdown.translate, th.breakdown.translate);
    EXPECT_EQ(sw.breakdown.translate2, th.breakdown.translate2);
    EXPECT_EQ(sw.counters, th.counters);
    EXPECT_EQ(sw.histograms, th.histograms);
    EXPECT_EQ(sw.samples, th.samples);
    EXPECT_EQ(sw.opcodeCounts, th.opcodeCounts);
    EXPECT_EQ(sw.dtbHitRatio, th.dtbHitRatio);
    EXPECT_EQ(sw.dtbL1HitRatio, th.dtbL1HitRatio);
    EXPECT_EQ(sw.cacheHitRatio, th.cacheHitRatio);
    EXPECT_EQ(sw.traceHitRatio, th.traceHitRatio);
    EXPECT_EQ(sw.traceCoverage, th.traceCoverage);
    EXPECT_EQ(sw.traceMeanIterLen, th.traceMeanIterLen);
}

/** Run @p prog under both dispatch modes and demand identity. */
void
compareModes(const DirProgram &prog, EncodingScheme scheme,
             MachineConfig cfg, const std::vector<int64_t> &input,
             const std::string &what)
{
    cfg.dispatch = DispatchMode::Switch;
    RunResult sw = runProgram(prog, scheme, cfg, input);
    cfg.dispatch = DispatchMode::Threaded;
    RunResult th = runProgram(prog, scheme, cfg, input);
    expectIdentical(sw, th, what);
}

TEST(DispatchIdentity, SamplesAcrossKindsAndEncoders)
{
    for (const auto &sample : workload::samplePrograms()) {
        DirProgram prog = hlr::compileSource(sample.source);
        for (MachineKind kind : kAllKinds) {
            for (EncodingScheme scheme : allEncodingSchemes()) {
                MachineConfig cfg;
                cfg.kind = kind;
                compareModes(prog, scheme, cfg, sample.input,
                             std::string(sample.name) + "/" +
                                 machineKindName(kind) + "/" +
                                 encodingName(scheme));
            }
        }
    }
}

TEST(DispatchIdentity, SyntheticSemworkAcrossKinds)
{
    // Semantics-heavy spins exercise the fused SEMWORK closed form.
    workload::SyntheticConfig scfg;
    scfg.numLoops = 3;
    scfg.bodyInstrs = 20;
    scfg.iterations = 12;
    scfg.semworkDensity = 0.3;
    scfg.semworkWeight = 37;
    scfg.seed = 11;
    DirProgram prog = workload::generateSynthetic(scfg);
    for (MachineKind kind : kAllKinds) {
        MachineConfig cfg;
        cfg.kind = kind;
        compareModes(prog, EncodingScheme::Huffman, cfg, {},
                     std::string("semwork/") + machineKindName(kind));
    }
}

TEST(DispatchIdentity, IntervalSamplerSeries)
{
    // The sampler drains pending work at every sample boundary; the
    // batched attribution must produce the same series, sample by
    // sample.
    DirProgram prog = hlr::compileSource(
        "program t; var i, s; begin i := 500; s := 0; "
        "while i > 0 do s := s + i; i := i - 1; od; write s; end.");
    for (MachineKind kind :
         {MachineKind::Dtb, MachineKind::Tiered}) {
        MachineConfig cfg;
        cfg.kind = kind;
        cfg.sampleIntervalCycles = 997; // prime: misaligned boundaries
        compareModes(prog, EncodingScheme::Packed, cfg, {},
                     std::string("sampler/") + machineKindName(kind));
    }
}

TEST(DispatchIdentity, SweepJsonlByteIdentical)
{
    auto makePoints = [](DispatchMode mode) {
        std::vector<bench::SweepPoint> points;
        for (MachineKind kind : kAllKinds) {
            bench::SweepPoint pt;
            pt.label = machineKindName(kind);
            pt.program = hlr::compileSource(
                "program t; var i, s; begin i := 200; s := 1; "
                "while i > 0 do s := s + 2; i := i - 1; od; "
                "write s; end.");
            pt.scheme = EncodingScheme::Huffman;
            pt.config.kind = kind;
            pt.config.dispatch = mode;
            points.push_back(std::move(pt));
        }
        return points;
    };
    bench::SweepRunner runner(2);
    std::string sw =
        bench::runSweep(runner, makePoints(DispatchMode::Switch)).jsonl;
    std::string th =
        bench::runSweep(runner,
                        makePoints(DispatchMode::Threaded)).jsonl;
    EXPECT_EQ(sw, th);
}

/** Deterministic serialization of a scheduler run, for byte-compares. */
std::string
serializeSched(const sched::SchedResult &r)
{
    std::ostringstream os;
    for (const auto &kv : r.counters)
        os << kv.first << "=" << kv.second << "\n";
    for (const auto &kv : r.histograms)
        os << kv.first << " n=" << kv.second.count
           << " min=" << kv.second.min << " max=" << kv.second.max
           << "\n";
    for (const sched::TenantResult &t : r.tenants) {
        os << t.name << ":";
        for (int64_t v : t.run.output)
            os << " " << v;
        os << "\n";
    }
    return os.str();
}

TEST(DispatchIdentity, MultiTenantSchedulerByteIdentical)
{
    // FlushOnSwitch flushes the shared DTB (and trace anchors) at
    // every context switch, mid-run from the tenants' point of view —
    // the inline caches must die with the entries they point at.
    const char *kLoop =
        "program t; var i, s; begin i := 400; s := 0; "
        "while i > 0 do s := s + i; i := i - 1; od; write s; end.";
    for (MachineKind kind : {MachineKind::Dtb, MachineKind::Tiered}) {
        for (sched::Policy policy :
             {sched::Policy::RoundRobin, sched::Policy::Priority}) {
            for (sched::SwitchMode mode :
                 {sched::SwitchMode::FlushOnSwitch,
                  sched::SwitchMode::TagAndShare}) {
                for (size_t tenants : {1u, 8u, 64u}) {
                    sched::SchedConfig sc;
                    sc.policy = policy;
                    sc.switchMode = mode;
                    sc.quantumCycles = 1000;
                    sc.machine.kind = kind;
                    std::vector<sched::TenantSpec> specs;
                    for (size_t i = 0; i < tenants; ++i) {
                        sched::TenantSpec spec;
                        spec.name = "t" + std::to_string(i);
                        spec.program = hlr::compileSource(kLoop);
                        spec.priority =
                            1 + static_cast<uint32_t>(i % 3);
                        specs.push_back(std::move(spec));
                    }
                    sc.machine.dispatch = DispatchMode::Switch;
                    std::string sw =
                        serializeSched(runScheduled(sc, specs));
                    sc.machine.dispatch = DispatchMode::Threaded;
                    std::string th =
                        serializeSched(runScheduled(sc, specs));
                    SCOPED_TRACE(std::string(machineKindName(kind)) +
                                 "/" + policyName(policy) + "/" +
                                 switchModeName(mode) + "/" +
                                 std::to_string(tenants));
                    EXPECT_EQ(sw, th);
                }
            }
        }
    }
}

TEST(InlineCache, EvictionChurnStaysIdentical)
{
    // A DTB small enough that the working set churns through every
    // set: each eviction must invalidate any inline cache pointing at
    // the victim slot, or the threaded engine dispatches stale code.
    workload::SyntheticConfig scfg;
    scfg.numLoops = 6;
    scfg.bodyInstrs = 40;
    scfg.iterations = 10;
    scfg.outerRepeats = 3; // revisit evicted code: stale ICs would hit
    scfg.semworkDensity = 0.1;
    scfg.semworkWeight = 5;
    scfg.seed = 23;
    DirProgram prog = workload::generateSynthetic(scfg);
    for (MachineKind kind : {MachineKind::Dtb, MachineKind::Tiered}) {
        MachineConfig cfg;
        cfg.kind = kind;
        cfg.dtb.capacityBytes = 256;
        cfg.dtb.assoc = 2;
        compareModes(prog, EncodingScheme::Huffman, cfg, {},
                     std::string("tiny-dtb/") + machineKindName(kind));
    }
}

TEST(InlineCache, FlushDtbInvalidatesBetweenRuns)
{
    // flushDtb() bumps the generation; a rerun on the same machine
    // must behave exactly like a rerun without the flush (beginRun
    // already cold-starts the DTB) — in particular no inline cache
    // may survive into the flushed generation.
    DirProgram prog = hlr::compileSource(
        "program t; var i, s; begin i := 300; s := 0; "
        "while i > 0 do s := s + 3; i := i - 1; od; write s; end.");
    auto img = encodeDir(prog, EncodingScheme::Huffman);
    MachineConfig cfg;
    cfg.kind = MachineKind::Dtb;
    cfg.dispatch = DispatchMode::Threaded;

    Machine flushed(*img, cfg);
    RunResult first = flushed.run({});
    flushed.flushDtb();
    RunResult second = flushed.run({});
    expectIdentical(first, second, "pre-flush vs post-flush rerun");

    Machine fresh(*img, cfg);
    expectIdentical(fresh.run({}), second, "fresh vs post-flush");
}

} // anonymous namespace
} // namespace uhm
