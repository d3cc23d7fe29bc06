/**
 * @file
 * uhm_perfbench — the measuring half of the repository benchmark.
 *
 * Runs one workload against the public API (serve::Server +
 * serve::Client, or Machine) with the settings a user gets by default,
 * checks every output, and writes the raw measurements — per-operation
 * latencies, set-up times, counts and, in a traced run, the span log —
 * to an output directory. perfbench/run.py turns them into metrics;
 * README.md in this directory explains the workloads and the metrics.
 *
 * Usage:
 *   uhm_perfbench --workload serve-hot|serve-churn|sim-batch
 *                 --seed N --seconds S --trace 0|1 --out DIR
 *
 * The serve workloads bind a unix socket at DIR/serve.sock, so DIR
 * should be a short relative path.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "dir/serialize.hh"
#include "hlr/compiler.hh"
#include "hlr/interp.hh"
#include "hlr/parser.hh"
#include "serve/cache.hh"
#include "serve/client.hh"
#include "serve/proto.hh"
#include "serve/server.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "uhm/profile.hh"
#include "workload/samples.hh"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace uhm;

namespace
{

// ---------------------------------------------------------------------
// Time.
// ---------------------------------------------------------------------

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - kEpoch)
        .count();
}

double
secondsSince(int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

uint64_t
fnv1a(const void *data, size_t size)
{
    const auto *p = static_cast<const uint8_t *>(data);
    uint64_t hash = 14695981039346656037ull;
    for (size_t i = 0; i < size; ++i) {
        hash ^= p[i];
        hash *= 1099511628211ull;
    }
    return hash;
}

uint64_t
fnv1a(const std::string &s)
{
    return fnv1a(s.data(), s.size());
}

uint64_t
programHash(const DirProgram &program)
{
    std::vector<uint8_t> bytes = serializeDirProgram(program);
    return fnv1a(bytes.data(), bytes.size());
}

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Run @p fn(i) for i in [0, n) on @p threads threads. */
void
parallelFor(size_t n, unsigned threads,
            const std::function<void(size_t)> &fn)
{
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            for (size_t i = next++; i < n; i = next++)
                fn(i);
        });
    }
    for (std::thread &th : pool)
        th.join();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------
// Spans: one per call into a layer, kept in memory per thread and
// written out when the run ends. A null log means tracing is off.
// ---------------------------------------------------------------------

enum class SpanKind : uint8_t
{
    Op,
    Build,
    Setup,
    ServeParse,
    ServeAcquire,
    ServeBuild,
    BeginRun,
    RunSlice,
    FinishRun,
    ProfileJsonl,
    ServeRelease,
    ServeHeader,
    HlrParse,
    HlrCompile,
    WorkloadGenerate,
    DirEncode,
    UhmConstruct,
};

const char *
spanKindName(SpanKind kind)
{
    switch (kind) {
      case SpanKind::Op:               return "op";
      case SpanKind::Build:            return "build";
      case SpanKind::Setup:            return "setup";
      case SpanKind::ServeParse:       return "serve.parse";
      case SpanKind::ServeAcquire:     return "serve.acquire";
      case SpanKind::ServeBuild:       return "serve.build";
      case SpanKind::BeginRun:         return "uhm.begin_run";
      case SpanKind::RunSlice:         return "uhm.run_slice";
      case SpanKind::FinishRun:        return "uhm.finish_run";
      case SpanKind::ProfileJsonl:     return "obs.profile_jsonl";
      case SpanKind::ServeRelease:     return "serve.release";
      case SpanKind::ServeHeader:      return "serve.header";
      case SpanKind::HlrParse:         return "hlr.parse";
      case SpanKind::HlrCompile:       return "hlr.compile";
      case SpanKind::WorkloadGenerate: return "workload.generate";
      case SpanKind::DirEncode:        return "dir.encode";
      case SpanKind::UhmConstruct:     return "uhm.construct";
    }
    return "?";
}

struct Span
{
    SpanKind kind;
    int32_t parent;
    uint64_t op;
    int64_t startNs;
    int64_t endNs;
};

class SpanLog
{
  public:
    size_t
    open(SpanKind kind, uint64_t op)
    {
        const int32_t parent = stack_.empty() ? -1 : stack_.back();
        spans.push_back(Span{kind, parent, op, nowNs(), 0});
        stack_.push_back(static_cast<int32_t>(spans.size() - 1));
        return spans.size() - 1;
    }

    void
    close()
    {
        spans[static_cast<size_t>(stack_.back())].endNs = nowNs();
        stack_.pop_back();
    }

    std::vector<Span> spans;

  private:
    std::vector<int32_t> stack_;
};

/** RAII span; a no-op when @p log is null. */
class Scope
{
  public:
    Scope(SpanLog *log, SpanKind kind, uint64_t op) : log_(log)
    {
        if (log_)
            index_ = log_->open(kind, op);
    }
    ~Scope()
    {
        if (log_)
            log_->close();
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** Rename the span once its outcome is known. */
    void
    relabel(SpanKind kind)
    {
        if (log_)
            log_->spans[index_].kind = kind;
    }

  private:
    SpanLog *log_;
    size_t index_ = 0;
};

// ---------------------------------------------------------------------
// Checking.
// ---------------------------------------------------------------------

/** What a correct run of one program must produce. */
struct Expected
{
    std::vector<int64_t> output;
    uint64_t cycles = 0;
    uint64_t dirInstrs = 0;
    uint64_t imageBits = 0;
    /** FNV-1a of the profile payload a profile request must return. */
    uint64_t profileHash = 0;
};

/** Failed, refused and wrong-output operations, with examples. */
class Failures
{
  public:
    void
    add(const std::string &message)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++count_;
        if (examples_.size() < 8)
            examples_.push_back(message);
    }

    uint64_t
    count() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return count_;
    }

    std::vector<std::string>
    examples() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return examples_;
    }

  private:
    mutable std::mutex mutex_;
    uint64_t count_ = 0;
    std::vector<std::string> examples_;
};

/** The observable result of one operation. */
struct Outcome
{
    bool ok = false;
    std::string error;
    std::vector<int64_t> output;
    uint64_t cycles = 0;
    uint64_t dirInstrs = 0;
    uint64_t profileHash = 0;
    bool hasProfile = false;
};

/** Compare @p got with @p want; empty string when they agree. */
std::string
mismatch(const Outcome &got, const Expected &want, bool want_profile)
{
    if (!got.ok)
        return "error: " + got.error;
    if (got.output != want.output)
        return "wrong output";
    if (got.cycles != want.cycles || got.dirInstrs != want.dirInstrs)
        return "cycles/dir_instrs differ from an in-process run";
    if (want_profile &&
        (!got.hasProfile || got.profileHash != want.profileHash))
        return "profile payload differs from an in-process profileJsonl";
    return "";
}

/** Sums over RunResults, for the traced run's counts. */
struct RunTotals
{
    uint64_t runs = 0;
    uint64_t slices = 0;
    uint64_t dirInstrs = 0;
    uint64_t cycles = 0;
    CycleBreakdown breakdown;
    std::map<std::string, uint64_t> counters;
    /** DIR instructions of Tiered runs (tier.coverage's base). */
    uint64_t tieredDir = 0;

    void
    add(const RunResult &r, uint64_t run_slices, MachineKind kind)
    {
        RunTotals one;
        one.runs = 1;
        one.slices = run_slices;
        one.dirInstrs = r.dirInstrs;
        one.cycles = r.cycles;
        one.breakdown = r.breakdown;
        one.counters = r.counters;
        one.tieredDir = kind == MachineKind::Tiered ? r.dirInstrs : 0;
        merge(one);
    }

    void
    merge(const RunTotals &o)
    {
        runs += o.runs;
        slices += o.slices;
        dirInstrs += o.dirInstrs;
        cycles += o.cycles;
        breakdown.fetch += o.breakdown.fetch;
        breakdown.decode += o.breakdown.decode;
        breakdown.stage += o.breakdown.stage;
        breakdown.dispatch += o.breakdown.dispatch;
        breakdown.semantic += o.breakdown.semantic;
        breakdown.translate += o.breakdown.translate;
        breakdown.translate2 += o.breakdown.translate2;
        for (const auto &[name, value] : o.counters)
            counters[name] += value;
        tieredDir += o.tieredDir;
    }
};

// ---------------------------------------------------------------------
// Raw results, written as one JSON document.
// ---------------------------------------------------------------------

/** One timed operation. */
struct OpRecord
{
    uint64_t op = 0;
    /** End time, seconds after the measurement started. */
    double endS = 0.0;
    double latencyUs = 0.0;
    uint64_t dirInstrs = 0;
    /** Server-side queue wait (served operations only). */
    uint64_t waitUs = 0;
};

/**
 * Untimed lead-in of every measured window: the workload runs, and its
 * outputs are checked, but only operations that end after it count.
 * The first runs on freshly built machines fault in their memory, and
 * without it the first seconds of a sim-batch window held about half of
 * its slowest calls.
 */
constexpr double kWarmupSeconds = 3.0;

/** Time and operations of one kind of pass in a traced run. */
struct Phase
{
    double elapsedS = 0.0;
    uint64_t ops = 0;
};

/**
 * The in-process passes of a traced run over its fixed list: a warm-up
 * pass (so allocator and page faults hit neither side), then untraced
 * and traced passes in ABBA order, so drift over the run cancels out
 * of trace.overhead_pct. Spans and counts come from the first traced
 * pass.
 */
enum class Pass : uint8_t { Warm, Untraced, Traced };
const Pass kTracedRunPasses[] = {Pass::Warm, Pass::Untraced, Pass::Traced,
                                 Pass::Traced, Pass::Untraced};

struct Results
{
    void
    addPhase(const std::string &name, double elapsed_s, uint64_t ops)
    {
        phases[name].elapsedS += elapsed_s;
        phases[name].ops += ops;
    }

    std::vector<double> setupS;
    double windowS = 0.0;
    std::vector<OpRecord> ops;
    /** sim-batch: ops per pass over every point (op i is in pass
     *  i / passOps) and the threads running them; 0 for serve. */
    uint64_t passOps = 0;
    uint64_t threads = 0;
    uint64_t attempted = 0;
    double simCyclesPerInstr = 0.0;
    uint64_t imageBits = 0;
    double peakRssMb = 0.0;
    // Traced run only.
    std::map<std::string, Phase> phases;
    RunTotals totals;
    std::map<std::string, uint64_t> serveCounts;
    std::vector<std::vector<Span>> spanLogs;
};

void
writeSpans(const std::string &path,
           const std::vector<std::vector<Span>> &logs)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot write %s", path.c_str());
    // Global span ids: per-log offsets, so parents stay resolvable.
    uint64_t base = 0;
    for (size_t t = 0; t < logs.size(); ++t) {
        for (size_t i = 0; i < logs[t].size(); ++i) {
            const Span &s = logs[t][i];
            std::fprintf(f,
                         "{\"id\":%" PRIu64 ",\"parent\":%" PRId64
                         ",\"name\":\"%s\",\"op\":%" PRIu64
                         ",\"thread\":%zu,\"start_ns\":%" PRId64
                         ",\"end_ns\":%" PRId64 "}\n",
                         base + i,
                         s.parent < 0 ? int64_t{-1} :
                             static_cast<int64_t>(base) + s.parent,
                         spanKindName(s.kind), s.op, t, s.startNs,
                         s.endNs);
        }
        base += logs[t].size();
    }
    std::fclose(f);
}

void
writeResults(const std::string &path, const std::string &workload,
             uint64_t seed, double seconds, bool trace,
             const Results &res, const Failures &failures)
{
    JsonWriter w;
    w.beginObject();
    w.key("workload").value(workload);
    w.key("seed").value(seed);
    w.key("seconds").value(seconds);
    w.key("trace").value(trace);
    w.key("compiler").value(PERFBENCH_COMPILER);
    w.key("build_type").value(PERFBENCH_BUILD_TYPE);
    w.key("setup_s").beginArray();
    for (double s : res.setupS)
        w.value(s);
    w.endArray();
    w.key("window_s").value(res.windowS);
    w.key("pass_ops").value(res.passOps);
    w.key("threads").value(res.threads);
    w.key("attempted").value(res.attempted);
    w.key("failed").value(failures.count());
    w.key("failures").beginArray();
    for (const std::string &e : failures.examples())
        w.value(e);
    w.endArray();
    w.key("sim_cycles_per_instr").value(res.simCyclesPerInstr);
    w.key("image_bits").value(res.imageBits);
    w.key("peak_rss_mb").value(res.peakRssMb);
    // Columns rather than objects: the op arrays are long.
    auto column = [&](const char *name, auto field) {
        w.key(name).beginArray();
        for (const OpRecord &o : res.ops)
            w.value(o.*field);
        w.endArray();
    };
    w.key("ops").beginObject();
    column("op", &OpRecord::op);
    column("end_s", &OpRecord::endS);
    column("latency_us", &OpRecord::latencyUs);
    column("dir_instrs", &OpRecord::dirInstrs);
    column("wait_us", &OpRecord::waitUs);
    w.endObject();
    if (trace) {
        w.key("phases").beginObject();
        for (const auto &[name, p] : res.phases) {
            w.key(name).beginObject();
            w.key("elapsed_s").value(p.elapsedS);
            w.key("ops").value(p.ops);
            w.endObject();
        }
        w.endObject();
        const RunTotals &t = res.totals;
        w.key("totals").beginObject();
        w.key("runs").value(t.runs);
        w.key("slices").value(t.slices);
        w.key("dir_instrs").value(t.dirInstrs);
        w.key("cycles").value(t.cycles);
        w.key("tiered_dir_instrs").value(t.tieredDir);
        w.key("breakdown").beginObject();
        w.key("fetch").value(t.breakdown.fetch);
        w.key("decode").value(t.breakdown.decode);
        w.key("stage").value(t.breakdown.stage);
        w.key("dispatch").value(t.breakdown.dispatch);
        w.key("semantic").value(t.breakdown.semantic);
        w.key("translate").value(t.breakdown.translate);
        w.key("translate2").value(t.breakdown.translate2);
        w.endObject();
        w.key("counters").beginObject();
        for (const auto &[name, value] : t.counters)
            w.key(name).value(value);
        w.endObject();
        w.endObject();
        w.key("serve_counts").beginObject();
        for (const auto &[name, value] : res.serveCounts)
            w.key(name).value(value);
        w.endObject();
    }
    w.endObject();
    std::ofstream out(path);
    out << w.str() << "\n";
    if (!out)
        fatal("cannot write %s", path.c_str());
}

// ---------------------------------------------------------------------
// The sample corpus and its references.
// ---------------------------------------------------------------------

/** A corpus program with its HLR reference output. */
struct Sample
{
    const workload::SampleProgram *program = nullptr;
    /** The sample's independent expectation, else the HLR output. */
    std::vector<int64_t> reference;
};

std::vector<Sample>
loadCorpus(bool with_tak)
{
    std::vector<Sample> corpus;
    for (const workload::SampleProgram &p : workload::samplePrograms()) {
        if (p.name == "tak" && !with_tak)
            continue;
        Sample s;
        s.program = &p;
        s.reference = !p.expected.empty() ? p.expected :
            hlr::interpretHlr(hlr::parse(p.source), p.input).output;
        corpus.push_back(std::move(s));
    }
    return corpus;
}

/**
 * Run @p program in process with @p settings and record what a served
 * run must return. @p label names the program in the profile meta,
 * as the session cache does.
 */
Expected
inProcessExpectation(const DirProgram &program,
                     const serve::MachineSettings &settings,
                     const std::vector<int64_t> &input,
                     const std::string &label)
{
    std::unique_ptr<EncodedDir> image = encodeDir(program, settings.scheme);
    Machine machine(*image, settings.toConfig());
    RunResult r = machine.run(input);
    Expected e;
    e.output = r.output;
    e.cycles = r.cycles;
    e.dirInstrs = r.dirInstrs;
    e.imageBits = image->bitSize();
    ProfileMeta meta;
    meta.program = label;
    meta.machine = machineKindName(settings.kind);
    meta.encoding = encodingName(settings.scheme);
    meta.imageBits = image->bitSize();
    e.profileHash = fnv1a(profileJsonl(meta, r));
    return e;
}

// ---------------------------------------------------------------------
// The serve workloads.
// ---------------------------------------------------------------------

constexpr unsigned kConnections = 2;
constexpr unsigned kWorkers = 2;

/** One request of a serve workload. */
struct ServeOp
{
    uint64_t id = 0;
    std::string line;
    bool profile = false;
    /** Corpus index for sample and inline-source requests. */
    int sample = -1;
    bool synthetic = false;
    uint64_t synthSeed = 0;
    std::string source;
};

uint64_t
opId(unsigned conn, uint64_t k)
{
    return (static_cast<uint64_t>(conn) << 32) | k;
}

/**
 * The request streams. Connection c sends op(c, 0), op(c, 1), ... in a
 * closed loop; the first warmup() ops of each stream are the set-up.
 */
class ServeMix
{
  public:
    ServeMix(bool churn, uint64_t seed, const std::vector<Sample> &corpus)
        : churn_(churn), seed_(seed), corpus_(corpus)
    {
        if (!churn_)
            splitHalves();
        // Synthetic seeds: one fresh 40-bit base per workload seed, so
        // no two requests of a run share a generator seed.
        synthBase_ = (splitmix64(seed) & ((uint64_t{1} << 40) - 1)) |
            (uint64_t{1} << 40);
    }

    uint64_t warmup() const { return churn_ ? 4 : halves_[0].size(); }

    ServeOp
    op(unsigned conn, uint64_t k) const
    {
        ServeOp o;
        o.id = opId(conn, k);
        JsonWriter w;
        w.beginObject();
        if (!churn_) {
            const std::vector<int> &half = halves_[conn];
            o.sample = half[k % half.size()];
            o.profile = k % 4 == 3;
            w.key("verb").value(o.profile ? "profile" : "run");
            w.key("id").value(k);
            w.key("program").value(corpus_[o.sample].program->name);
        } else if (k % 2 == 0) {
            Rng rng(splitmix64(seed_ ^ splitmix64(o.id)));
            o.sample = static_cast<int>(rng.below(corpus_.size()));
            // A unique comment line makes the text — and so the
            // session key — new, forcing lex, parse and compile.
            o.source = "# perfbench " + std::to_string(seed_) + "-" +
                std::to_string(conn) + "-" + std::to_string(k) + "\n" +
                corpus_[o.sample].program->source;
            w.key("verb").value("run");
            w.key("id").value(k);
            w.key("source").value(o.source);
            // Inline source has no default input; send the sample's.
            const std::vector<int64_t> &input =
                corpus_[o.sample].program->input;
            if (!input.empty()) {
                w.key("input").beginArray();
                for (int64_t v : input)
                    w.value(v);
                w.endArray();
            }
        } else {
            o.synthetic = true;
            o.synthSeed = synthBase_ + k * kConnections + conn;
            w.key("verb").value("run");
            w.key("id").value(k);
            w.key("program").value("synthetic");
            w.key("seed").value(o.synthSeed);
        }
        w.endObject();
        o.line = w.str();
        return o;
    }

  private:
    /**
     * Disjoint halves of the corpus, one per connection, so requests
     * never collide on a busy session: alternate corpus entries. The
     * split is fixed, so every seed measures the same mix (the seed
     * orders each half). It is also uneven — one half runs ~1.7x
     * longer per pass — so the faster connection sends more requests
     * and the pooled median falls inside one program's latency band
     * instead of on the edge between two (see README.md).
     */
    void
    splitHalves()
    {
        for (size_t i = 0; i < corpus_.size(); ++i)
            halves_[i % kConnections].push_back(static_cast<int>(i));
        for (unsigned c = 0; c < kConnections; ++c) {
            Rng rng(splitmix64(seed_ + 7919 * (c + 1)));
            std::vector<int> &h = halves_[c];
            for (size_t i = h.size(); i > 1; --i)
                std::swap(h[i - 1], h[rng.below(i)]);
        }
    }

    bool churn_;
    uint64_t seed_;
    const std::vector<Sample> &corpus_;
    std::vector<int> halves_[kConnections];
    uint64_t synthBase_ = 0;
};

/** What the client saw for one request. */
struct ServedRecord
{
    ServeOp op;
    Outcome outcome;
    OpRecord timing;
    /** Replayed requests: the session cache missed. */
    bool missed = false;
};

Outcome
outcomeFromResponse(const serve::Response &resp, uint64_t want_id)
{
    Outcome o;
    if (!resp.ok) {
        o.error = resp.error + ": " + resp.message;
        return o;
    }
    if (resp.id != want_id) {
        o.error = "response id mismatch";
        return o;
    }
    o.ok = true;
    if (const serve::JsonValue *out = resp.doc.find("output")) {
        for (const serve::JsonValue &v : out->array)
            o.output.push_back(v.integer);
    }
    o.cycles = resp.uintField("cycles");
    o.dirInstrs = resp.uintField("dir_instrs");
    if (!resp.payload.empty()) {
        o.hasProfile = true;
        o.profileHash = fnv1a(resp.payload);
    }
    return o;
}

/**
 * The references the serve checks compare against, memoized per
 * request. Sample and inline-source requests share their corpus
 * program's in-process run once the compiled program is shown to be
 * identical; a synthetic request gets its own run, whose output is
 * also checked against a Conventional switch-engine run of the same
 * program (a differential check: the generator has no independent
 * expected output).
 */
class ServeReferences
{
  public:
    explicit ServeReferences(const std::vector<Sample> &corpus)
        : corpus_(corpus)
    {
        for (const Sample &s : corpus_) {
            DirProgram program = hlr::compileSource(s.program->source);
            SampleRef ref;
            ref.hash = programHash(program);
            ref.expected = inProcessExpectation(
                program, settings_, s.program->input, s.program->name);
            ref.matchesHlr = ref.expected.output == s.reference;
            samples_.push_back(std::move(ref));
        }
    }

    /** Compute the references @p ops need (4 threads). */
    void
    prepare(const std::vector<const ServeOp *> &ops)
    {
        std::vector<const ServeOp *> todo;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (const ServeOp *op : ops) {
                if ((op->synthetic || !op->source.empty()) &&
                    byOp_.find(op->id) == byOp_.end()) {
                    byOp_[op->id] = OpRef{};
                    todo.push_back(op);
                }
            }
        }
        parallelFor(todo.size(), 4, [&](size_t i) {
            OpRef ref = compute(*todo[i]);
            std::lock_guard<std::mutex> lock(mutex_);
            byOp_[todo[i]->id] = std::move(ref);
        });
    }

    /** Check one outcome; prepare() must have covered @p op. */
    std::string
    check(const ServeOp &op, const Outcome &got) const
    {
        if (op.synthetic || !op.source.empty()) {
            const OpRef &ref = byOp_.at(op.id);
            if (!ref.problem.empty())
                return ref.problem;
            return mismatch(got, ref.expected, false);
        }
        const SampleRef &ref = samples_[op.sample];
        if (!ref.matchesHlr)
            return "in-process run disagrees with the HLR reference";
        return mismatch(got, ref.expected, op.profile);
    }

    const Expected &
    expected(const ServeOp &op) const
    {
        if (op.synthetic || !op.source.empty())
            return byOp_.at(op.id).expected;
        return samples_[op.sample].expected;
    }

  private:
    struct SampleRef
    {
        uint64_t hash = 0;
        Expected expected;
        bool matchesHlr = false;
    };

    struct OpRef
    {
        Expected expected;
        std::string problem;
    };

    OpRef
    compute(const ServeOp &op) const
    {
        OpRef ref;
        if (!op.synthetic) {
            const SampleRef &sample = samples_[op.sample];
            DirProgram program = hlr::compileSource(op.source);
            if (programHash(program) == sample.hash) {
                ref.expected = sample.expected;
                if (!sample.matchesHlr)
                    ref.problem =
                        "in-process run disagrees with the HLR reference";
                return ref;
            }
            const Sample &s = corpus_[op.sample];
            ref.expected = inProcessExpectation(
                program, settings_, s.program->input, "");
            if (ref.expected.output != s.reference)
                ref.problem = "in-process run disagrees with the HLR "
                              "reference";
            return ref;
        }
        DirProgram program = bench::gridWorkload(2, op.synthSeed);
        ref.expected = inProcessExpectation(program, settings_, {},
                                            "synthetic");
        serve::MachineSettings conventional;
        conventional.kind = MachineKind::Conventional;
        conventional.dispatch = DispatchMode::Switch;
        std::unique_ptr<EncodedDir> image =
            encodeDir(program, conventional.scheme);
        Machine machine(*image, conventional.toConfig());
        if (machine.run().output != ref.expected.output)
            ref.problem = "synthetic output differs from a Conventional "
                          "switch-engine run";
        return ref;
    }

    const std::vector<Sample> &corpus_;
    const serve::MachineSettings settings_{};
    std::vector<SampleRef> samples_;
    mutable std::mutex mutex_;
    std::map<uint64_t, OpRef> byOp_;
};

/** A running Server with one Client per connection. */
struct ServeStack
{
    std::unique_ptr<serve::Server> server;
    std::vector<std::unique_ptr<serve::Client>> clients;

    explicit ServeStack(const std::string &socket_path)
    {
        serve::ServerConfig config;
        config.socketPath = socket_path;
        config.workers = kWorkers;
        server = std::make_unique<serve::Server>(config);
        server->start();
        for (unsigned c = 0; c < kConnections; ++c)
            clients.push_back(
                std::make_unique<serve::Client>(socket_path));
    }

    ~ServeStack()
    {
        clients.clear();
        server->stop();
    }

    ServeStack(const ServeStack &) = delete;
    ServeStack &operator=(const ServeStack &) = delete;
};

/**
 * Closed loop: connection c sends ops k = first, first+1, ... until
 * @p more(c, k) is false. Timing is relative to @p start_ns.
 */
std::vector<ServedRecord>
driveClients(ServeStack &stack, const ServeMix &mix, uint64_t first,
             const std::function<bool(unsigned, uint64_t)> &more,
             int64_t start_ns, Failures &failures)
{
    std::vector<std::vector<ServedRecord>> per(kConnections);
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c] {
            serve::Client &client = *stack.clients[c];
            for (uint64_t k = first; more(c, k); ++k) {
                ServedRecord rec;
                rec.op = mix.op(c, k);
                const int64_t t0 = nowNs();
                try {
                    serve::Response resp = client.call(rec.op.line);
                    const int64_t t1 = nowNs();
                    rec.outcome = outcomeFromResponse(resp, k);
                    rec.timing.waitUs = resp.uintField("wait_us");
                    rec.timing.endS =
                        static_cast<double>(t1 - start_ns) * 1e-9;
                    rec.timing.latencyUs =
                        static_cast<double>(t1 - t0) * 1e-3;
                } catch (const FatalError &e) {
                    failures.add(std::string("connection failed: ") +
                                 e.what());
                    return;
                }
                rec.timing.op = rec.op.id;
                rec.timing.dirInstrs = rec.outcome.dirInstrs;
                per[c].push_back(std::move(rec));
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    std::vector<ServedRecord> all;
    for (auto &v : per)
        for (auto &r : v)
            all.push_back(std::move(r));
    return all;
}

/** Check every record; counts each as one attempted operation. */
void
checkServed(const std::vector<ServedRecord> &records,
            ServeReferences &refs, Results &res, Failures &failures)
{
    std::vector<const ServeOp *> ops;
    for (const ServedRecord &r : records)
        ops.push_back(&r.op);
    refs.prepare(ops);
    for (const ServedRecord &r : records) {
        ++res.attempted;
        std::string why = refs.check(r.op, r.outcome);
        if (!why.empty())
            failures.add("op " + std::to_string(r.op.id >> 32) + ":" +
                         std::to_string(r.op.id & 0xffffffffu) + " " +
                         why);
    }
}

/**
 * One request through the calls Server makes for it, in the order it
 * makes them (server.cc: startRequest → runSliceStep →
 * finishRequest), each wrapped in a span when @p log is set.
 */
Outcome
replayRequest(serve::SessionCache &cache, const ServeOp &op,
              SpanLog *log, RunTotals &totals, bool &missed)
{
    static const uint64_t slice_cycles = serve::ServerConfig{}.sliceCycles;
    Outcome o;
    Scope root(log, SpanKind::Op, op.id);
    serve::Request req;
    {
        Scope s(log, SpanKind::ServeParse, op.id);
        std::string err;
        if (!serve::parseRequest(op.line, req, err)) {
            o.error = "bad_request: " + err;
            return o;
        }
    }
    std::shared_ptr<serve::Session> session;
    try {
        bool cached = false;
        {
            Scope s(log, SpanKind::ServeAcquire, op.id);
            session = cache.acquire(req, cached);
            if (!cached)
                s.relabel(SpanKind::ServeBuild);
        }
        missed = !cached;
        Machine &machine = *session->machine;
        {
            Scope s(log, SpanKind::BeginRun, op.id);
            machine.beginRun(req.inputGiven ? req.input :
                                              session->defaultInput);
        }
        uint64_t slices = 0;
        while (!machine.finished()) {
            Scope s(log, SpanKind::RunSlice, op.id);
            machine.runSlice(slice_cycles);
            ++slices;
        }
        RunResult r;
        {
            Scope s(log, SpanKind::FinishRun, op.id);
            r = machine.finishRun();
        }
        totals.add(r, slices, req.machine.kind);
        serve::ResponseInfo info;
        info.id = req.id;
        info.verb = req.verb;
        info.hasCached = true;
        info.cached = cached;
        info.hasRunSummary = true;
        info.output = r.output;
        info.cycles = r.cycles;
        info.dirInstrs = r.dirInstrs;
        std::string payload;
        if (req.profile) {
            Scope s(log, SpanKind::ProfileJsonl, op.id);
            ProfileMeta meta;
            meta.program = session->label;
            meta.machine = machineKindName(req.machine.kind);
            meta.encoding = encodingName(req.machine.scheme);
            meta.imageBits = session->image->bitSize();
            payload = profileJsonl(meta, r);
        }
        {
            Scope s(log, SpanKind::ServeRelease, op.id);
            cache.release(session);
        }
        std::string header;
        {
            Scope s(log, SpanKind::ServeHeader, op.id);
            size_t lines = static_cast<size_t>(
                std::count(payload.begin(), payload.end(), '\n'));
            header = serve::successHeader(info, lines);
        }
        o.ok = !header.empty();
        o.output = std::move(r.output);
        o.cycles = r.cycles;
        o.dirInstrs = r.dirInstrs;
        if (!payload.empty()) {
            o.hasProfile = true;
            o.profileHash = fnv1a(payload);
        }
    } catch (const FatalError &e) {
        if (session)
            cache.release(session);
        o.error = std::string("bad_request: ") + e.what();
    }
    return o;
}

/**
 * The build chain SessionCache::build runs on a miss, step by step,
 * one span per layer (the cache builds it in one call, which a span
 * around acquire cannot split).
 */
void
probeBuild(const ServeOp &op, const std::vector<Sample> &corpus,
           SpanLog &log)
{
    const serve::MachineSettings settings;
    Scope root(&log, SpanKind::Build, op.id);
    DirProgram program;
    if (op.synthetic) {
        Scope s(&log, SpanKind::WorkloadGenerate, op.id);
        program = bench::gridWorkload(2, op.synthSeed);
    } else {
        const std::string &source = op.source.empty() ?
            corpus[op.sample].program->source : op.source;
        hlr::AstProgram ast;
        {
            Scope s(&log, SpanKind::HlrParse, op.id);
            ast = hlr::parse(source);
        }
        Scope s(&log, SpanKind::HlrCompile, op.id);
        program = hlr::compile(ast);
    }
    (void)programHash(program); // SessionCache::build hashes it too
    std::unique_ptr<EncodedDir> image;
    {
        Scope s(&log, SpanKind::DirEncode, op.id);
        image = encodeDir(program, settings.scheme);
    }
    Scope s(&log, SpanKind::UhmConstruct, op.id);
    Machine machine(*image, settings.toConfig());
}

/** Sum of simulated work and image size over a list of requests. */
void
deterministicServeMetrics(const std::vector<ServeOp> &ops,
                          ServeReferences &refs, Results &res)
{
    std::vector<const ServeOp *> ptrs;
    for (const ServeOp &op : ops)
        ptrs.push_back(&op);
    refs.prepare(ptrs);
    uint64_t cycles = 0;
    uint64_t dir = 0;
    uint64_t bits = 0;
    for (const ServeOp &op : ops) {
        const Expected &e = refs.expected(op);
        cycles += e.cycles;
        dir += e.dirInstrs;
        bits += e.imageBits;
    }
    res.simCyclesPerInstr =
        static_cast<double>(cycles) / static_cast<double>(dir);
    res.imageBits = bits;
}

void
runServe(bool churn, uint64_t seed, double seconds, bool trace,
         const std::string &out_dir, Results &res, Failures &failures)
{
    const std::vector<Sample> corpus = loadCorpus(false);
    const ServeMix mix(churn, seed, corpus);
    ServeReferences refs(corpus);
    const std::string socket_path = out_dir + "/serve.sock";
    const uint64_t warm = mix.warmup();

    // The deterministic metrics cover a fixed list: one pass over both
    // halves (serve-hot) or the first 512 requests per connection
    // (serve-churn; long enough that they vary little between seeds).
    {
        std::vector<ServeOp> canonical;
        const uint64_t n = churn ? 512 : warm;
        for (unsigned c = 0; c < kConnections; ++c)
            for (uint64_t k = 0; k < n; ++k)
                canonical.push_back(mix.op(c, k));
        deterministicServeMetrics(canonical, refs, res);
    }

    // Set-up: start the daemon, connect, and send each connection's
    // warm-up requests (serve-hot: one pass over its half, which fills
    // the session cache). Repeated, and all but the last torn down.
    const int setups = trace ? 1 : 9;
    std::unique_ptr<ServeStack> stack;
    std::vector<ServedRecord> warmRecords;
    for (int rep = 0; rep < setups; ++rep) {
        stack.reset();
        const int64_t t0 = nowNs();
        stack = std::make_unique<ServeStack>(socket_path);
        warmRecords = driveClients(
            *stack, mix, 0, [&](unsigned, uint64_t k) { return k < warm; },
            t0, failures);
        res.setupS.push_back(secondsSince(t0));
        checkServed(warmRecords, refs, res, failures);
    }

    if (!trace) {
        // The window opens kWarmupSeconds after the loop starts; an op
        // belongs to it when it ends inside it.
        const int64_t start =
            nowNs() + static_cast<int64_t>(kWarmupSeconds * 1e9);
        const int64_t deadline =
            start + static_cast<int64_t>(seconds * 1e9);
        std::vector<ServedRecord> records = driveClients(
            *stack, mix, warm,
            [&](unsigned, uint64_t) { return nowNs() < deadline; },
            start, failures);
        res.windowS = secondsSince(start);
        res.peakRssMb = peakRssMb();
        stack.reset();
        for (const ServedRecord &r : records)
            if (r.timing.endS >= 0.0)
                res.ops.push_back(r.timing);
        checkServed(records, refs, res, failures);
        return;
    }

    // Traced run: a fixed request list, so its counts repeat exactly.
    // Phase "served": the list through the daemon, for round trips,
    // queue waits and the daemon's cache counters.
    const uint64_t per_conn =
        warm + static_cast<uint64_t>(seconds * (churn ? 40 : 100));
    {
        serve::Server &server = *stack->server;
        const int64_t start = nowNs();
        std::vector<ServedRecord> records = driveClients(
            *stack, mix, warm,
            [&](unsigned, uint64_t k) { return k < per_conn; }, start,
            failures);
        res.addPhase("served", secondsSince(start), records.size());
        obs::ProfileData stats = server.statsProfile(false);
        for (const char *name :
             {"serve.cache.hits", "serve.cache.misses",
              "serve.cache.evictions", "serve.cache.evict_rejected",
              "serve.cache.busy_bypass", "serve.errors"})
            res.serveCounts[name] = stats.counters[name];
        stack.reset();
        for (const ServedRecord &r : warmRecords)
            res.ops.push_back(r.timing);
        for (const ServedRecord &r : records)
            res.ops.push_back(r.timing);
        checkServed(records, refs, res, failures);
    }

    // The in-process passes: the whole list, warm-up included, through
    // the calls Server makes, one thread per connection, each pass
    // against a fresh session cache.
    std::vector<ServeOp> missedOps;
    bool kept = false;
    for (Pass pass : kTracedRunPasses) {
        const bool traced = pass == Pass::Traced;
        serve::SessionCache cache(serve::ServerConfig{}.maxSessions);
        std::vector<SpanLog> logs(kConnections);
        std::vector<RunTotals> totals(kConnections);
        std::vector<std::vector<ServedRecord>> per(kConnections);
        const int64_t start = nowNs();
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < kConnections; ++c) {
            threads.emplace_back([&, c] {
                for (uint64_t k = 0; k < per_conn; ++k) {
                    ServedRecord rec;
                    rec.op = mix.op(c, k);
                    rec.outcome = replayRequest(
                        cache, rec.op, traced ? &logs[c] : nullptr,
                        totals[c], rec.missed);
                    per[c].push_back(std::move(rec));
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
        const double elapsed = secondsSince(start);
        std::vector<ServedRecord> records;
        for (auto &v : per)
            for (auto &r : v)
                records.push_back(std::move(r));
        checkServed(records, refs, res, failures);
        if (pass != Pass::Warm)
            res.addPhase(traced ? "traced" : "untraced", elapsed,
                         records.size());
        if (!traced || kept)
            continue;
        kept = true;
        for (unsigned c = 0; c < kConnections; ++c) {
            res.totals.merge(totals[c]);
            res.spanLogs.push_back(std::move(logs[c].spans));
        }
        for (const ServedRecord &r : records)
            if (r.missed)
                missedOps.push_back(r.op);
    }

    // Phase "build": the chain behind each traced miss, layer by layer.
    SpanLog probe;
    const int64_t start = nowNs();
    for (const ServeOp &op : missedOps)
        probeBuild(op, corpus, probe);
    res.addPhase("build", secondsSince(start), missedOps.size());
    res.spanLogs.push_back(std::move(probe.spans));
}

// ---------------------------------------------------------------------
// sim-batch.
// ---------------------------------------------------------------------

constexpr unsigned kSimThreads = 2;

/** One (program, kind, encoding) point, with a machine per thread. */
struct SimPoint
{
    int sample = 0;
    serve::MachineSettings settings;
    Expected expected;
    /** Each thread runs its own image and machine: an image's decode
     *  memo is not shared across threads. */
    std::unique_ptr<EncodedDir> images[kSimThreads];
    std::unique_ptr<Machine> machines[kSimThreads];
};

const MachineKind kAllKinds[] = {
    MachineKind::Conventional, MachineKind::Cached, MachineKind::Dtb,
    MachineKind::Dtb2, MachineKind::Tiered,
};

void
runSim(uint64_t seed, double seconds, bool trace, Results &res,
       Failures &failures)
{
    const std::vector<Sample> corpus = loadCorpus(true);
    // Images point into these programs: declared first, freed last.
    std::vector<DirProgram> programs;
    // Every (program, kind, encoding) point, in an order drawn from the
    // seed: op i runs point i mod P, so the seed picks each op's
    // program, kind and encoding while every seed measures the same
    // mix (tak's encoding alone moves a per-point draw's throughput
    // by a third).
    std::vector<SimPoint> points;
    for (size_t s = 0; s < corpus.size(); ++s) {
        for (MachineKind kind : kAllKinds) {
            for (EncodingScheme scheme : allEncodingSchemes()) {
                SimPoint p;
                p.sample = static_cast<int>(s);
                p.settings.kind = kind;
                p.settings.scheme = scheme;
                points.push_back(std::move(p));
            }
        }
    }
    Rng rng(splitmix64(seed));
    for (size_t i = points.size(); i > 1; --i)
        std::swap(points[i - 1], points[rng.below(i)]);

    // References, outside the timed set-up: each point once on a
    // machine of its own, checked against the HLR reference.
    parallelFor(points.size(), 4, [&](size_t i) {
        SimPoint &p = points[i];
        const Sample &s = corpus[p.sample];
        p.expected = inProcessExpectation(
            hlr::compileSource(s.program->source), p.settings,
            s.program->input, s.program->name);
    });
    uint64_t cycles = 0;
    uint64_t dir = 0;
    for (const SimPoint &p : points) {
        ++res.attempted;
        if (p.expected.output != corpus[p.sample].reference)
            failures.add(corpus[p.sample].program->name + " on " +
                         machineKindName(p.settings.kind) +
                         ": output differs from the HLR reference");
        cycles += p.expected.cycles;
        dir += p.expected.dirInstrs;
        // Each (program, encoding) image counts once.
        if (p.settings.kind == MachineKind::Conventional)
            res.imageBits += p.expected.imageBits;
    }
    res.simCyclesPerInstr =
        static_cast<double>(cycles) / static_cast<double>(dir);

    // Set-up: compile the corpus, encode each point, build its
    // machines. Repeated; the last build is the one measured.
    SpanLog setupLog;
    SpanLog *slog = trace ? &setupLog : nullptr;
    const int setups = trace ? 1 : 9;
    for (int rep = 0; rep < setups; ++rep) {
        for (SimPoint &p : points)
            for (unsigned t = 0; t < kSimThreads; ++t) {
                p.machines[t].reset();
                p.images[t].reset();
            }
        programs.clear();
        const int64_t t0 = nowNs();
        for (size_t s = 0; s < corpus.size(); ++s) {
            Scope root(slog, SpanKind::Setup, s);
            hlr::AstProgram ast;
            {
                Scope sp(slog, SpanKind::HlrParse, s);
                ast = hlr::parse(corpus[s].program->source);
            }
            Scope sc(slog, SpanKind::HlrCompile, s);
            programs.push_back(hlr::compile(ast));
        }
        for (size_t i = 0; i < points.size(); ++i) {
            SimPoint &p = points[i];
            const uint64_t id = (uint64_t{1} << 32) | i;
            Scope root(slog, SpanKind::Setup, id);
            for (unsigned t = 0; t < kSimThreads; ++t) {
                {
                    Scope se(slog, SpanKind::DirEncode, id);
                    p.images[t] =
                        encodeDir(programs[p.sample], p.settings.scheme);
                }
                Scope sc(slog, SpanKind::UhmConstruct, id);
                p.machines[t] = std::make_unique<Machine>(
                    *p.images[t], p.settings.toConfig());
            }
        }
        res.setupS.push_back(secondsSince(t0));
    }
    if (trace)
        res.spanLogs.push_back(std::move(setupLog.spans));

    // One op = one Machine::run call on point (i mod P); two threads
    // take the next op from a shared counter.
    auto check = [&](const SimPoint &p, const RunResult &r) {
        if (r.output != p.expected.output || r.cycles != p.expected.cycles ||
            r.dirInstrs != p.expected.dirInstrs)
            failures.add(corpus[p.sample].program->name + " on " +
                         machineKindName(p.settings.kind) +
                         ": run differs from its reference run");
    };
    struct Batch
    {
        std::vector<OpRecord> ops;
        RunTotals totals;
        SpanLog log;
    };
    auto drive = [&](const std::function<bool(uint64_t)> &more,
                     bool traced, int64_t start) {
        std::atomic<uint64_t> next{0};
        std::vector<Batch> batches(kSimThreads);
        std::vector<std::thread> threads;
        for (unsigned t = 0; t < kSimThreads; ++t) {
            threads.emplace_back([&, t] {
                Batch &b = batches[t];
                SpanLog *log = traced ? &b.log : nullptr;
                for (uint64_t i = next++; more(i); i = next++) {
                    SimPoint &p = points[i % points.size()];
                    Machine &m = *p.machines[t];
                    const std::vector<int64_t> &input =
                        corpus[p.sample].program->input;
                    const int64_t t0 = nowNs();
                    RunResult r;
                    if (!traced) {
                        r = m.run(input);
                    } else {
                        // Exactly what run() does, one span per call.
                        Scope root(log, SpanKind::Op, i);
                        {
                            Scope s(log, SpanKind::BeginRun, i);
                            m.beginRun(input);
                        }
                        {
                            Scope s(log, SpanKind::RunSlice, i);
                            m.runSlice(UINT64_MAX);
                        }
                        Scope s(log, SpanKind::FinishRun, i);
                        r = m.finishRun();
                    }
                    const int64_t t1 = nowNs();
                    OpRecord rec;
                    rec.op = i;
                    rec.endS = static_cast<double>(t1 - start) * 1e-9;
                    rec.latencyUs = static_cast<double>(t1 - t0) * 1e-3;
                    rec.dirInstrs = r.dirInstrs;
                    b.ops.push_back(rec);
                    if (traced)
                        b.totals.add(r, 1, p.settings.kind);
                    check(p, r);
                }
            });
        }
        for (std::thread &th : threads)
            th.join();
        return batches;
    };

    if (!trace) {
        // As in the serve workloads: a checked, untimed lead-in, then
        // the window; an op belongs to it when it ends inside it.
        const int64_t start =
            nowNs() + static_cast<int64_t>(kWarmupSeconds * 1e9);
        const int64_t deadline =
            start + static_cast<int64_t>(seconds * 1e9);
        std::vector<Batch> batches =
            drive([&](uint64_t) { return nowNs() < deadline; }, false,
                  start);
        res.windowS = secondsSince(start);
        res.peakRssMb = peakRssMb();
        res.passOps = points.size();
        res.threads = kSimThreads;
        for (Batch &b : batches) {
            res.attempted += b.ops.size();
            for (const OpRecord &o : b.ops)
                if (o.endS >= 0.0)
                    res.ops.push_back(o);
        }
        return;
    }

    // Traced run: one pass over the points, run() on the untraced
    // passes and one span per call on the traced ones.
    const uint64_t n = points.size();
    bool measured = false;
    bool kept = false;
    for (Pass pass : kTracedRunPasses) {
        const bool traced = pass == Pass::Traced;
        const int64_t start = nowNs();
        std::vector<Batch> batches =
            drive([&](uint64_t i) { return i < n; }, traced, start);
        res.attempted += n;
        if (pass != Pass::Warm)
            res.addPhase(traced ? "traced" : "untraced",
                         secondsSince(start), n);
        // The first untraced pass gives each op's measured duration.
        if (pass == Pass::Untraced && !measured) {
            measured = true;
            for (Batch &b : batches)
                for (const OpRecord &o : b.ops)
                    res.ops.push_back(o);
        }
        if (!traced || kept)
            continue;
        kept = true;
        for (Batch &b : batches) {
            res.totals.merge(b.totals);
            res.spanLogs.push_back(std::move(b.log.spans));
        }
    }
}

// ---------------------------------------------------------------------
// Command line.
// ---------------------------------------------------------------------

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "uhm_perfbench: %s\n"
                 "usage: uhm_perfbench --workload serve-hot|serve-churn|"
                 "sim-batch --seed N --seconds S --trace 0|1 --out DIR\n",
                 why);
    std::exit(2);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
        if (std::strncmp(argv[i], "--", 2) != 0)
            usage("arguments come in --name value pairs");
        args[argv[i] + 2] = argv[i + 1];
    }
    if (argc % 2 == 0)
        usage("arguments come in --name value pairs");
    for (const char *name : {"workload", "seed", "seconds", "trace", "out"})
        if (args.find(name) == args.end())
            usage((std::string("missing --") + name).c_str());
    if (args.size() != 5)
        usage("unknown argument");

    const std::string workload = args["workload"];
    char *end = nullptr;
    const uint64_t seed = std::strtoull(args["seed"].c_str(), &end, 10);
    if (*end != '\0' || args["seed"].empty())
        usage("--seed takes a whole number");
    const double seconds = std::strtod(args["seconds"].c_str(), &end);
    if (*end != '\0' || !(seconds > 0.0) || seconds > 600.0)
        usage("--seconds takes a number in (0, 600]");
    if (args["trace"] != "0" && args["trace"] != "1")
        usage("--trace takes 0 or 1");
    const bool trace = args["trace"] == "1";
    const std::string out_dir = args["out"];

    Results res;
    Failures failures;
    try {
        if (workload == "serve-hot" || workload == "serve-churn")
            runServe(workload == "serve-churn", seed, seconds, trace,
                     out_dir, res, failures);
        else if (workload == "sim-batch")
            runSim(seed, seconds, trace, res, failures);
        else
            usage("unknown workload");
        if (trace)
            writeSpans(out_dir + "/spans.jsonl", res.spanLogs);
        writeResults(out_dir + "/result.json", workload, seed, seconds,
                     trace, res, failures);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "uhm_perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
