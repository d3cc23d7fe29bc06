#include "uhm/machine.hh"

#include <cstdlib>

#include "support/logging.hh"
#include "support/wrap.hh"

namespace uhm
{

const char *
machineKindName(MachineKind kind)
{
    switch (kind) {
      case MachineKind::Conventional: return "conventional";
      case MachineKind::Cached:       return "cached";
      case MachineKind::Dtb:          return "dtb";
      case MachineKind::Dtb2:         return "dtb2";
      case MachineKind::Tiered:       return "tiered";
    }
    return "?";
}

const char *
dispatchModeName(DispatchMode mode)
{
    switch (mode) {
      case DispatchMode::Switch:   return "switch";
      case DispatchMode::Threaded: return "threaded";
    }
    return "?";
}

bool
parseDispatchMode(const std::string &name, DispatchMode &out)
{
    if (name == "switch") {
        out = DispatchMode::Switch;
        return true;
    }
    if (name == "threaded") {
        out = DispatchMode::Threaded;
        return true;
    }
    return false;
}

Machine::Machine(const EncodedDir &image, const MachineConfig &config,
                 Dtb *shared_dtb)
    : image_(&image), config_(config), routines_(config.layout),
      mem_(config.layout.level1Words, config.timing), translator_(image),
      decodeMemo_(image), stagingValid_(image.numInstrs(), 0),
      stagingMemo_(image.numInstrs())
{
    if (shared_dtb && config_.kind != MachineKind::Dtb &&
        config_.kind != MachineKind::Tiered) {
        fatal("machine kind '%s' cannot dispatch through a shared DTB",
              machineKindName(config_.kind));
    }
    switch (config_.kind) {
      case MachineKind::Dtb2:
        dtbL1_ = std::make_unique<Dtb>(config_.dtbL1);
        [[fallthrough]];
      case MachineKind::Dtb:
        if (shared_dtb) {
            dtb_ = shared_dtb;
            sharedDtb_ = true;
        } else {
            ownedDtb_ = std::make_unique<Dtb>(config_.dtb);
            dtb_ = ownedDtb_.get();
        }
        break;
      case MachineKind::Tiered:
        if (shared_dtb) {
            dtb_ = shared_dtb;
            sharedDtb_ = true;
        } else {
            ownedDtb_ = std::make_unique<Dtb>(config_.dtb);
            dtb_ = ownedDtb_.get();
        }
        tier_ = std::make_unique<tier::TierEngine>(
            image, *dtb_, config_.tier, config_.traceCache);
        break;
      case MachineKind::Cached:
        icache_ = std::make_unique<SetAssocCache>(config_.icache);
        break;
      case MachineKind::Conventional:
        break;
    }
    flat_ = FlatRoutines::build(routines_, numOps);
    // Both dispatch modes call semantic routines through this table —
    // one bounds-unchecked load instead of a byId lookup per CALL.
    routinePtrs_.resize(numOps);
    for (size_t id = 0; id < numOps; ++id)
        routinePtrs_[id] = &routines_.byId(static_cast<int64_t>(id));
    // The fast loops bank on the operand stack living wholly in level-1
    // memory (every push/pop then charges a static tau1); a layout that
    // spills the stack into level 2 keeps the switch loops. Event
    // tracing keeps them too: events are stamped mid-instruction, which
    // batched attribution does not reproduce.
    fastOk_ = config_.layout.stackBase + config_.layout.stackWords <=
            config_.layout.level1Words &&
        !config_.profileEvents;

    const DirProgram &prog = image.program();
    if (prog.maxDepth() > config_.layout.maxDepth) {
        fatal("program nests %u contours deep; layout supports %llu",
              prog.maxDepth(),
              static_cast<unsigned long long>(config_.layout.maxDepth));
    }

    // Publish every component's counters under one hierarchical
    // namespace (naming scheme: docs/INTERNALS.md "Observability").
    registry_.add("machine.dir_instrs", dirInstrs_);
    registry_.add("machine.decoded_instrs", decodedInstrs_);
    registry_.add("machine.translated_instrs", translatedInstrs_);
    registry_.add("machine.micro_ops", microOps_);
    registry_.add("machine.short_instrs", shortInstrs_);
    registry_.add("machine.dir_fetch_refs", dirFetchRefs_);
    registry_.add("machine.traps", traps_);
    registry_.add("translate.short_emitted", translateShortEmitted_);
    mem_.registerCounters(registry_, "mem");
    if (dtb_) {
        // A shared DTB's counters are pooled across tenants — they are
        // not this machine's to publish. The histograms below are
        // per-machine members and always register.
        if (!sharedDtb_)
            dtb_->registerCounters(registry_, "dtb");
        registry_.addHistogram("translate.latency_cycles",
                               translateLatency_);
        registry_.addHistogram("dtb.residency_cycles", dtbResidency_);
        registry_.addHistogram("dtb.evict_set_occupancy",
                               dtbEvictOccupancy_);
    }
    if (dtbL1_)
        dtbL1_->registerCounters(registry_, "dtbl1");
    if (icache_)
        icache_->registerCounters(registry_, "icache");
    if (tier_) {
        tier_->registerCounters(registry_, "tier");
        registry_.addHistogram("tier.trace_len_dir", tierTraceLen_);
        registry_.add("tier.trace_dir_instrs", traceDirInstrs_);
        registry_.add("tier.trace_short_instrs", traceShortInstrs_);
        registry_.add("tier.trace_iterations", traceIterations_);
        registry_.add("tier.trace_enters", traceEnters_);
        registry_.add("tier.trace_exits", traceExits_);
    }
}

Machine::~Machine() = default;

// ---- operand stack --------------------------------------------------------

void
Machine::pushStack(int64_t value, uint64_t &bucket)
{
    if (sp_ >= config_.layout.stackWords)
        fatal("operand stack overflow (%llu words)",
              static_cast<unsigned long long>(config_.layout.stackWords));
    uint64_t before = mem_.cycles();
    mem_.write(config_.layout.stackBase + sp_, value);
    ++sp_;
    bucket += mem_.cycles() - before;
}

int64_t
Machine::popStack(uint64_t &bucket)
{
    if (sp_ == 0)
        fatal("operand stack underflow");
    --sp_;
    uint64_t before = mem_.cycles();
    int64_t v = mem_.read(config_.layout.stackBase + sp_);
    bucket += mem_.cycles() - before;
    return v;
}

// ---- IU1: micro-routine execution ------------------------------------------

void
Machine::runRoutine(const MicroRoutine &routine)
{
    const MemTiming &timing = config_.timing;
    size_t mpc = 0;
    for (;;) {
        uhm_assert(mpc < routine.ops.size(),
                   "fell off routine '%s'", routine.name.c_str());
        const MicroOp &op = routine.ops[mpc++];
        // One level-1 reference to fetch the micro-instruction.
        breakdown_.semantic += timing.tau1;
        ++microOps_;

        auto &r = regs_;
        switch (op.op) {
          case MOp::MOVI: r[op.dst] = op.imm; break;
          case MOp::MOV:  r[op.dst] = r[op.srcA]; break;
          case MOp::ADD:  r[op.dst] = wrapAdd(r[op.srcA], r[op.srcB]); break;
          case MOp::ADDI: r[op.dst] = wrapAdd(r[op.srcA], op.imm); break;
          case MOp::SUB:  r[op.dst] = wrapSub(r[op.srcA], r[op.srcB]); break;
          case MOp::MUL:  r[op.dst] = wrapMul(r[op.srcA], r[op.srcB]); break;
          case MOp::DIV:
            if (r[op.srcB] == 0)
                fatal("division by zero");
            r[op.dst] = wrapDiv(r[op.srcA], r[op.srcB]);
            break;
          case MOp::MOD:
            if (r[op.srcB] == 0)
                fatal("modulo by zero");
            r[op.dst] = wrapMod(r[op.srcA], r[op.srcB]);
            break;
          case MOp::NEG:  r[op.dst] = wrapNeg(r[op.srcA]); break;
          case MOp::AND:  r[op.dst] = r[op.srcA] & r[op.srcB]; break;
          case MOp::OR:   r[op.dst] = r[op.srcA] | r[op.srcB]; break;
          case MOp::XOR:  r[op.dst] = r[op.srcA] ^ r[op.srcB]; break;
          case MOp::NOT:  r[op.dst] = ~r[op.srcA]; break;
          case MOp::SHL:
            r[op.dst] = wrapShl(r[op.srcA], r[op.srcB]);
            break;
          case MOp::SHR:
            r[op.dst] = wrapShr(r[op.srcA], r[op.srcB]);
            break;
          case MOp::CMPEQ: r[op.dst] = r[op.srcA] == r[op.srcB]; break;
          case MOp::CMPNE: r[op.dst] = r[op.srcA] != r[op.srcB]; break;
          case MOp::CMPLT: r[op.dst] = r[op.srcA] <  r[op.srcB]; break;
          case MOp::CMPLE: r[op.dst] = r[op.srcA] <= r[op.srcB]; break;
          case MOp::CMPGT: r[op.dst] = r[op.srcA] >  r[op.srcB]; break;
          case MOp::CMPGE: r[op.dst] = r[op.srcA] >= r[op.srcB]; break;
          case MOp::EXTRACT: {
            unsigned shift = static_cast<unsigned>(op.imm & 63);
            unsigned width = static_cast<unsigned>((op.imm >> 6) & 63);
            uint64_t mask = width >= 64 ? ~0ull : (1ull << width) - 1;
            r[op.dst] = static_cast<int64_t>(
                (static_cast<uint64_t>(r[op.srcA]) >> shift) & mask);
            break;
          }
          case MOp::LOAD: {
            uint64_t before = mem_.cycles();
            r[op.dst] = mem_.read(
                static_cast<uint64_t>(r[op.srcA] + op.imm));
            breakdown_.semantic += mem_.cycles() - before;
            break;
          }
          case MOp::STORE: {
            uint64_t before = mem_.cycles();
            mem_.write(static_cast<uint64_t>(r[op.srcA] + op.imm),
                       r[op.srcB]);
            breakdown_.semantic += mem_.cycles() - before;
            break;
          }
          case MOp::SPUSH:
            pushStack(r[op.srcA], breakdown_.semantic);
            break;
          case MOp::SPOP:
            r[op.dst] = popStack(breakdown_.semantic);
            break;
          case MOp::RASPUSH:
            if (ras_.size() >= config_.layout.rasDepth)
                fatal("return-address stack overflow");
            ras_.push_back(static_cast<uint64_t>(r[op.srcA]));
            break;
          case MOp::RASPOP:
            if (ras_.empty())
                fatal("return-address stack underflow");
            r[op.dst] = static_cast<int64_t>(ras_.back());
            ras_.pop_back();
            break;
          case MOp::BR:
            mpc = static_cast<size_t>(
                static_cast<int64_t>(mpc) + op.imm);
            break;
          case MOp::BRZ:
            if (r[op.srcA] == 0)
                mpc = static_cast<size_t>(
                    static_cast<int64_t>(mpc) + op.imm);
            break;
          case MOp::BRNZ:
            if (r[op.srcA] != 0)
                mpc = static_cast<size_t>(
                    static_cast<int64_t>(mpc) + op.imm);
            break;
          case MOp::BRNEG:
            if (r[op.srcA] < 0)
                mpc = static_cast<size_t>(
                    static_cast<int64_t>(mpc) + op.imm);
            break;
          case MOp::OUTP:
            output_.push_back(r[op.srcA]);
            break;
          case MOp::INP:
            r[op.dst] = inputPos_ < input_->size() ?
                (*input_)[inputPos_++] : 0;
            break;
          case MOp::DONE:
            return;
        }
    }
}

// ---- fetch paths ----------------------------------------------------------

void
Machine::chargeFetchLevel2(uint64_t bits)
{
    uint64_t refs = std::max<uint64_t>(1, (bits + 63) / 64);
    breakdown_.fetch += refs * config_.timing.tau2;
    dirFetchRefs_ += refs;
    emitEvent(obs::EventKind::Fetch, pc_, refs);
}

void
Machine::chargeFetchCached(uint64_t bit_addr, uint64_t bits)
{
    uint64_t first = bit_addr / 64;
    uint64_t last = bits == 0 ? first : (bit_addr + bits - 1) / 64;
    for (uint64_t word = first; word <= last; ++word) {
        bool hit = icache_->access(word * 8);
        breakdown_.fetch += hit ? config_.timing.tauD :
            config_.timing.tau2;
        ++dirFetchRefs_;
    }
    emitEvent(obs::EventKind::Fetch, bit_addr, last - first + 1);
}

// ---- execution ------------------------------------------------------------

void
Machine::executeStaged(const Staging &staging)
{
    for (int64_t v : staging.pushes)
        pushStack(v, breakdown_.stage);
    if (staging.routine >= 0) {
        const MicroRoutine &routine =
            *routinePtrs_[static_cast<size_t>(staging.routine)];
        if (!routine.empty())
            runRoutine(routine);
    }
    switch (staging.next) {
      case NextKind::Imm:
        pc_ = staging.nextImm;
        break;
      case NextKind::Stack:
        pc_ = static_cast<uint64_t>(popStack(breakdown_.dispatch));
        break;
      case NextKind::Halt:
        halted_ = true;
        break;
    }
}

void
Machine::runConventionalOrCached()
{
    bool cached = config_.kind == MachineKind::Cached;
    while (!halted_ && breakdown_.total() < sliceLimit_) {
        maybeSample();
        if (dirInstrs_ >= config_.maxDirInstrs)
            fatal("DIR instruction budget exhausted (%llu)",
                  static_cast<unsigned long long>(config_.maxDirInstrs));
        ++dirInstrs_;
        ++decodedInstrs_;
        if (config_.captureAddressTrace)
            addressTrace_.push_back(pc_);

        // The simulated machine decodes every executed instruction (and
        // is charged for it below); the host replays the memoized
        // result after the first visit to a pc.
        const DecodeResult &res = decodeMemo_.decodeAt(pc_);
        ++opcodeCounts_[static_cast<size_t>(res.instr.op)];
        uint64_t bits = res.nextBitAddr - pc_;
        if (cached)
            chargeFetchCached(pc_, bits);
        else
            chargeFetchLevel2(bits);
        uint64_t decode_cycles = config_.costs.decodeCycles(res.cost);
        breakdown_.decode += decode_cycles;
        emitEvent(obs::EventKind::Decode, pc_, decode_cycles);

        if (!stagingValid_[res.index]) {
            stagingMemo_[res.index] =
                stageInstruction(res.instr, *image_, res.index);
            stagingValid_[res.index] = 1;
        }
        executeStaged(stagingMemo_[res.index]);
    }
}

void
Machine::executeShort(const ShortInstr &si)
{
    switch (si.op) {
      case SOp::PUSH: {
        int64_t value = si.operand;
        if (si.mode == SMode::Direct || si.mode == SMode::Indirect) {
            uint64_t before = mem_.cycles();
            value = mem_.read(static_cast<uint64_t>(si.operand));
            if (si.mode == SMode::Indirect)
                value = mem_.read(static_cast<uint64_t>(value));
            breakdown_.stage += mem_.cycles() - before;
        }
        pushStack(value, breakdown_.stage);
        break;
      }
      case SOp::POP: {
        int64_t value = popStack(breakdown_.stage);
        uint64_t before = mem_.cycles();
        uint64_t addr = static_cast<uint64_t>(si.operand);
        if (si.mode == SMode::Indirect)
            addr = static_cast<uint64_t>(mem_.read(addr));
        mem_.write(addr, value);
        breakdown_.stage += mem_.cycles() - before;
        break;
      }
      case SOp::CALL: {
        uhm_assert(si.operand >= 0 &&
                   static_cast<size_t>(si.operand) < routinePtrs_.size(),
                   "CALL to unknown routine id");
        const MicroRoutine &routine =
            *routinePtrs_[static_cast<size_t>(si.operand)];
        if (!routine.empty())
            runRoutine(routine);
        break;
      }
      case SOp::INTERP:
        panic("INTERP outside the dispatch loop");
    }
}

uint64_t
Machine::executeShortSequence(const std::vector<ShortInstr> &code,
                              uint64_t fetch_cost)
{
    for (const ShortInstr &si : code) {
        // IU2 fetches each short instruction from the buffer array.
        breakdown_.dispatch += fetch_cost;
        ++shortInstrs_;
        if (si.op == SOp::INTERP) {
            if (si.mode == SMode::Stack)
                return static_cast<uint64_t>(
                    popStack(breakdown_.dispatch));
            return static_cast<uint64_t>(si.operand);
        }
        executeShort(si);
    }
    panic("PSDER sequence did not end with INTERP");
}

uint64_t
Machine::executeTrace(const tier::Trace &trace)
{
    const uint64_t fetch_cost = config_.timing.tauD;
    for (;;) {
        ++traceIterations_;
        for (const tier::TraceStep &step : trace.steps) {
            for (uint64_t addr : step.dirAddrs) {
                if (dirInstrs_ >= config_.maxDirInstrs)
                    fatal("DIR instruction budget exhausted (%llu)",
                          static_cast<unsigned long long>(
                              config_.maxDirInstrs));
                ++dirInstrs_;
                ++traceDirInstrs_;
                if (config_.captureAddressTrace)
                    addressTrace_.push_back(addr);
            }
            for (const ShortInstr &si : step.body) {
                // The fused body is fetched from the trace cache's
                // buffer array at DTB speed — but carries no INTERP, so
                // the per-instruction lookup and successor fetch are
                // gone.
                breakdown_.dispatch += fetch_cost;
                ++shortInstrs_;
                ++traceShortInstrs_;
                executeShort(si);
            }
            if (step.guarded) {
                // The semantic routine left the successor on the
                // operand stack (as it would for INTERP); the guard
                // pops and compares it against the recorded path.
                uint64_t next = static_cast<uint64_t>(
                    popStack(breakdown_.dispatch));
                if (next != step.expect) {
                    ++traceExits_;
                    prevPc_ = step.dirAddrs.back();
                    return next;
                }
            }
        }
        if (!trace.loops) {
            ++traceExits_;
            prevPc_ = trace.steps.back().dirAddrs.back();
            return trace.exitAddr;
        }
        // Loop back to the head: one trace dispatch per iteration.
        breakdown_.dispatch += config_.tier.dispatchCycles;
    }
}

void
Machine::runDtb()
{
    while (!halted_ && breakdown_.total() < sliceLimit_)
        dtbStep();
}

uint32_t
Machine::dtbStep()
{
    maybeSample();
    if (dirInstrs_ >= config_.maxDirInstrs)
        fatal("DIR instruction budget exhausted (%llu)",
              static_cast<unsigned long long>(config_.maxDirInstrs));

    // Recorder hook (Tiered): report the pc about to be interpreted.
    if (tier_ && tier_->recording()) {
        tier::TierEngine::RecordOutcome ro = tier_->recordStep(pc_);
        if (ro.status == tier::TierEngine::RecordStatus::Closed) {
            // Tier-2 translation charge: construct each short
            // instruction of the fused body and store it into the
            // trace cache's buffer array.
            breakdown_.translate2 += ro.compile.compiledShorts *
                (config_.tier.gen2CyclesPerInstr + config_.timing.tauD);
            tierTraceLen_.record(ro.compile.steps);
            emitEvent(obs::EventKind::Translate2, ro.compile.head,
                      ro.compile.compiledShorts);
            if (ro.compile.evictedTrace)
                emitEvent(obs::EventKind::TraceEvict,
                          ro.compile.evictedHead);
        } else if (ro.status == tier::TierEngine::RecordStatus::Aborted) {
            emitEvent(obs::EventKind::TraceAbort, pc_);
        }
    }

    uint32_t hit_idx = UINT32_MAX;
    const std::vector<ShortInstr> *code = nullptr;
    uint64_t fetch_cost = config_.timing.tauD;

    // First-level translation buffer (Dtb2): a tau1-speed lookup.
    if (dtbL1_) {
        breakdown_.dispatch += config_.timing.tau1;
        Dtb::LookupResult l1 = dtbL1_->lookup(pc_);
        if (l1.hit) {
            code = l1.code;
            fetch_cost = config_.timing.tau1;
        }
    }

    if (!code) {
        // INTERP presents the DIR address to the associative address
        // array (one DTB-array access).
        breakdown_.dispatch += config_.timing.tauD;
        Dtb::LookupResult lr = dtb_->lookup(pc_);

        if (lr.hit) {
            hit_idx = lr.entryIdx;
            emitEvent(obs::EventKind::DtbHit, pc_);
            code = lr.code;
            // Promote into the first-level buffer: one tau1 store per
            // short instruction copied. The copy lands in the L1
            // buffer's own storage, so lr.code stays valid to execute.
            if (dtbL1_) {
                breakdown_.dispatch += code->size() * config_.timing.tau1;
                dtbL1_->insert(pc_, *code);
                emitEvent(obs::EventKind::Promote, pc_, code->size());
            }
        } else {
            // Figure 4: trap through DTRPOINT to the dynamic translator.
            emitEvent(obs::EventKind::DtbMiss, pc_);
            uint64_t miss_start = breakdown_.total();
            breakdown_.dispatch += config_.trapCycles;
            ++traps_;
            emitEvent(obs::EventKind::Trap, pc_, config_.trapCycles);
            ++decodedInstrs_;
            ++translatedInstrs_;

            // Memoized: a repeat miss on this pc replays the cached
            // translation; the charged costs are identical either way.
            const Translation &tr = translator_.translate(pc_);
            chargeFetchLevel2(tr.bits);
            uint64_t decode_cycles =
                config_.costs.decodeCycles(tr.decodeCost);
            breakdown_.decode += decode_cycles;
            emitEvent(obs::EventKind::Decode, pc_, decode_cycles);
            // Generation: one cycle to construct each short instruction
            // plus one buffer-array store each.
            breakdown_.translate +=
                tr.genSteps * (1 + config_.timing.tauD);
            translateShortEmitted_ += tr.code.size();
            emitEvent(obs::EventKind::Translate, pc_, tr.code.size());

            // With a tier engine the insert goes through it, so an
            // eviction invalidates any trace the victim anchored.
            uint64_t now = cycleBase_ + breakdown_.total();
            Dtb::InsertOutcome ins;
            bool invalidated_trace = false;
            if (tier_) {
                tier::TierEngine::InstallResult inst =
                    tier_->installTranslation(pc_, tr.code, now);
                ins = inst.dtb;
                invalidated_trace = inst.invalidatedTrace;
            } else {
                ins = dtb_->insert(pc_, tr.code, now);
            }
            translateLatency_.record(breakdown_.total() - miss_start);
            if (ins.evicted) {
                dtbResidency_.record(ins.victimResidency);
                dtbEvictOccupancy_.record(ins.setOccupancy);
                emitEvent(obs::EventKind::DtbEvict, ins.victimTag,
                          ins.unitsNeeded);
            }
            if (invalidated_trace)
                emitEvent(obs::EventKind::TraceInvalidate, ins.victimTag);
            if (!ins.retained)
                emitEvent(obs::EventKind::DtbReject, pc_, ins.unitsNeeded);
            if (dtbL1_)
                dtbL1_->insert(pc_, tr.code);
            code = &tr.code;
        }
    }

    if (tier_ && hit_idx != UINT32_MAX) {
        EntryMeta &meta = dtb_->metaAt(hit_idx);
        // Hotness profile: a backward transfer into a resident entry is
        // a backedge (loops close with one).
        bool backedge = pc_ <= prevPc_;
        if (backedge)
            ++meta.backedgeCount;

        if (meta.anchorsTrace && !tier_->recording()) {
            // Trace dispatch: one trace-cache access plus the dispatch
            // overhead — paid once per entry, not once per instruction.
            breakdown_.dispatch +=
                config_.timing.tauD + config_.tier.dispatchCycles;
            if (const tier::Trace *trace = tier_->lookupTrace(pc_)) {
                ++traceEnters_;
                emitEvent(obs::EventKind::TraceEnter, pc_, trace->dirCount);
                uint64_t iters_before = traceIterations_.value();
                uint64_t next = executeTrace(*trace);
                emitEvent(obs::EventKind::TraceExit, next,
                          traceIterations_.value() - iters_before);
                if (next == haltBitAddr)
                    halted_ = true;
                else
                    pc_ = next;
                return hit_idx;
            }
            // Stale anchor (cleared by lookupTrace): fall back to the
            // ordinary tier-1 path.
        }
        if (backedge && tier_->wantsRecording(meta, pc_)) {
            tier_->beginRecording(pc_);
            emitEvent(obs::EventKind::TraceRecord, pc_);
        }
    }

    ++dirInstrs_;
    if (config_.captureAddressTrace)
        addressTrace_.push_back(pc_);
    prevPc_ = pc_;
    uint64_t next = executeShortSequence(*code, fetch_cost);
    if (next == haltBitAddr)
        halted_ = true;
    else
        pc_ = next;
    return hit_idx;
}

// ---- fast-run dispatch (DispatchMode::Threaded) ----------------------------
//
// The loops below are host-side optimizations only: every charge they
// batch into a Pending is the exact per-step sum the switch loops above
// would have applied, and anything they cannot run from a lowered image
// — misses, cold sites, active trace recording, unfastable shapes —
// falls back to exactly one switch-path step (dtbStep), so cold-path
// accounting has a single implementation.
// Byte-identity across modes is enforced by tests/dispatch_test.cc.

void
Machine::drainPending(Pending &p)
{
    breakdown_.fetch += p.fetch;
    breakdown_.decode += p.decode;
    breakdown_.stage += p.stage;
    breakdown_.dispatch += p.dispatch;
    breakdown_.semantic += p.semantic;
    dirInstrs_ += p.dirInstrs;
    decodedInstrs_ += p.decodedInstrs;
    shortInstrs_ += p.shortInstrs;
    microOps_ += p.microOps;
    dirFetchRefs_ += p.dirFetchRefs;
    traceDirInstrs_ += p.traceDirInstrs;
    traceShortInstrs_ += p.traceShortInstrs;
    traceIterations_ += p.traceIterations;
    traceExits_ += p.traceExits;
    mem_.chargeBatch(p.level1, p.level2);
    p = Pending{};
}

FastSeq *
Machine::ensureSeqLowered(uint32_t idx)
{
    FastSeq &fs = fastSlots_[idx];
    uint32_t gen = dtb_->metaAt(idx).gen;
    if (fs.gen != gen) {
        // The entry's contents changed since this slot was lowered
        // (insert, evict or flush all bump the generation): relower,
        // which also clears the slot's inline cache.
        lowerFastSeq(dtb_->codeAt(idx), flat_, config_.timing.tauD,
                     config_.timing.tau1, fs);
        fs.gen = gen;
    }
    return &fs;
}

uint64_t
Machine::executeTraceFast(const FastTrace &ft, Pending &p)
{
    const uint32_t *vm_code = flat_.code.data();
    const int64_t *vm_imm = flat_.imm.data();
    const uint64_t tau1 = config_.timing.tau1;
    const uint64_t tau2 = config_.timing.tau2;
    const uint64_t level1_words = mem_.level1Words();
    const uint64_t stack_base = config_.layout.stackBase;
    const uint64_t stack_words = config_.layout.stackWords;
    const uint64_t max_dir = config_.maxDirInstrs;
    const bool capture = config_.captureAddressTrace;
    const uint64_t loop_cycles = config_.tier.dispatchCycles;
    auto &r = regs_;

    uint64_t n = 0, sem_mem = 0, l1 = 0, l2 = 0;
    uint64_t d_dir = 0, d_tdir = 0, d_disp = 0, d_stage = 0;
    uint64_t d_short = 0, d_tshort = 0, d_iter = 0;
    uint64_t sp = sp_;
    int64_t *stk = mem_.raw() + stack_base;
    const FastTraceStep *steps = ft.steps.data();
    const size_t nsteps = ft.steps.size();
    const FastTraceStep *stp = nullptr;
    const FastTraceItem *itp = nullptr;
    size_t si = 0, ki = 0, nitems = 0;
    uint64_t next = 0;
    size_t vm_i = 0, vm_ii = 0;
    uint32_t vm_w = 0;
    uint64_t dir_base = dirInstrs_.value() + p.dirInstrs;
    uint64_t budget_left = max_dir > dir_base ? max_dir - dir_base : 0;

#define VM_FLUSH()                                                     \
    do {                                                               \
        p.microOps += n;                                               \
        p.semantic += n * tau1 + sem_mem;                              \
        p.level1 += l1;                                                \
        p.level2 += l2;                                                \
        p.dirInstrs += d_dir;                                          \
        p.traceDirInstrs += d_tdir;                                    \
        p.dispatch += d_disp;                                          \
        p.stage += d_stage;                                            \
        p.shortInstrs += d_short;                                      \
        p.traceShortInstrs += d_tshort;                                \
        p.traceIterations += d_iter;                                   \
        n = sem_mem = l1 = l2 = 0;                                     \
        d_dir = d_tdir = d_disp = d_stage = 0;                         \
        d_short = d_tshort = d_iter = 0;                               \
        sp_ = sp;                                                      \
    } while (0)
#define VM_BAIL()                                                      \
    do {                                                               \
        VM_FLUSH();                                                    \
        drainPending(p);                                               \
    } while (0)

    for (;;) {
        ++d_iter;
        for (si = 0; si < nsteps; ++si) {
            stp = steps + si;
            if (!capture && d_dir + stp->nDir <= budget_left) {
                d_dir += stp->nDir;
                d_tdir += stp->nDir;
            } else {
                // Rare: address capture, or within nDir of the budget.
                p.dirInstrs += d_dir;
                p.traceDirInstrs += d_tdir;
                d_dir = d_tdir = 0;
                for (uint64_t addr : stp->src->dirAddrs) {
                    if (dirInstrs_.value() + p.dirInstrs >= max_dir) {
                        VM_BAIL();
                        fatal("DIR instruction budget exhausted "
                              "(%llu)",
                              static_cast<unsigned long long>(
                                  max_dir));
                    }
                    ++p.dirInstrs;
                    ++p.traceDirInstrs;
                    if (capture)
                        addressTrace_.push_back(addr);
                }
                dir_base = dirInstrs_.value() + p.dirInstrs;
                budget_left = max_dir > dir_base ? max_dir - dir_base
                    : 0;
            }
            d_disp += stp->dispatchAdd;
            d_stage += stp->stageAdd;
            l1 += stp->level1Add;
            d_short += stp->nBody;
            d_tshort += stp->nBody;
            itp = stp->items.data();
            nitems = stp->items.size();
            for (ki = 0; ki < nitems; ++ki) {
                if (itp[ki].routineEntry >= 0) {
                    vm_i = static_cast<size_t>(itp[ki].routineEntry);
                    goto vm_enter;
                } else {
                    if (sp >= stack_words) {
                        VM_BAIL();
                        fatal("operand stack overflow (%llu words)",
                              static_cast<unsigned long long>(
                                  stack_words));
                    }
                    stk[sp++] = itp[ki].pushValue;
                }
            item_done:;
            }
            if (stp->guarded) {
                if (sp == 0) {
                    VM_BAIL();
                    fatal("operand stack underflow");
                }
                next = static_cast<uint64_t>(stk[--sp]);
                if (next != stp->expect) {
                    ++p.traceExits;
                    prevPc_ = stp->lastAddr;
                    VM_FLUSH();
                    return next;
                }
            }
        }
        if (!ft.loops) {
            ++p.traceExits;
            prevPc_ = ft.lastAddr;
            VM_FLUSH();
            return ft.exitAddr;
        }
        d_disp += loop_cycles;
    }

#define VM_DONE_GOTO goto item_done
#include "uhm/vm_ops.inc"
#undef VM_DONE_GOTO
#undef VM_BAIL
#undef VM_FLUSH
}

void
Machine::runDtbFast()
{
    const uint32_t *vm_code = flat_.code.data();
    const int64_t *vm_imm = flat_.imm.data();
    const uint64_t tau1 = config_.timing.tau1;
    const uint64_t tau2 = config_.timing.tau2;
    const uint64_t tau_d = config_.timing.tauD;
    const uint64_t level1_words = mem_.level1Words();
    const uint64_t stack_base = config_.layout.stackBase;
    const uint64_t stack_words = config_.layout.stackWords;
    const bool capture = config_.captureAddressTrace;
    Dtb *const dtb = dtb_;
    // The tier engine (Tiered only): its recorder, trace dispatch and
    // backedge profile are the only parts this loop adds for it.
    tier::TierEngine *const tier = tier_.get();
    auto &r = regs_;

    // Pending step-level charges plus register-resident micro-op
    // charges (n, sem_mem, l1, l2). "Now" on the switch path is
    // breakdown_.total(); here it is drained + cyc + n*tau1 + sem_mem,
    // where cyc mirrors p.cycles() so the loop head never has to sum
    // the Pending buckets.
    Pending p;
    uint64_t drained = breakdown_.total();
    uint64_t cyc = 0;
    uint64_t n = 0, sem_mem = 0, l1 = 0, l2 = 0;
    // Step-level buckets mirrored in never-address-taken locals so the
    // per-step bumps stay in registers (p's address escapes into
    // drainPending, so p fields would be memory RMWs).
    uint64_t d_dir = 0, d_disp = 0, d_stage = 0, d_short = 0;
    uint64_t sp = sp_;
    uint64_t pc = pc_;
    uint64_t prev_pc = prevPc_;
    int64_t *stk = mem_.raw() + stack_base;
    uint64_t budget_left = config_.maxDirInstrs - dirInstrs_.value();
    uint64_t sample_at = sampleEvery_ ? nextSampleAt_ : UINT64_MAX;
    size_t vm_i = 0, vm_ii = 0;
    uint32_t vm_w = 0;
    // The sequence executed last step: its inline cache predicts the
    // DTB slot of the pc about to be looked up.
    FastSeq *site = nullptr;
    FastSeq *fs = nullptr;
    uint32_t idx = 0;
    uint64_t next = 0;

#define VM_FLUSH()                                                     \
    do {                                                               \
        uint64_t vm_sem = n * tau1 + sem_mem;                          \
        p.microOps += n;                                               \
        p.semantic += vm_sem;                                          \
        p.level1 += l1;                                                \
        p.level2 += l2;                                                \
        p.dirInstrs += d_dir;                                          \
        p.dispatch += d_disp;                                          \
        p.stage += d_stage;                                            \
        p.shortInstrs += d_short;                                      \
        cyc += vm_sem;                                                 \
        n = sem_mem = l1 = l2 = 0;                                     \
        d_dir = d_disp = d_stage = d_short = 0;                        \
        sp_ = sp;                                                      \
        pc_ = pc;                                                      \
        prevPc_ = prev_pc;                                             \
    } while (0)
#define VM_BAIL()                                                      \
    do {                                                               \
        VM_FLUSH();                                                    \
        drainPending(p);                                               \
    } while (0)

    while (!halted_) {
        {
            uint64_t now = drained + cyc + n * tau1 + sem_mem;
            if (now >= sliceLimit_)
                break;
            if (now >= sample_at) {
                VM_BAIL();
                drained = breakdown_.total();
                cyc = 0;
                budget_left =
                    config_.maxDirInstrs - dirInstrs_.value();
                takeSample();
                sample_at = nextSampleAt_;
            }
        }
        if (d_dir >= budget_left) {
            VM_BAIL();
            fatal("DIR instruction budget exhausted (%llu)",
                  static_cast<unsigned long long>(config_.maxDirInstrs));
        }

        // Inline-cache probe, then a full — still side-effect-free —
        // DTB probe. Nothing is charged or counted unless the fast
        // step commits below. While a trace recorder is active every
        // step must pass through it: keep to the switch path
        // (recording windows are short).
        idx = UINT32_MAX;
        if (!tier || !tier->recording()) {
            if (site && site->icTag == pc &&
                dtb->icCheck(site->icIdx, pc)) {
                idx = site->icIdx;
            } else {
                idx = dtb->probeIdx(pc);
                if (idx != UINT32_MAX && site) {
                    site->icTag = pc;
                    site->icIdx = idx;
                }
            }
        }
        fs = nullptr;
        if (idx != UINT32_MAX) {
            fs = ensureSeqLowered(idx);
            if (!fs->fastable || sp + fs->pushes.size() > stack_words)
                fs = nullptr;
        }
        if (!fs) {
            // True DTB miss (translation), an unfastable shape or an
            // active recording: one full switch-path step (the lookup
            // counts its hit or miss exactly as always), then re-prime
            // the inline cache from its outcome so the chain re-forms.
            VM_BAIL();
            {
                uint64_t lookup_pc = pc;
                uint32_t hit = dtbStep();
                if (hit != UINT32_MAX) {
                    if (site) {
                        site->icTag = lookup_pc;
                        site->icIdx = hit;
                    }
                    site = ensureSeqLowered(hit);
                } else {
                    site = nullptr;
                }
            }
            drained = breakdown_.total();
            cyc = 0;
            budget_left = config_.maxDirInstrs - dirInstrs_.value();
            sample_at = sampleEvery_ ? nextSampleAt_ : UINT64_MAX;
            sp = sp_;
            pc = pc_;
            prev_pc = prevPc_;
            stk = mem_.raw() + stack_base;
            continue;
        }

        // Committed fast hit — same accounting as lookup()'s hit branch
        // plus the sequence's statically known charges.
        dtb->hitAt(idx);
        d_disp += tau_d; // the lookup
        cyc += tau_d;
        if (tier) {
            EntryMeta &meta = dtb->metaAt(idx);
            bool backedge = pc <= prev_pc;
            if (backedge)
                ++meta.backedgeCount;

            if (meta.anchorsTrace) {
                // Trace dispatch (the recorder is known idle here): one
                // trace-cache access plus the dispatch overhead.
                uint64_t add = tau_d + config_.tier.dispatchCycles;
                d_disp += add;
                cyc += add;
                if (const tier::Trace *trace = tier->lookupTrace(pc)) {
                    ++traceEnters_;
                    FastTrace *ft = nullptr;
                    uint32_t tidx = 0;
                    uint32_t tgen = 0;
                    if (tier->cache().refOf(pc, tidx, tgen)) {
                        ft = &fastTraces_[tidx];
                        if (ft->gen != tgen) {
                            lowerFastTrace(*trace, flat_, tau_d, tau1,
                                           *ft);
                            ft->gen = tgen;
                        }
                        if (!ft->fastable)
                            ft = nullptr;
                    }
                    // Trace boundaries are drain points.
                    VM_BAIL();
                    if (ft)
                        next = executeTraceFast(*ft, p);
                    else
                        next = executeTrace(*trace);
                    drainPending(p);
                    drained = breakdown_.total();
                    cyc = 0;
                    budget_left =
                        config_.maxDirInstrs - dirInstrs_.value();
                    sample_at =
                        sampleEvery_ ? nextSampleAt_ : UINT64_MAX;
                    sp = sp_;
                    pc = pc_;
                    prev_pc = prevPc_;
                    stk = mem_.raw() + stack_base;
                    site = nullptr;
                    if (next == haltBitAddr)
                        halted_ = true;
                    else
                        pc = next;
                    continue;
                }
                // Stale anchor (cleared by lookupTrace): fall through
                // to the ordinary tier-1 sequence path.
            }
            if (backedge && tier->wantsRecording(meta, pc))
                tier->beginRecording(pc);
        }

        ++d_dir;
        if (capture)
            addressTrace_.push_back(pc);
        prev_pc = pc;

        {
            uint64_t add = fs->dispatchAdd;
            d_disp += add;
            d_stage += fs->stageAdd;
            cyc += add + fs->stageAdd;
        }
        l1 += fs->level1Add;
        d_short += fs->shortCount;

        {
            const int64_t *pv = fs->pushes.data();
            size_t np = fs->pushes.size();
            for (size_t k = 0; k < np; ++k)
                stk[sp + k] = pv[k];
            sp += np;
        }

        if (fs->routineEntry >= 0) {
            vm_i = static_cast<size_t>(fs->routineEntry);
            goto vm_enter;
        }
    seq_done:
        if (fs->stackNext) {
            if (sp == 0) {
                // The switch path fatals before charging the pop.
                d_disp -= tau1;
                cyc -= tau1;
                --l1;
                VM_BAIL();
                fatal("operand stack underflow");
            }
            next = static_cast<uint64_t>(stk[--sp]);
        } else {
            next = fs->nextImm;
        }
        site = fs;
        if (next == haltBitAddr)
            halted_ = true;
        else
            pc = next;
    }
    VM_BAIL();
    return;

#define VM_DONE_GOTO goto seq_done
#include "uhm/vm_ops.inc"
#undef VM_DONE_GOTO
#undef VM_BAIL
#undef VM_FLUSH
}

void
Machine::runConventionalFast()
{
    const uint32_t *vm_code = flat_.code.data();
    const int64_t *vm_imm = flat_.imm.data();
    const uint64_t tau1 = config_.timing.tau1;
    const uint64_t tau2 = config_.timing.tau2;
    const uint64_t level1_words = mem_.level1Words();
    const uint64_t stack_base = config_.layout.stackBase;
    const uint64_t stack_words = config_.layout.stackWords;
    const bool capture = config_.captureAddressTrace;
    auto &r = regs_;

    Pending p;
    uint64_t drained = breakdown_.total();
    uint64_t cyc = 0;
    uint64_t n = 0, sem_mem = 0, l1 = 0, l2 = 0;
    // Register-resident step buckets; see runDtbFast.
    uint64_t d_dir = 0, d_disp = 0, d_stage = 0;
    uint64_t d_fetch = 0, d_decode = 0, d_refs = 0;
    uint64_t sp = sp_;
    uint64_t pc = pc_;
    int64_t *stk = mem_.raw() + stack_base;
    uint64_t budget_left = config_.maxDirInstrs - dirInstrs_.value();
    uint64_t sample_at = sampleEvery_ ? nextSampleAt_ : UINT64_MAX;
    size_t vm_i = 0, vm_ii = 0;
    uint32_t vm_w = 0;
    FastConv *fc = nullptr;

#define VM_FLUSH()                                                     \
    do {                                                               \
        uint64_t vm_sem = n * tau1 + sem_mem;                          \
        p.microOps += n;                                               \
        p.semantic += vm_sem;                                          \
        p.level1 += l1;                                                \
        p.level2 += l2;                                                \
        p.dirInstrs += d_dir;                                          \
        p.decodedInstrs += d_dir;                                      \
        p.dispatch += d_disp;                                          \
        p.stage += d_stage;                                            \
        p.fetch += d_fetch;                                            \
        p.decode += d_decode;                                          \
        p.dirFetchRefs += d_refs;                                      \
        cyc += vm_sem;                                                 \
        n = sem_mem = l1 = l2 = 0;                                     \
        d_dir = d_disp = d_stage = d_fetch = d_decode = d_refs = 0;    \
        sp_ = sp;                                                      \
        pc_ = pc;                                                      \
    } while (0)
#define VM_BAIL()                                                      \
    do {                                                               \
        VM_FLUSH();                                                    \
        drainPending(p);                                               \
    } while (0)

    while (!halted_) {
        {
            uint64_t now = drained + cyc + n * tau1 + sem_mem;
            if (now >= sliceLimit_)
                break;
            if (now >= sample_at) {
                VM_BAIL();
                drained = breakdown_.total();
                cyc = 0;
                budget_left =
                    config_.maxDirInstrs - dirInstrs_.value();
                takeSample();
                sample_at = nextSampleAt_;
            }
        }
        if (d_dir >= budget_left) {
            VM_BAIL();
            fatal("DIR instruction budget exhausted (%llu)",
                  static_cast<unsigned long long>(config_.maxDirInstrs));
        }
        ++d_dir;
        if (capture)
            addressTrace_.push_back(pc);

        {
            const DecodeResult &res = decodeMemo_.decodeAt(pc);
            fc = &convFast_[res.index];
            if (!fc->valid) {
                // Lower lazily on first visit. The image is immutable,
                // so a lowered instruction never invalidates.
                if (!stagingValid_[res.index]) {
                    stagingMemo_[res.index] =
                        stageInstruction(res.instr, *image_, res.index);
                    stagingValid_[res.index] = 1;
                }
                const Staging &st = stagingMemo_[res.index];
                fc->opIdx = static_cast<uint16_t>(res.instr.op);
                uint64_t bits = res.nextBitAddr - pc;
                fc->fetchRefs = static_cast<uint32_t>(
                    std::max<uint64_t>(1, (bits + 63) / 64));
                fc->fetchAdd = fc->fetchRefs * tau2;
                fc->decodeCycles = config_.costs.decodeCycles(res.cost);
                fc->pushes = st.pushes;
                fc->routineEntry = st.routine >= 0 ?
                    flat_.entry[static_cast<size_t>(st.routine)] : -1;
                fc->next = static_cast<uint8_t>(st.next);
                fc->nextImm = st.nextImm;
                fc->stageAdd = fc->pushes.size() * tau1;
                fc->dispatchAdd =
                    st.next == NextKind::Stack ? tau1 : 0;
                fc->level1Add =
                    static_cast<uint32_t>(fc->pushes.size()) +
                    (st.next == NextKind::Stack ? 1u : 0u);
                fc->valid = true;
            }
        }
        ++opcodeCounts_[fc->opIdx];
        {
            uint64_t add = fc->fetchAdd + fc->decodeCycles +
                fc->stageAdd + fc->dispatchAdd;
            d_fetch += fc->fetchAdd;
            d_decode += fc->decodeCycles;
            d_stage += fc->stageAdd;
            d_disp += fc->dispatchAdd;
            cyc += add;
        }
        d_refs += fc->fetchRefs;
        l1 += fc->level1Add;

        if (sp + fc->pushes.size() > stack_words) {
            VM_BAIL();
            fatal("operand stack overflow (%llu words)",
                  static_cast<unsigned long long>(stack_words));
        }
        {
            const int64_t *pv = fc->pushes.data();
            size_t np = fc->pushes.size();
            for (size_t k = 0; k < np; ++k)
                stk[sp + k] = pv[k];
            sp += np;
        }

        if (fc->routineEntry >= 0) {
            vm_i = static_cast<size_t>(fc->routineEntry);
            goto vm_enter;
        }
    conv_done:
        switch (static_cast<NextKind>(fc->next)) {
          case NextKind::Imm:
            pc = fc->nextImm;
            break;
          case NextKind::Stack:
            if (sp == 0) {
                d_disp -= tau1;
                cyc -= tau1;
                --l1;
                VM_BAIL();
                fatal("operand stack underflow");
            }
            pc = static_cast<uint64_t>(stk[--sp]);
            break;
          case NextKind::Halt:
            halted_ = true;
            break;
        }
    }
    VM_BAIL();
    return;

#define VM_DONE_GOTO goto conv_done
#include "uhm/vm_ops.inc"
#undef VM_DONE_GOTO
#undef VM_BAIL
#undef VM_FLUSH
}

void
Machine::takeSample()
{
    uint64_t now = breakdown_.total();
    obs::OccupancySample s;
    s.cycle = now;
    s.dirInstrs = dirInstrs_.value();
    if (dtb_) {
        s.dtbHitsDelta = dtb_->hits() - lastDtbHits_;
        s.dtbMissesDelta = dtb_->misses() - lastDtbMisses_;
        lastDtbHits_ = dtb_->hits();
        lastDtbMisses_ = dtb_->misses();
        s.dtbSetOccupancy = dtb_->setOccupancy();
    }
    uint64_t resident = 0;
    for (uint32_t n : s.dtbSetOccupancy)
        resident += n;
    if (tier_) {
        const tier::TraceCache &cache = tier_->cache();
        s.traceHitsDelta = cache.hits() - lastTraceHits_;
        s.traceMissesDelta = cache.misses() - lastTraceMisses_;
        lastTraceHits_ = cache.hits();
        lastTraceMisses_ = cache.misses();
        s.traceSetOccupancy = cache.setOccupancy();
    }
    emitEvent(obs::EventKind::Sample, samples_.size(), resident);
    samples_.push_back(std::move(s));
    // Advance past the *current* total, not by one interval: a long
    // instruction that crosses several boundaries yields one sample,
    // not a burst of identical ones.
    nextSampleAt_ = (now / sampleEvery_ + 1) * sampleEvery_;
}

void
Machine::beginRun(std::vector<int64_t> input)
{
    const DirProgram &prog = image_->program();
    const MachineLayout &layout = config_.layout;

    // Reset machine state.
    regs_.fill(0);
    sp_ = 0;
    ras_.clear();
    output_.clear();
    inputStorage_ = std::move(input);
    input_ = &inputStorage_;
    inputPos_ = 0;
    halted_ = false;
    sliceLimit_ = UINT64_MAX;
    cycleBase_ = 0;
    breakdown_ = CycleBreakdown{};
    dirInstrs_.reset();
    decodedInstrs_.reset();
    translatedInstrs_.reset();
    microOps_.reset();
    shortInstrs_.reset();
    dirFetchRefs_.reset();
    traps_.reset();
    translateShortEmitted_.reset();
    traceDirInstrs_.reset();
    traceShortInstrs_.reset();
    traceIterations_.reset();
    traceEnters_.reset();
    traceExits_.reset();
    prevPc_ = 0;
    translateLatency_.reset();
    dtbResidency_.reset();
    dtbEvictOccupancy_.reset();
    tierTraceLen_.reset();
    sampleEvery_ = config_.sampleIntervalCycles;
    nextSampleAt_ = sampleEvery_;
    lastDtbHits_ = 0;
    lastDtbMisses_ = 0;
    lastTraceHits_ = 0;
    lastTraceMisses_ = 0;
    samples_.clear();
    if (config_.profileEvents)
        tracer_.enable(config_.profileEventCapacity);
    else
        tracer_.disable();
    addressTrace_.clear();
    opcodeCounts_.assign(numOps, 0);
    mem_.resetStats();
    if (dtb_ && !sharedDtb_) {
        dtb_->invalidateAll();
        dtb_->resetStats();
    }
    if (dtbL1_) {
        dtbL1_->invalidateAll();
        dtbL1_->resetStats();
    }
    if (icache_) {
        icache_->flush();
        icache_->resetStats();
    }
    if (tier_)
        tier_->reset();

    // Fast-run dispatch state. Sized once per run and never reallocated
    // while it runs, so FastSeq pointers (the inline-cache sites) stay
    // stable across the whole slice sequence.
    if (useFastLoops()) {
        if (dtb_)
            fastSlots_.assign(dtb_->numEntries(), FastSeq{});
        if (tier_)
            fastTraces_.assign(tier_->cache().numEntries(), FastTrace{});
        if (config_.kind == MachineKind::Conventional)
            convFast_.assign(image_->numInstrs(), FastConv{});
        // The fast loops address the operand stack through a raw
        // pointer; materialize its backing storage up front.
        mem_.ensure(config_.layout.stackBase + config_.layout.stackWords);
    }

    // Loader: display D[0] points at the globals; FSP starts just above
    // them. Loader pokes are not charged.
    uint64_t globals_base = layout.globalsBase();
    for (uint64_t d = 0; d <= layout.maxDepth; ++d)
        mem_.poke(layout.dispBase + d, 0);
    mem_.poke(layout.dispBase, static_cast<int64_t>(globals_base));
    for (uint64_t g = 0; g < prog.numGlobals; ++g)
        mem_.poke(globals_base + g, 0);
    regs_[regFsp] = static_cast<int64_t>(globals_base + prog.numGlobals);

    pc_ = image_->entryBitAddr();
}

uint64_t
Machine::runSlice(uint64_t max_cycles)
{
    if (halted_)
        return 0;
    uint64_t start = breakdown_.total();
    sliceLimit_ = max_cycles > UINT64_MAX - start ? UINT64_MAX :
        start + max_cycles;

    if (useFastLoops()) {
        if (dtb_)
            runDtbFast();
        else
            runConventionalFast();
    } else if (dtb_) {
        runDtb();
    } else {
        runConventionalOrCached();
    }
    return breakdown_.total() - start;
}

void
Machine::flushDtb()
{
    if (!dtb_)
        return;
    uint64_t now = cycleBase_ + breakdown_.total();
    std::vector<Dtb::FlushedEntry> victims = dtb_->flush(now);
    for (const Dtb::FlushedEntry &v : victims) {
        // Cross-tenant victims (possible when flushing a shared buffer
        // in tag-and-share use) belong to other machines' histograms
        // and engines; only our own feed ours.
        if (v.asid != dtb_->asid())
            continue;
        dtbResidency_.record(v.residency);
        if (v.anchoredTrace && tier_)
            tier_->invalidateTrace(v.tag);
    }
    if (dtbL1_)
        dtbL1_->flush(now);
    emitEvent(obs::EventKind::DtbFlush, pc_, victims.size());
}

RunResult
Machine::finishRun()
{
    uhm_assert(halted_, "finishRun before HALT");
    // Drain residual residencies: entries still resident at halt never
    // reached the eviction path, and their lifetimes must show up in
    // the histogram too (they are the long ones).
    if (dtb_) {
        uint64_t now = cycleBase_ + breakdown_.total();
        for (uint64_t r : dtb_->residentResidencies(
                 now, sharedDtb_ ?
                     static_cast<int64_t>(dtb_->asid()) : -1))
            dtbResidency_.record(r);
    }

    RunResult result;
    result.output = std::move(output_);
    result.breakdown = breakdown_;
    result.cycles = breakdown_.total();
    result.dirInstrs = dirInstrs_;
    result.counters = registry_.snapshot();
    result.histograms = registry_.histogramSnapshot();
    result.samples = std::move(samples_);
    result.events = tracer_.events();
    result.eventsSeen = tracer_.seen();
    result.eventsDropped = tracer_.dropped();
    result.addressTrace = std::move(addressTrace_);
    if (config_.kind == MachineKind::Conventional ||
        config_.kind == MachineKind::Cached) {
        result.opcodeCounts = opcodeCounts_;
    }

    if (dtb_)
        result.dtbHitRatio = dtb_->hitRatio();
    if (dtbL1_)
        result.dtbL1HitRatio = dtbL1_->hitRatio();
    if (icache_)
        result.cacheHitRatio = icache_->hitRatio();
    if (tier_) {
        result.traceHitRatio = tier_->cache().hitRatio();
        result.traceCoverage = dirInstrs_ == 0 ? 0.0 :
            static_cast<double>(traceDirInstrs_.value()) /
            static_cast<double>(dirInstrs_.value());
        result.traceMeanIterLen = traceIterations_ == 0 ? 0.0 :
            static_cast<double>(traceDirInstrs_.value()) /
            static_cast<double>(traceIterations_.value());
        result.measuredG2 = tier_->compiledShortInstrs() == 0 ? 0.0 :
            static_cast<double>(breakdown_.translate2) /
            static_cast<double>(tier_->compiledShortInstrs());
    }

    result.measuredD = decodedInstrs_ == 0 ? 0.0 :
        static_cast<double>(breakdown_.decode) /
        static_cast<double>(decodedInstrs_);
    result.measuredX = dirInstrs_ == 0 ? 0.0 :
        static_cast<double>(breakdown_.semantic) /
        static_cast<double>(dirInstrs_);
    result.measuredG = translatedInstrs_ == 0 ? 0.0 :
        static_cast<double>(breakdown_.translate) /
        static_cast<double>(translatedInstrs_);
    return result;
}

RunResult
Machine::run(const std::vector<int64_t> &input)
{
    beginRun(input);
    runSlice(UINT64_MAX);
    return finishRun();
}

RunResult
runProgram(const DirProgram &program, EncodingScheme scheme,
           const MachineConfig &config, const std::vector<int64_t> &input)
{
    std::unique_ptr<EncodedDir> image = encodeDir(program, scheme);
    Machine machine(*image, config);
    return machine.run(input);
}

} // namespace uhm
