#include "core/dtb.hh"

#include "support/logging.hh"

namespace uhm
{

Dtb::Dtb(const DtbConfig &config) : config_(config), rng_(config.seed)
{
    uhm_assert(config.unitShortInstrs >= 1, "unit of allocation empty");
    // Round the unit size *up* to whole bytes: flooring would undersize
    // the unit whenever unitShortInstrs * shortInstrBits is not
    // byte-aligned, silently overcommitting the buffer array.
    uint64_t unit_bits =
        uint64_t{config.unitShortInstrs} * shortInstrBits;
    uint64_t unit_bytes = (unit_bits + 7) / 8;
    uhm_assert(unit_bytes * 8 >= unit_bits,
               "unit of allocation cannot hold its instructions");
    uint64_t total_units = config.capacityBytes / unit_bytes;
    uhm_assert(total_units >= 1, "DTB smaller than one unit");
    uhm_assert(total_units * unit_bytes <= config.capacityBytes,
               "allocation units exceed buffer-array capacity");

    overflowTotal_ = config.allowOverflow ?
        static_cast<uint64_t>(
            static_cast<double>(total_units) * config.overflowFraction) :
        0;
    numEntries_ = total_units - overflowTotal_;
    uhm_assert(numEntries_ >= 1, "no primary units left");
    overflowFree_ = overflowTotal_;

    assoc_ = config.assoc == 0 ? static_cast<unsigned>(numEntries_) :
        config.assoc;
    uhm_assert(assoc_ <= numEntries_,
               "associativity exceeds entry count");
    numSets_ = numEntries_ / assoc_;
    uhm_assert(numSets_ >= 1, "no sets");
    // Trim entries that do not fill a whole set.
    numEntries_ = numSets_ * assoc_;

    numPartitions_ = config.numPartitions <= 1 ? 1 :
        config.numPartitions;
    uhm_assert(numPartitions_ <= numSets_,
               "more DTB partitions than sets");
    setsPerPartition_ = numSets_ / numPartitions_;

    entries_.assign(numEntries_, Entry{});
    repl_.reserve(numSets_);
    for (uint64_t s = 0; s < numSets_; ++s)
        repl_.emplace_back(assoc_, config.policy, &rng_);
}

uint64_t
Dtb::setOf(uint64_t dir_addr) const
{
    // Multiplicative hash of the DIR bit address ("the DIR instruction
    // address is hashed to select a unique set"). In partitioned mode
    // the hash lands inside the current tenant's contiguous region
    // (the trailing numSets_ % numPartitions_ sets go unused — the
    // partitions stay equal-sized).
    uint64_t h = (dir_addr * 0x9e3779b97f4a7c15ull) >> 32;
    if (numPartitions_ == 1)
        return h % numSets_;
    return (asid_ % numPartitions_) * setsPerPartition_ +
        h % setsPerPartition_;
}

Dtb::LookupResult
Dtb::lookup(uint64_t dir_addr)
{
    uint64_t set = setOf(dir_addr);
    Entry *set_entries = &entries_[set * assoc_];
    for (unsigned way = 0; way < assoc_; ++way) {
        Entry &e = set_entries[way];
        if (e.meta.valid && e.meta.tag == dir_addr &&
            e.meta.asid == asid_) {
            repl_[set].touch(way);
            ++hits_;
            ++e.meta.useCount;
            return {true, &e.code, e.meta.units, &e.meta,
                    static_cast<uint32_t>(set * assoc_ + way)};
        }
    }
    ++misses_;
    return {};
}

Dtb::Entry *
Dtb::findEntry(uint64_t dir_addr)
{
    uint64_t set = setOf(dir_addr);
    Entry *set_entries = &entries_[set * assoc_];
    for (unsigned way = 0; way < assoc_; ++way) {
        Entry &e = set_entries[way];
        if (e.meta.valid && e.meta.tag == dir_addr &&
            e.meta.asid == asid_)
            return &e;
    }
    return nullptr;
}

bool
Dtb::markTraceAnchor(uint64_t dir_addr)
{
    Entry *e = findEntry(dir_addr);
    if (!e)
        return false;
    e->meta.anchorsTrace = true;
    return true;
}

void
Dtb::clearTraceAnchor(uint64_t dir_addr)
{
    if (Entry *e = findEntry(dir_addr))
        e->meta.anchorsTrace = false;
}

std::vector<uint32_t>
Dtb::setOccupancy() const
{
    std::vector<uint32_t> occupancy(numSets_, 0);
    for (uint64_t i = 0; i < numEntries_; ++i) {
        if (entries_[i].meta.valid)
            ++occupancy[i / assoc_];
    }
    return occupancy;
}

Dtb::InsertOutcome
Dtb::insert(uint64_t dir_addr, std::vector<ShortInstr> code,
            uint64_t now)
{
    unsigned units_needed = static_cast<unsigned>(
        (code.size() + config_.unitShortInstrs - 1) /
        config_.unitShortInstrs);
    if (units_needed == 0)
        units_needed = 1;
    unsigned overflow_needed = units_needed - 1;

    InsertOutcome out;
    out.unitsNeeded = units_needed;

    if (overflow_needed > 0 && !config_.allowOverflow) {
        ++rejects_;
        return out;
    }

    uint64_t set = setOf(dir_addr);
    Entry *set_entries = &entries_[set * assoc_];

    // Prefer an invalid way; otherwise the replacement array's victim.
    unsigned way = assoc_;
    for (unsigned w = 0; w < assoc_; ++w) {
        if (set_entries[w].meta.valid)
            ++out.setOccupancy;
        else if (way == assoc_)
            way = w;
    }
    Entry *victim = nullptr;
    if (way == assoc_) {
        way = repl_[set].victim();
        victim = &set_entries[way];
    }

    // Reserve overflow increments before evicting anything. The blocks
    // a valid victim would release count toward the supply, but if the
    // area still cannot cover the translation, the resident — possibly
    // hot — victim must survive. (Evicting first and rejecting after
    // destroyed a retained translation for nothing.)
    uint64_t victim_release =
        victim && victim->meta.valid && victim->meta.units > 1 ?
        victim->meta.units - 1 : 0;
    if (overflow_needed > overflowFree_ + victim_release) {
        ++rejects_;
        return out;
    }

    if (victim) {
        out.evicted = victim->meta.valid;
        out.victimTag = victim->meta.tag;
        out.victimAsid = victim->meta.asid;
        out.victimUses = victim->meta.useCount;
        if (now > victim->meta.insertCycle)
            out.victimResidency = now - victim->meta.insertCycle;
        evict(*victim);
        ++evictions_;
    }
    overflowFree_ -= overflow_needed;
    overflowBlocks_ += overflow_needed;

    Entry &e = set_entries[way];
    e.meta.reset();
    e.meta.tag = dir_addr;
    e.meta.asid = asid_;
    e.meta.valid = true;
    e.meta.units = units_needed;
    e.meta.insertCycle = now;
    e.code = std::move(code);
    repl_[set].fill(way);
    ++inserts_;
    out.retained = true;
    return out;
}

void
Dtb::registerCounters(obs::Registry &registry,
                      const std::string &prefix) const
{
    registry.add(obs::joinName(prefix, "hits"), hits_);
    registry.add(obs::joinName(prefix, "misses"), misses_);
    registry.add(obs::joinName(prefix, "inserts"), inserts_);
    registry.add(obs::joinName(prefix, "evictions"), evictions_);
    registry.add(obs::joinName(prefix, "rejects"), rejects_);
    registry.add(obs::joinName(prefix, "overflow_blocks"),
                 overflowBlocks_);
    registry.add(obs::joinName(prefix, "flushes"), flushes_);
    registry.add(obs::joinName(prefix, "flushed_entries"),
                 flushedEntries_);
}

std::vector<Dtb::FlushedEntry>
Dtb::flush(uint64_t now)
{
    std::vector<FlushedEntry> victims;
    for (Entry &e : entries_) {
        if (!e.meta.valid)
            continue;
        FlushedEntry v;
        v.tag = e.meta.tag;
        v.asid = e.meta.asid;
        if (now > e.meta.insertCycle)
            v.residency = now - e.meta.insertCycle;
        v.uses = e.meta.useCount;
        v.anchoredTrace = e.meta.anchorsTrace;
        victims.push_back(v);
        evict(e);
        ++flushedEntries_;
    }
    ++flushes_;
    return victims;
}

std::vector<uint64_t>
Dtb::residentResidencies(uint64_t now, int64_t asid_filter) const
{
    std::vector<uint64_t> residencies;
    for (const Entry &e : entries_) {
        if (!e.meta.valid)
            continue;
        if (asid_filter >= 0 &&
            e.meta.asid != static_cast<uint32_t>(asid_filter))
            continue;
        residencies.push_back(
            now > e.meta.insertCycle ? now - e.meta.insertCycle : 0);
    }
    return residencies;
}

void
Dtb::resetStats()
{
    hits_.reset();
    misses_.reset();
    inserts_.reset();
    evictions_.reset();
    rejects_.reset();
    overflowBlocks_.reset();
    flushes_.reset();
    flushedEntries_.reset();
    // Per-entry observability state restarts with the epoch: a
    // residency or use figure measured after the reset must not carry
    // lifetime from before it. Behavioral state (the translation, the
    // backedge counter, the anchor flag) is untouched.
    for (Entry &e : entries_) {
        if (e.meta.valid) {
            e.meta.useCount = 0;
            e.meta.insertCycle = 0;
        }
    }
}

void
Dtb::evict(Entry &entry)
{
    if (entry.meta.valid && entry.meta.units > 1)
        overflowFree_ += entry.meta.units - 1;
    entry.meta.reset();
    entry.code.clear();
}

void
Dtb::invalidateAll()
{
    for (Entry &e : entries_)
        evict(e);
}

} // namespace uhm
