#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "common/bits.hh"
#include "common/logging.hh"
#include "sim/check.hh"
#include "sim/simulation.hh"

namespace scusim::mem
{

CompletionRing::CompletionRing(std::size_t limit)
    : buf(std::min(kMinSlots, std::bit_ceil(limit))),
      mask(buf.size() - 1), bound(limit)
{
    panic_if(limit == 0, "a completion ring needs a bound of at least 1");
}

void
CompletionRing::push(Tick t)
{
    sim_check(count < bound, "completion ring over its bound of %zu",
              bound);
    if (count == buf.size())
        grow();
    std::size_t i = head + count;
    for (; i != head && buf[(i - 1) & mask] > t; --i)
        buf[i & mask] = buf[(i - 1) & mask];
    buf[i & mask] = t;
    ++count;
}

void
CompletionRing::grow()
{
    // Unwrap into the doubled buffer, head first.
    std::vector<Tick> wider(buf.size() * 2);
    for (std::size_t k = 0; k < count; ++k)
        wider[k] = buf[(head + k) & mask];
    buf.swap(wider);
    mask = buf.size() - 1;
    head = 0;
}

std::size_t
InflightTable::probe(Addr line) const
{
    const std::size_t mask = slots.size() - 1;
    std::size_t i = home(line);
    while (used(slots[i]) && slots[i].line != line)
        i = (i + 1) & mask;
    return i;
}

std::optional<Tick>
InflightTable::find(Addr line) const
{
    const Slot &s = slots[probe(line)];
    if (!used(s))
        return std::nullopt;
    return s.fill();
}

void
InflightTable::set(Addr line, Tick fill)
{
    panic_if(fill >= kTickLimit,
             "in-flight fill tick %llu does not fit the slot's %u bits",
             static_cast<unsigned long long>(fill), 64 - kGenBits);
    std::size_t i = probe(line);
    if (!used(slots[i])) {
        // Load factor stays at or below one half.
        if (2 * (count + 1) > slots.size()) {
            makeRoom();
            i = probe(line);
        }
        slots[i].line = line;
        ++count;
    }
    slots[i].fillGen = fill << kGenBits | gen;
}

void
InflightTable::erase(Addr line)
{
    const std::size_t i = probe(line);
    if (used(slots[i]))
        eraseSlot(i);
}

void
InflightTable::eraseSlot(std::size_t i)
{
    // Backward shift: pull each later entry of the probe run into the
    // hole unless that would put it before its home slot, so lookups
    // never need tombstones.
    const std::size_t mask = slots.size() - 1;
    for (std::size_t j = (i + 1) & mask; used(slots[j]);
         j = (j + 1) & mask) {
        if (((j - home(slots[j].line)) & mask) >= ((j - i) & mask)) {
            slots[i] = slots[j];
            i = j;
        }
    }
    slots[i].fillGen = 0;
    --count;
}

void
InflightTable::eraseUpTo(Tick t)
{
    // An erase may shift a later entry into slot i, so slot i is
    // re-examined until it holds a survivor or nothing. An entry not
    // yet visited only ever shifts into slot i or past it; one that
    // wraps round from the table's start was visited and kept, and is
    // merely examined again.
    for (std::size_t i = 0; i < slots.size() && count;) {
        if (used(slots[i]) && slots[i].fill() <= t)
            eraseSlot(i);
        else
            ++i;
    }
}

void
InflightTable::clear()
{
    count = 0;
    if (++gen > kGenMask) {
        // Generation wrap: forget every stamp before reusing them.
        for (Slot &s : slots)
            s.fillGen = 0;
        gen = 1;
    }
}

void
InflightTable::makeRoom()
{
    if (clock) {
        // No lookup comes before the clock, and a lookup at or after
        // an entry's fill tick ignores it: such entries are dead.
        eraseUpTo(clock->now());
        if (4 * (count + 1) <= slots.size())
            return;
    }
    grow();
}

void
InflightTable::grow()
{
    std::vector<Slot> old(slots.size() * 2);
    old.swap(slots);
    shift -= 1;
    count = 0;
    for (const Slot &s : old) {
        if (used(s)) {
            slots[probe(s.line)] = s;
            ++count;
        }
    }
}

Cache::Cache(const CacheParams &params, MemLevel *downstream,
             stats::StatGroup *parent)
    : p(params), next(downstream), outstanding(p.mshrs),
      grp(p.name, parent),
      hits(&grp, "hits", "accesses serviced by this level"),
      misses(&grp, "misses", "accesses forwarded downstream"),
      writebacks(&grp, "writebacks", "dirty evictions"),
      atomicOps(&grp, "atomics", "read-modify-write operations"),
      mshrStallCycles(&grp, "mshr_stall_cycles",
                      "cycles accesses waited for a free MSHR")
{
    // matchTag() returns a way from a 64-bit mask.
    panic_if(p.ways == 0 || p.ways > 64,
             "cache '%s': %u ways, want 1 to 64", p.name.c_str(), p.ways);
    const std::uint64_t num_sets =
        p.sizeBytes / (static_cast<std::uint64_t>(p.lineBytes) * p.ways);
    panic_if(num_sets == 0, "cache '%s' smaller than one set",
             p.name.c_str());
    panic_if(!isPowerOf2(p.lineBytes), "line size must be 2^n");
    // Set and bank selection are masks, not divisions.
    panic_if(!isPowerOf2(num_sets), "cache '%s': set count %llu must be 2^n",
             p.name.c_str(), static_cast<unsigned long long>(num_sets));
    const unsigned banks = std::max(1u, p.banks);
    panic_if(!isPowerOf2(banks), "cache '%s': bank count %u must be 2^n",
             p.name.c_str(), banks);
    setMask = num_sets - 1;
    lineShift = floorLog2(p.lineBytes);
    rowWays = static_cast<unsigned>(alignUp(p.ways, 4));
    const std::size_t slots = num_sets * rowWays;
    tags.assign(slots, kInvalidTag);
    lines.assign(slots, Line{});
    validBits.assign((slots + 63) / 64, 0);
    bankFree.assign(banks, 0);
    bankMask = banks - 1;
}

Tick
Cache::reserveBank(Tick issue, Addr line_addr, Tick occupancy)
{
    Tick &free_at = bankFree[(line_addr >> lineShift) & bankMask];
    Tick start = std::max(issue, free_at);
    free_at = start + occupancy;
    return start;
}

Tick
Cache::acquireMshr(Tick start)
{
    // Purge already-completed misses.
    outstanding.purgeUpTo(start);
    if (outstanding.size() >= p.mshrs) {
        Tick free_at = outstanding.min();
        outstanding.popMin();
        mshrStallCycles += static_cast<double>(free_at - start);
        start = free_at;
    }
    return start;
}

Cache::Line &
Cache::install(std::size_t w, std::uint32_t tag)
{
    tags[w] = tag;
    validBits[w / 64] |= std::uint64_t{1} << (w % 64);
    Line &l = lines[w];
    l.dirty = false;
    l.mayBeInflight = true;
    l.lastUse = ++lruClock;
    return l;
}

void
Cache::writeBackIfDirty(Tick when, std::size_t w)
{
    // The requester does not wait for a writeback; it only consumes
    // downstream bandwidth.
    if (tags[w] != kInvalidTag && lines[w].dirty) {
        next->access(when, lineAddr(w), AccessKind::Write, p.lineBytes);
        ++writebacks;
    }
}

Cache::Fill
Cache::fill(Tick start, Addr line_addr, std::size_t set,
            std::uint32_t tag, unsigned bytes)
{
    // Victim selection: LRU among the ways; lines in the protected
    // (way-locked) region are only victimized by protected fills.
    const bool filler_protected = isProtected(line_addr);
    std::size_t victim = 0;
    bool found = false;
    for (std::size_t w = set; w < set + p.ways; ++w) {
        if (tags[w] == kInvalidTag) {
            victim = w;
            found = true;
            break;
        }
        if (!filler_protected && isProtected(lineAddr(w)))
            continue;
        if (!found || lines[w].lastUse < lines[victim].lastUse) {
            victim = w;
            found = true;
        }
    }
    if (!found) {
        // Every way is pinned: service downstream without
        // allocating.
        MemResult down = next->access(start, line_addr,
                                      AccessKind::Read, p.lineBytes);
        sim::checkMemCompletion("cache downstream", start,
                                down.complete);
        outstanding.push(down.complete);
        return {down.complete, nullptr};
    }
    writeBackIfDirty(start, victim);

    MemResult down = next->access(start, line_addr, AccessKind::Read,
                                  bytes);
    sim::checkMemCompletion("cache downstream", start, down.complete);
    Line &l = install(victim, tag);

    Tick done = down.complete;
    outstanding.push(done);
    inflight.set(line_addr, done);
    return {done, &l};
}

MemResult
Cache::access(Tick issue, Addr addr, AccessKind kind, unsigned bytes)
{
    (void)bytes;
    sim_check(!clock || issue >= clock->now(),
              "%s: access issued at tick %llu, before the clock's %llu",
              p.name.c_str(), static_cast<unsigned long long>(issue),
              static_cast<unsigned long long>(clock->now()));
    const Addr line_addr = alignDown(addr, p.lineBytes);
    const Addr line_num = line_addr >> lineShift;
    panic_if(line_num >= kInvalidTag,
             "cache '%s': line %#llx's tag does not fit 32 bits",
             p.name.c_str(), static_cast<unsigned long long>(line_num));
    const auto tag = static_cast<std::uint32_t>(line_num);
    const std::size_t set = setBase(line_addr);

    Tick occupancy = p.bankCycle +
        (kind == AccessKind::Atomic ? p.atomicExtra : 0);
    Tick start = reserveBank(issue, line_addr, occupancy);

    // Keep the in-flight merge table from growing without bound.
    if (++accessesSincePurge >= 8192) {
        accessesSincePurge = 0;
        inflight.eraseUpTo(issue);
    }

    if (kind == AccessKind::Atomic)
        ++atomicOps;

    const bool is_write = kind == AccessKind::Write ||
                          kind == AccessKind::WriteNoAlloc;
    const bool is_read = kind == AccessKind::Read ||
                         kind == AccessKind::ReadNoAlloc;

    // Tag lookup.
    if (const unsigned w = matchTag(tags.data() + set, rowWays, tag);
        w < rowWays) {
        Line &l = lines[set + w];
        l.lastUse = ++lruClock;
        if (!is_read)
            l.dirty = true;
        ++hits;
        MemResult r;
        r.hit = true;
        // A hit on a line whose fill is still in flight waits for
        // the fill (secondary miss merged into the MSHR).
        Tick avail = start + p.hitLatency;
        if (l.mayBeInflight) {
            const std::optional<Tick> fill_tick = inflight.find(line_addr);
            if (fill_tick && *fill_tick > start) {
                avail = std::max(avail, *fill_tick);
            } else {
                if (fill_tick)
                    inflight.erase(line_addr);
                l.mayBeInflight = false;
            }
        }
        r.complete = is_write ? start + 1 : avail;
        return r;
    }

    // Miss.
    ++misses;

    if (kind == AccessKind::WriteNoAlloc) {
        // Streaming store: forward downstream, keep the cache clean.
        next->access(start, line_addr, AccessKind::WriteNoAlloc,
                     p.lineBytes);
        MemResult wr;
        wr.hit = false;
        wr.complete = start + 1;
        return wr;
    }

    if (kind == AccessKind::ReadNoAlloc) {
        // Streaming load: no allocation — the requester tolerates
        // the full downstream latency (deep request FIFOs).
        start = acquireMshr(start);
        MemResult down = next->access(start, line_addr,
                                      AccessKind::ReadNoAlloc,
                                      p.lineBytes);
        outstanding.push(down.complete);
        MemResult rr;
        rr.hit = false;
        rr.complete = down.complete + p.hitLatency;
        return rr;
    }

    if (kind == AccessKind::Write) {
        // Write-validate: a line-granular store allocates the line
        // without fetching it (GPU L2 behaviour); no read-for-
        // ownership traffic is generated.
        std::size_t victim = set;
        for (std::size_t w = set; w < set + p.ways; ++w) {
            if (tags[w] == kInvalidTag) {
                victim = w;
                break;
            }
            if (lines[w].lastUse < lines[victim].lastUse)
                victim = w;
        }
        writeBackIfDirty(start, victim);
        // An entry from the line's previous stay may still be live,
        // which install() allows for.
        install(victim, tag).dirty = true;
        MemResult wr;
        wr.hit = false;
        wr.complete = start + 1;
        return wr;
    }

    start = acquireMshr(start);
    const Fill f = fill(start, line_addr, set, tag, bytes);

    // Mark dirtiness after the fill installed the line.
    if (!is_read && f.line)
        f.line->dirty = true;

    MemResult r;
    r.hit = false;
    r.complete = is_write ? start + 1 : f.done + p.hitLatency;
    sim::checkMemCompletion(p.name.c_str(), issue, r.complete);
    return r;
}

void
Cache::invalidateAll(Tick now)
{
    for (std::size_t i = 0; i < validBits.size(); ++i) {
        for (std::uint64_t m = validBits[i]; m; m &= m - 1) {
            const std::size_t w = i * 64 + ctz64(m);
            // Timing model only: dirty data is not lost functionally,
            // but the writeback traffic must be accounted.
            writeBackIfDirty(now, w);
            tags[w] = kInvalidTag;
            lines[w] = Line{};
        }
        validBits[i] = 0;
    }
    inflight.clear();
}

} // namespace scusim::mem
