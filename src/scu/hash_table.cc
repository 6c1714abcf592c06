#include "scu/hash_table.hh"

#include "common/logging.hh"
#include "sim/check.hh"

namespace scusim::scu
{

HashTableBase::HashTableBase(const HashConfig &config,
                             mem::AddressSpace &as,
                             const std::string &name)
    : cfg(config), sets(config.numSets()),
      base(as.alloc(name, config.sizeBytes)), occ(sets, 0),
      waysMask(maskLow(config.ways))
{
    panic_if(sets == 0, "hash table '%s' has zero sets",
             name.c_str());
    panic_if(cfg.ways > 64,
             "hash table '%s' has %u ways; occupancy words hold 64",
             name.c_str(), cfg.ways);
}

UniqueFilterTable::UniqueFilterTable(const HashConfig &cfg,
                                     mem::AddressSpace &as,
                                     const std::string &name)
    : HashTableBase(cfg, as, name),
      entries(sets * cfg.ways, emptyKey)
{
}

bool
UniqueFilterTable::probe(std::uint32_t key, ProbeTraffic &traffic)
{
    const std::uint64_t s = setOf(key);
    traffic.setAddr = setAddr(s);
    auto *way0 = &entries[s * cfg.ways];

    // Match only the occupied ways (ctz walks them in the same
    // ascending order the full-width scan used to).
    for (std::uint64_t m = occ[s]; m; m &= m - 1) {
        if (way0[ctz64(m)] == key) {
            // Duplicate found: discard the element, no update.
            traffic.wrote = false;
            return false;
        }
    }
    const std::uint64_t empties = ~occ[s] & waysMask;
    const unsigned victim =
        empties ? ctz64(empties) : victimWay(key);
    // Empty way, or a collision: overwrite a victim. Future
    // duplicates of an evicted element become false negatives —
    // accepted trade-off.
    way0[victim] = key;
    markOccupied(s, victim);
    traffic.wrote = true;
    return true;
}

BestCostFilterTable::BestCostFilterTable(const HashConfig &cfg,
                                         mem::AddressSpace &as,
                                         const std::string &name)
    : HashTableBase(cfg, as, name), entries(sets * cfg.ways)
{
}

bool
BestCostFilterTable::probe(std::uint32_t key, std::uint32_t cost,
                           ProbeTraffic &traffic)
{
    const std::uint64_t s = setOf(key);
    traffic.setAddr = setAddr(s);
    auto *way0 = &entries[s * cfg.ways];

    for (std::uint64_t m = occ[s]; m; m &= m - 1) {
        const unsigned w = ctz64(m);
        if (way0[w].key == key) {
            if (cost < way0[w].cost) {
                way0[w].cost = cost;
                traffic.wrote = true;
                return true;
            }
            traffic.wrote = false;
            return false; // same element, no better cost
        }
    }
    const std::uint64_t empties = ~occ[s] & waysMask;
    const unsigned victim =
        empties ? ctz64(empties) : victimWay(key);
    way0[victim] = {key, cost};
    markOccupied(s, victim);
    traffic.wrote = true;
    return true;
}

GroupingTable::GroupingTable(const HashConfig &cfg,
                             unsigned group_size,
                             mem::AddressSpace &as,
                             const std::string &name)
    : HashTableBase(cfg, as, name), grpSize(group_size),
      entries(sets * cfg.ways)
{
    for (auto &g : entries)
        g.elems.reserve(grpSize);
}

void
GroupingTable::probe(std::uint64_t line_key, std::uint32_t elem_idx,
                     std::vector<std::uint32_t> &emit_order,
                     ProbeTraffic &traffic)
{
    const std::uint64_t s = setOf(line_key);
    traffic.setAddr = setAddr(s);
    traffic.wrote = true; // grouping always updates its entry
    auto *way0 = &entries[s * cfg.ways];

    for (std::uint64_t m = occ[s]; m; m &= m - 1) {
        Group &g = way0[ctz64(m)];
        if (g.lineKey == line_key) {
            if (g.elems.size() >= grpSize) {
                // Full group: emit it and restart with this element.
                emit_order.insert(emit_order.end(), g.elems.begin(),
                                  g.elems.end());
                g.elems.clear();
            }
            g.elems.push_back(elem_idx);
            sim::checkOccupancy("grouping-table group",
                                g.elems.size(), grpSize);
            return;
        }
    }
    const std::uint64_t empties = ~occ[s] & waysMask;
    if (empties) {
        const unsigned w = ctz64(empties);
        Group &g = way0[w];
        g.lineKey = line_key;
        g.elems.push_back(elem_idx);
        markOccupied(s, w);
        return;
    }
    // Evict a victim group: its members are written out together.
    // The way is immediately reused, so its occupancy bit stands.
    Group &victim = way0[victimWay(line_key)];
    emit_order.insert(emit_order.end(), victim.elems.begin(),
                      victim.elems.end());
    victim.elems.clear();
    victim.lineKey = line_key;
    victim.elems.push_back(elem_idx);
    sim::checkOccupancy("grouping-table group", victim.elems.size(),
                        grpSize);
}

template <typename F>
void
GroupingTable::drain(F &&fn)
{
    for (std::uint64_t s = 0; s < sets; ++s) {
        for (std::uint64_t m = occ[s]; m; m &= m - 1)
            fn(entries[s * cfg.ways + ctz64(m)]);
        occ[s] = 0;
    }
}

void
GroupingTable::flush(std::vector<std::uint32_t> &emit_order)
{
    drain([&](Group &g) {
        emit_order.insert(emit_order.end(), g.elems.begin(),
                          g.elems.end());
        g.elems.clear();
    });
}

void
GroupingTable::reset()
{
    drain([](Group &g) { g.elems.clear(); });
}

} // namespace scusim::scu
