#include "mem/dram.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/logging.hh"
#include "sim/check.hh"

namespace scusim::mem
{

DramParams
DramParams::gddr5()
{
    DramParams p;
    p.name = "GDDR5";
    p.channels = 8;
    p.banksPerChannel = 16;
    p.rowBytes = 2048;
    p.peakBytesPerSec = 224e9;
    p.tCasNs = 14.0;
    p.tRcdNs = 14.0;
    p.tRpNs = 14.0;
    p.ioNs = 6.0;
    return p;
}

DramParams
DramParams::lpddr4()
{
    DramParams p;
    p.name = "LPDDR4";
    p.channels = 2;
    p.banksPerChannel = 8;
    p.rowBytes = 2048;
    p.peakBytesPerSec = 25.6e9;
    p.tCasNs = 28.0;
    p.tRcdNs = 28.0;
    p.tRpNs = 28.0;
    p.ioNs = 20.0;
    return p;
}

Dram::Dram(const DramParams &params, const sim::ClockDomain &clock,
           stats::StatGroup *parent)
    : p(params),
      tCas(clock.fromNs(p.tCasNs)),
      tRcd(clock.fromNs(p.tRcdNs)),
      tRp(clock.fromNs(p.tRpNs)),
      tIo(clock.fromNs(p.ioNs)),
      busCyclesPerLine(std::max<Tick>(1,
          clock.cyclesForBytes(p.lineBytes,
                               p.peakBytesPerSec / p.channels))),
      lineShift(floorLog2(p.lineBytes)),
      channelShift(floorLog2(p.channels)),
      rowShift(floorLog2(p.rowBytes)),
      bankShift(floorLog2(p.banksPerChannel)),
      chans(p.channels),
      grp("dram", parent),
      reads(&grp, "reads", "line reads serviced"),
      writes(&grp, "writes", "line writes serviced"),
      rowHits(&grp, "row_hits", "row-buffer hits"),
      rowMisses(&grp, "row_misses", "row-buffer misses (activates)"),
      busBusyCycles(&grp, "bus_busy_cycles",
                    "aggregate channel data-bus busy cycles"),
      movedBytes(&grp, "bytes_moved", "bytes moved on the pins")
{
    // The address map and the sectored bus scaling use shifts and
    // masks, so the geometry must be a power of two throughout.
    panic_if(!isPowerOf2(p.lineBytes), "%s: line size must be 2^n",
             p.name.c_str());
    panic_if(!isPowerOf2(p.channels), "%s: channel count must be 2^n",
             p.name.c_str());
    panic_if(!isPowerOf2(p.banksPerChannel),
             "%s: bank count must be 2^n", p.name.c_str());
    panic_if(!isPowerOf2(p.rowBytes), "%s: row size must be 2^n",
             p.name.c_str());
    for (auto &c : chans)
        c.banks.resize(p.banksPerChannel);
}

MemResult
Dram::access(Tick issue, Addr addr, AccessKind kind, unsigned bytes)
{
    const unsigned moved = movedBytesOf(bytes);
    const Tick bus_cycles = busCycles(bytes);

    const auto [ci, bi, row] = map(addr);
    Channel &ch = chans[ci];
    Bank &bk = ch.banks[bi];

    const bool row_hit = (bk.openRow == row);

    // CAS latency is a pipeline latency, not occupancy: row-buffer
    // hits stream at burst rate. A row miss keeps the bank busy for
    // the precharge + activate window; activates overlap across
    // banks.
    const Tick ready = std::max(issue, bk.readyAt);
    const Tick access_lat = row_hit ? tCas : (tRp + tRcd + tCas);
    const Tick bank_busy =
        row_hit ? bus_cycles : (tRp + tRcd + bus_cycles);
    Tick data_start = std::max(ready + access_lat, ch.busFree);
    ch.busFree = data_start + bus_cycles;
    bk.readyAt = ready + bank_busy;
    bk.openRow = row;

    busBusyCycles += static_cast<double>(bus_cycles);
    movedBytes += static_cast<double>(moved);
    if (row_hit)
        ++rowHits;
    else
        ++rowMisses;

    MemResult res;
    res.hit = false;
    if (kind == AccessKind::Write ||
        kind == AccessKind::WriteNoAlloc) {
        ++writes;
        // Posted: the writer does not wait for the array access.
        res.complete = issue + 1;
    } else {
        ++reads;
        res.complete = data_start + bus_cycles + tIo;
    }
    sim::checkMemCompletion(p.name.c_str(), issue, res.complete);
    return res;
}

} // namespace scusim::mem
