/**
 * @file
 * DRAM timing and activity model in the spirit of DRAMSim2: channel
 * data buses with peak-bandwidth-accurate occupancy, per-bank row
 * buffers with activate/precharge penalties, and per-event activity
 * counters the energy model converts into joules (Micron-style).
 */

#ifndef SCUSIM_MEM_DRAM_HH
#define SCUSIM_MEM_DRAM_HH

#include <algorithm>
#include <string>
#include <vector>

#include "common/types.hh"
#include "mem/request.hh"
#include "sim/clock.hh"
#include "stats/stats.hh"

namespace scusim::mem
{

/** Timing/organization parameters of a DRAM device. */
struct DramParams
{
    std::string name = "GDDR5";
    unsigned channels = 8;          ///< independent channels
    unsigned banksPerChannel = 16;  ///< banks per channel
    unsigned rowBytes = 2048;       ///< row-buffer size
    unsigned lineBytes = 128;       ///< transfer granule (L2 line)
    double peakBytesPerSec = 224e9; ///< aggregate peak bandwidth
    double tCasNs = 14.0;           ///< column access (row hit)
    double tRcdNs = 14.0;           ///< activate-to-column
    double tRpNs = 14.0;            ///< precharge
    double ioNs = 6.0;              ///< pin/PHY crossing per access

    /** GTX980-class 4 GB GDDR5 @ 224 GB/s (Table 3). */
    static DramParams gddr5();
    /** TX1-class 4 GB LPDDR4 @ 25.6 GB/s (Table 4). */
    static DramParams lpddr4();
};

/**
 * The DRAM model. Implements MemLevel; every access is a full line
 * transfer. Thread-unsafe by design — the simulation is single
 * threaded.
 */
class Dram : public MemLevel
{
  public:
    Dram(const DramParams &params, const sim::ClockDomain &clock,
         stats::StatGroup *parent);

    MemResult access(Tick issue, Addr addr, AccessKind kind,
                     unsigned bytes) override;

    const DramParams &params() const { return p; }

    /** Channel, bank and row an address maps to. */
    struct Coord
    {
        unsigned channel;
        unsigned bank;
        std::uint64_t row;
    };

    /**
     * Line-interleave across channels for streaming bandwidth, then
     * row-granular interleave across banks so sequential streams get
     * long row hits and bank-level parallelism.
     */
    Coord
    map(Addr addr) const
    {
        const std::uint64_t line = addr >> lineShift;
        const std::uint64_t row_global =
            ((line >> channelShift) << lineShift) >> rowShift;
        return {static_cast<unsigned>(line & (p.channels - 1)),
                static_cast<unsigned>(row_global &
                                      (p.banksPerChannel - 1)),
                row_global >> bankShift};
    }

    /**
     * Bus cycles of a sectored transfer: occupancy is proportional
     * to the bytes moved (GPU L2s fetch 32 B sectors; the hash fills
     * only its set), at least one cycle.
     */
    Tick
    busCycles(unsigned bytes) const
    {
        return std::max<Tick>(1, (busCyclesPerLine * movedBytesOf(bytes))
                                     >> lineShift);
    }

    /** Total bytes moved on the pins (reads + writes). */
    double bytesMoved() const { return movedBytes.value(); }

    /** Row-buffer hit rate over all accesses. */
    double
    rowHitRate() const
    {
        double total = rowHits.value() + rowMisses.value();
        return total > 0 ? rowHits.value() / total : 0;
    }

    /** Activity counts consumed by the energy model. */
    double numActivates() const { return rowMisses.value(); }
    double numReads() const { return reads.value(); }
    double numWrites() const { return writes.value(); }

  private:
    struct Bank
    {
        std::uint64_t openRow = static_cast<std::uint64_t>(-1);
        Tick readyAt = 0;
    };

    struct Channel
    {
        Tick busFree = 0;
        std::vector<Bank> banks;
    };

    /** Bytes a transfer of @p bytes moves: 32 B up to one line. */
    unsigned
    movedBytesOf(unsigned bytes) const
    {
        return std::min(std::max(bytes, 32u), p.lineBytes);
    }

    DramParams p;
    Tick tCas, tRcd, tRp, tIo;
    Tick busCyclesPerLine;
    /** log2 of the power-of-two geometry, fixed at construction. */
    unsigned lineShift, channelShift, rowShift, bankShift;
    std::vector<Channel> chans;

    stats::StatGroup grp;
    stats::Scalar reads, writes, rowHits, rowMisses;
    stats::Scalar busBusyCycles;
    stats::Scalar movedBytes;
};

} // namespace scusim::mem

#endif // SCUSIM_MEM_DRAM_HH
