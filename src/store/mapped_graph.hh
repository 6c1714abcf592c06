/**
 * @file
 * MappedGraph: opens a `.scug` store file and exposes it as a
 * zero-copy CsrGraph view. The three page-aligned sections are
 * mmap'd read-only and adopted directly into CsrGraph::viewing — N
 * processes mapping the same file share one physical copy through
 * the page cache. Where mmap is unavailable (or explicitly declined)
 * the loader degrades gracefully to a private heap copy with the
 * same validation; results are byte-identical either way.
 *
 * Out-of-core mode: when a resident-budget is set (the
 * SCUSIM_STORE_BUDGET environment variable, parsed by
 * store/store.hh), the mapping stays fully *addressable* — virtual
 * address space is free on 64-bit — but a RowPager slides a
 * budget-sized residency window across the edge/weight sections as
 * the CSR scans of the runner touch rows: pages ahead of the scan
 * are prefetched (madvise WILLNEED + SEQUENTIAL lookahead), pages
 * behind it are dropped (madvise DONTNEED), so a graph larger than
 * RAM traverses with the process's resident set bounded by the
 * budget. The pager never changes what an accessor returns — paged
 * and in-memory traversals are byte-identical by construction.
 */

#ifndef SCUSIM_STORE_MAPPED_GRAPH_HH
#define SCUSIM_STORE_MAPPED_GRAPH_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "graph/csr.hh"
#include "store/format.hh"

namespace scusim::store
{

/** How a MappedGraph gets its bytes. */
enum class MapMode
{
    Mmap,     ///< sections mmap'd read-only, zero copy
    HeapCopy, ///< private heap copy (mmap unavailable/declined)
};

/** Options for opening a store file. */
struct OpenOptions
{
    /**
     * Resident-set budget in bytes for the edge + weight sections;
     * 0 = no windowing (the kernel manages residency). Non-zero
     * enables the out-of-core windowed pager (mmap mode only).
     */
    std::uint64_t budgetBytes = 0;
    /** Skip the (one sequential read) fingerprint verification. */
    bool verifyFingerprint = true;
    /** Force the heap-copy path even where mmap works. */
    bool forceCopy = false;
};

/** Residency-window telemetry of the out-of-core pager. */
struct WindowStats
{
    std::uint64_t advances = 0;     ///< window slides performed
    std::uint64_t prefetchedBytes = 0;
    std::uint64_t droppedBytes = 0; ///< madvise(DONTNEED) volume
    std::uint64_t windowBytes = 0;  ///< configured budget
};

/**
 * An open store file. Owns the mapping (or the heap copy) and the
 * CsrGraph view into it; keep it alive as long as any copy of
 * graph() is in use.
 */
class MappedGraph
{
  public:
    ~MappedGraph();

    MappedGraph(const MappedGraph &) = delete;
    MappedGraph &operator=(const MappedGraph &) = delete;

    /**
     * Open @p path. Returns null with a reason in @p err on any
     * failure: missing file, bad magic/schema, truncation,
     * fingerprint mismatch. Never throws, never panics — a damaged
     * store must degrade its caller to the non-store path.
     */
    static std::unique_ptr<MappedGraph>
    open(const std::string &path, const OpenOptions &opts = {},
         std::string *err = nullptr);

    /** The zero-copy (or heap-copy) view; aliases this mapping. */
    const graph::CsrGraph &graph() const { return view; }

    const ScugHeader &header() const { return hdr; }
    std::uint64_t fingerprint() const { return hdr.fingerprint; }
    const std::string &path() const { return filePath; }
    MapMode mode() const { return mapMode; }
    bool windowed() const { return pager != nullptr; }

    /** Snapshot of the pager's telemetry (zeros when !windowed()). */
    WindowStats windowStats() const;

  private:
    MappedGraph() = default;

    /**
     * The out-of-core residency window. noteRow is called from
     * CsrGraph accessors on every row hand-out, possibly from many
     * executor threads at once: the in-window fast path is two
     * relaxed atomic loads, the slide path serializes on a mutex.
     */
    class WindowPager final : public graph::RowPager
    {
      public:
        WindowPager(const MappedGraph &owner,
                    std::uint64_t budgetBytes);
        void noteRow(EdgeId begin, EdgeId end) override;
        WindowStats stats() const;

      private:
        void advanceTo(EdgeId firstEdge, EdgeId lastEdge);

        const MappedGraph &mg;
        std::uint64_t budget;    ///< bytes across both sections
        std::uint64_t edgeSpan;  ///< edges a window covers
        std::atomic<EdgeId> winLo{0};
        std::atomic<EdgeId> winHi{0};
        std::mutex slideMutex;
        std::atomic<std::uint64_t> advances{0};
        std::atomic<std::uint64_t> prefetched{0};
        std::atomic<std::uint64_t> dropped{0};
    };

    std::string filePath;
    ScugHeader hdr;
    MapMode mapMode = MapMode::HeapCopy;

    // Mmap mode: one mapping of the whole file.
    void *mapBase = nullptr;
    std::uint64_t mapBytes = 0;

    // Heap-copy mode: decoded private arrays.
    std::vector<EdgeId> heapOffsets;
    std::vector<NodeId> heapDst;
    std::vector<Weight> heapW;

    std::unique_ptr<WindowPager> pager;
    graph::CsrGraph view;
};

/**
 * Parse only the header of @p path (no mapping, no fingerprint
 * verification): the cheap identity probe behind `scug info`, which
 * reports a file's schema, shape and fingerprint without mapping it.
 */
bool readStoreHeader(const std::string &path, ScugHeader &h,
                     std::string *err = nullptr);

} // namespace scusim::store

#endif // SCUSIM_STORE_MAPPED_GRAPH_HH
