/**
 * @file
 * Simulated device address space. Every array the algorithms touch
 * (CSR arrays, frontiers, bitmasks, the SCU hash table) is given a
 * region here, so the timing model sees the true addresses and the
 * true layout-induced locality.
 */

#ifndef SCUSIM_MEM_ADDRESS_SPACE_HH
#define SCUSIM_MEM_ADDRESS_SPACE_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "sim/check.hh"

namespace scusim::mem
{

/** A named, contiguous allocation in the simulated address space. */
struct Region
{
    std::string name;
    Addr base = 0;
    std::uint64_t bytes = 0;

    Addr end() const { return base + bytes; }

    bool
    contains(Addr a) const
    {
        return a >= base && a < end();
    }
};

/**
 * Bump allocator over a 4 GB device memory, mirroring the boards the
 * paper models. Allocations are line-aligned so distinct arrays never
 * share a cache line (as cudaMalloc guarantees in practice).
 */
class AddressSpace
{
  public:
    explicit AddressSpace(std::uint64_t capacity_bytes = 4ULL << 30,
                          unsigned line_bytes = 128)
        : capacity(capacity_bytes), lineBytes(line_bytes)
    {
        panic_if(!isPowerOf2(line_bytes), "line size must be 2^n");
    }

    /** Allocate @p bytes under @p name; returns the base address. */
    Addr
    alloc(const std::string &name, std::uint64_t bytes)
    {
        Addr base = alignUp(cursor, lineBytes);
        fatal_if(base + bytes > capacity,
                 "simulated device memory exhausted allocating "
                 "'%s' (%llu bytes)", name.c_str(),
                 static_cast<unsigned long long>(bytes));
        cursor = base + bytes;
        regions.push_back(Region{name, base, bytes});
        return base;
    }

    /** Free everything allocated after (and including) @p watermark. */
    void
    releaseTo(Addr watermark)
    {
        while (!regions.empty() && regions.back().base >= watermark)
            regions.pop_back();
        cursor = watermark;
    }

    Addr watermark() const { return cursor; }
    std::uint64_t bytesAllocated() const { return cursor; }

    /** Region containing @p a, or nullptr. Linear scan (debug aid). */
    const Region *
    find(Addr a) const
    {
        for (const auto &r : regions) {
            if (r.contains(a))
                return &r;
        }
        return nullptr;
    }

    const std::vector<Region> &allRegions() const { return regions; }
    unsigned lineSize() const { return lineBytes; }

  private:
    std::uint64_t capacity;
    unsigned lineBytes;
    Addr cursor = lineBytes; // keep address 0 unused
    std::vector<Region> regions;
};

/**
 * Map @p bytes (> 0) of private anonymous memory. The kernel hands
 * out its pages zeroed on first touch, so an untouched page costs
 * address space only. Throws std::bad_alloc if the mapping fails.
 */
void *mapZeroedPages(std::size_t bytes);

/** Release a mapping made by mapZeroedPages(). */
void unmapPages(void *p, std::size_t bytes);

/**
 * Functional data of one simulated region: the values live in host
 * memory while timing uses the simulated addresses. Each non-empty
 * array owns one anonymous mapping, so its elements read as zero
 * (T{}) until written, and only the pages a run writes become
 * resident; worst-case capacities cost address space, not memory.
 */
template <typename T>
class DeviceArray
{
    static_assert(std::is_arithmetic_v<T>,
                  "a zero page must read as T{}");

  public:
    DeviceArray() = default;

    DeviceArray(AddressSpace &as, const std::string &name,
                std::size_t n)
    {
        allocate(as, name, n);
    }

    DeviceArray(DeviceArray &&other) noexcept
        : data_(std::exchange(other.data_, nullptr)),
          size_(std::exchange(other.size_, 0)),
          base_(std::exchange(other.base_, 0))
    {
    }

    DeviceArray &
    operator=(DeviceArray &&other) noexcept
    {
        if (this != &other) {
            release();
            data_ = std::exchange(other.data_, nullptr);
            size_ = std::exchange(other.size_, 0);
            base_ = std::exchange(other.base_, 0);
        }
        return *this;
    }

    DeviceArray(const DeviceArray &) = delete;
    DeviceArray &operator=(const DeviceArray &) = delete;

    ~DeviceArray() { release(); }

    /** Replace the contents with @p n zeroes in a new region. */
    void
    allocate(AddressSpace &as, const std::string &name, std::size_t n)
    {
        release();
        base_ = as.alloc(name, n * sizeof(T));
        if (n > 0)
            data_ = static_cast<T *>(mapZeroedPages(n * sizeof(T)));
        size_ = n;
    }

    T &
    operator[](std::size_t i)
    {
        sim_check(i < size_, "device array index %zu out of range "
                  "(size %zu)", i, size_);
        return data_[i];
    }

    const T &
    operator[](std::size_t i) const
    {
        sim_check(i < size_, "device array index %zu out of range "
                  "(size %zu)", i, size_);
        return data_[i];
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Simulated address of element @p i. */
    Addr
    addrOf(std::size_t i) const
    {
        return base_ + i * sizeof(T);
    }

    Addr base() const { return base_; }

    std::span<T> host() { return {data_, size_}; }
    std::span<const T> host() const { return {data_, size_}; }

  private:
    void
    release()
    {
        if (data_)
            unmapPages(data_, size_ * sizeof(T));
        data_ = nullptr;
        size_ = 0;
    }

    T *data_ = nullptr;
    std::size_t size_ = 0;
    Addr base_ = 0;
};

} // namespace scusim::mem

#endif // SCUSIM_MEM_ADDRESS_SPACE_HH
