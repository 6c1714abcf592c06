/**
 * @file
 * 64-bit FNV-1a, the one content hash of the simulator: partition
 * fingerprints and the golden stats-dump digests both fold their
 * bytes through it.
 */

#ifndef SCUSIM_COMMON_HASH_HH
#define SCUSIM_COMMON_HASH_HH

#include <cstddef>
#include <cstdint>

namespace scusim
{

constexpr std::uint64_t fnvOffsetBasis = 0xCBF29CE484222325ull;

/** Fold @p len bytes at @p data into the running hash @p h. */
inline std::uint64_t
fnv1a(const void *data, std::size_t len,
      std::uint64_t h = fnvOffsetBasis)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001B3ull;
    }
    return h;
}

} // namespace scusim

#endif // SCUSIM_COMMON_HASH_HH
