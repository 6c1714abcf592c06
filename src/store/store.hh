/**
 * @file
 * The dataset store registry: where store files live, how big the
 * out-of-core residency window is, and the pack-on-miss entry points
 * the rest of the system goes through.
 *
 *  - SCUSIM_STORE_DIR: directory of `.scug` files; empty/unset
 *    disables the store entirely (every caller falls back to the
 *    in-memory path).
 *  - SCUSIM_STORE_BUDGET: resident-set budget for the edge sections,
 *    e.g. "64k", "16M", "1G" (plain bytes without a suffix). Unset
 *    or 0 = fully mapped, kernel-managed residency.
 *
 * Synthetic datasets are keyed by (name, scale, seed) — the same
 * triple that makes makeDataset deterministic — so the store file is
 * built once ever and mapped read-only by every later process.
 * Graph files (loadGraphFile inputs) are keyed by their path
 * identity (path, size, mtime): the packed container then carries
 * the content fingerprint that finally gives file-backed runs a
 * durable cache identity.
 *
 * A store file that exists but fails to open (torn by a mid-write
 * crash of a non-atomic writer, bit rot, stale schema) is
 * quarantined — renamed to "<name>.corrupt" with a warning — and
 * repacked, mirroring the run-cache policy: damage costs one failed
 * open ever, not a permanent silent fallback.
 */

#ifndef SCUSIM_STORE_STORE_HH
#define SCUSIM_STORE_STORE_HH

#include <cstdint>
#include <memory>
#include <string>

#include "store/mapped_graph.hh"

namespace scusim::store
{

/** SCUSIM_STORE_DIR, or "" when unset/empty (store disabled). */
std::string storeDir();

/** SCUSIM_STORE_BUDGET in bytes, or 0 when unset/unparsable. */
std::uint64_t storeBudget();

/** Parse "4096", "64k", "16M", "1G" into bytes; 0 on bad input. */
std::uint64_t parseByteSize(const std::string &s);

/** The file a (name, scale, seed) dataset lives at under @p dir. */
std::string datasetStorePath(const std::string &dir,
                             const std::string &name, double scale,
                             std::uint64_t seed);

/** The file a packed copy of graph file @p srcPath lives at. */
std::string graphFileStorePath(const std::string &dir,
                               const std::string &srcPath);

/** Store files quarantined (renamed "<name>.corrupt") so far. */
std::uint64_t storeQuarantinedCount();

/**
 * Open the store-backed copy of dataset (name, scale, seed) under
 * storeDir(), synthesizing and packing it first if missing
 * (makeDataset's store-backed path). The returned handle owns the
 * mapping; windowing follows storeBudget(). Null (after a warn) on
 * any failure — callers degrade to the in-memory path.
 */
std::shared_ptr<MappedGraph> openDataset(const std::string &name,
                                         double scale,
                                         std::uint64_t seed);

/**
 * Open the store-backed copy of graph file @p path (any format
 * loadGraphFile accepts), packing it first if missing or stale
 * (loadGraphFile's store-backed path). Null (after a warn) on any
 * failure.
 */
std::shared_ptr<MappedGraph> openGraphFile(const std::string &path,
                                           bool dedup = false);

/**
 * Open an explicit `.scug` file with the configured budget,
 * quarantining and failing (null + warn) on damage. The path
 * `explore --file graph.scug` takes.
 */
std::shared_ptr<MappedGraph> openStoreFile(const std::string &path);

} // namespace scusim::store

#endif // SCUSIM_STORE_STORE_HH
