/**
 * @file
 * Persistent cross-process run cache. When SCUSIM_CACHE_DIR is set,
 * the executor stores every completed RunRecord on disk keyed by its
 * canonical run key, so a repeated plan invocation — a re-run of a
 * bench binary, a CI retry, a figure regenerated after an unrelated
 * edit — serves its results from disk instead of simulating again.
 *
 * Format: one small text file per record, named by a 64-bit FNV-1a
 * hash of (schema version, run key). The file stores the full key, so
 * a hash collision reads as a miss rather than a wrong result, and a
 * schema-version constant, so records written by an incompatible
 * build are rejected instead of misparsed. Doubles round-trip as IEEE
 * bit patterns: a cache-served result is bit-identical to the
 * simulated one, which keeps the %.17g JSON/CSV artifacts
 * byte-identical — the CI cache job diffs exactly that.
 *
 * Writes go through a process-unique temp file and std::rename, so
 * concurrent executors never expose a torn record; any read that
 * fails to parse (truncation, corruption, stale schema) is treated
 * as a miss and the run is simply re-simulated. A malformed file is
 * additionally *quarantined* — renamed to "<name>.corrupt" with a
 * warning and a counter bump — so a damaged record costs one failed
 * parse ever instead of silently reading as a miss forever.
 */

#ifndef SCUSIM_HARNESS_RUN_CACHE_HH
#define SCUSIM_HARNESS_RUN_CACHE_HH

#include <cstdint>
#include <string>

#include "harness/executor.hh"

namespace scusim::harness
{

/**
 * Bump whenever the serialized RunRecord layout changes; old cache
 * files are then rejected (miss) instead of misparsed.
 */
constexpr unsigned runCacheSchemaVersion = 5;

/**
 * The cache directory from SCUSIM_CACHE_DIR, or "" when unset /
 * empty (caching disabled).
 */
std::string runCacheDir();

/** The file a record with @p key would live at under @p dir. */
std::string runCachePath(const std::string &dir,
                         const std::string &key);

/**
 * True when @p rec may be stored at all. Graph-backed runs are keyed
 * by a raw pointer, which is meaningless across processes, so they
 * are never written. Failed runs are: every failure kind is
 * deterministic, so a failure replays exactly as it was stored.
 */
bool runCacheStorable(const RunRecord &rec);

/**
 * Cache files quarantined (renamed to "<name>.corrupt") by this
 * process because they existed but failed to parse. A key-mismatch
 * read — a genuine hash collision — is a plain miss, not corruption,
 * and is never quarantined.
 */
std::uint64_t runCacheQuarantinedCount();

/**
 * Load the record for @p key from @p dir. On a hit, fills every
 * outcome field of @p rec (not rec.run) and returns true; any miss,
 * parse failure, schema or key mismatch returns false with @p rec
 * untouched.
 */
bool loadCachedRun(const std::string &dir, const std::string &key,
                   RunRecord &rec);

/**
 * Atomically persist @p rec under @p dir (created if needed).
 * Returns false (after a warn) on I/O failure — a full disk must
 * not fail the plan — and for records runCacheStorable rejects.
 */
bool storeCachedRun(const std::string &dir, const RunRecord &rec);

/** Serialize @p rec's outcome (testing / debugging aid). */
std::string encodeRunRecord(const RunRecord &rec);

/**
 * Parse @p text (as written by encodeRunRecord) into @p rec's
 * outcome fields; @p expectKey guards against hash collisions.
 * Returns false on any malformed input.
 */
bool decodeRunRecord(const std::string &text,
                     const std::string &expectKey, RunRecord &rec);

} // namespace scusim::harness

#endif // SCUSIM_HARNESS_RUN_CACHE_HH
