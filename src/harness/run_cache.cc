#include "harness/run_cache.hh"

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "common/hash.hh"
#include "common/logging.hh"

namespace scusim::harness
{

namespace
{

std::atomic<std::uint64_t> quarantined{0};

/** Why a cache read failed to produce a record. */
enum class DecodeOutcome
{
    Hit,         ///< record parsed and matched the key
    KeyMismatch, ///< well-formed record for a different key/schema
    Malformed,   ///< truncated or corrupt bytes: quarantine material
};

/** FNV-1a over the schema version + key: the cache file name. */
std::uint64_t
keyHash(const std::string &key)
{
    const auto schema = static_cast<unsigned char>(runCacheSchemaVersion);
    return fnv1a(key.data(), key.size(), fnv1a(&schema, 1));
}

/** Length-prefixed string field: "name <len>\n<raw bytes>\n". */
void
putString(std::ostream &os, const char *name, const std::string &s)
{
    os << name << ' ' << s.size() << '\n' << s << '\n';
}

void
putU64(std::ostream &os, const char *name, std::uint64_t v)
{
    os << name << ' ' << v << '\n';
}

/**
 * Doubles as IEEE-754 bit patterns in hex: the loaded value is
 * bit-identical to the stored one, so cache-served artifacts render
 * byte-identically under %.17g.
 */
void
putDouble(std::ostream &os, const char *name, double v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(
                      std::bit_cast<std::uint64_t>(v)));
    os << name << " x" << buf << '\n';
}

/** Line-oriented field reader over the serialized record. */
class FieldReader
{
  public:
    explicit FieldReader(const std::string &text) : is(text) {}

    /** Read "name value\n"; false on EOF or name mismatch. */
    bool
    line(const char *name, std::string &value)
    {
        std::string got;
        if (!(is >> got) || got != name)
            return false;
        if (!(is >> value))
            return false;
        return is.get() == '\n';
    }

    bool
    u64(const char *name, std::uint64_t &v)
    {
        std::string s;
        if (!line(name, s) || s.empty())
            return false;
        char *end = nullptr;
        v = std::strtoull(s.c_str(), &end, 10);
        return end && *end == '\0';
    }

    bool
    dbl(const char *name, double &v)
    {
        std::string s;
        if (!line(name, s) || s.size() != 17 || s[0] != 'x')
            return false;
        char *end = nullptr;
        const std::uint64_t bits =
            std::strtoull(s.c_str() + 1, &end, 16);
        if (!end || *end != '\0')
            return false;
        v = std::bit_cast<double>(bits);
        return true;
    }

    /** Consume one bare token; false unless it equals @p name. */
    bool
    tok(const char *name)
    {
        std::string got;
        return (is >> got) && got == name;
    }

    /** Read a length-prefixed string field (see putString). */
    bool
    str(const char *name, std::string &out)
    {
        std::uint64_t len = 0;
        if (!u64(name, len) || len > (1u << 24))
            return false;
        out.resize(static_cast<std::size_t>(len));
        if (len && !is.read(out.data(),
                            static_cast<std::streamsize>(len)))
            return false;
        return is.get() == '\n';
    }

  private:
    std::istringstream is;
};

} // namespace

std::string
runCacheDir()
{
    const char *d = std::getenv("SCUSIM_CACHE_DIR");
    return d ? std::string(d) : std::string();
}

std::string
runCachePath(const std::string &dir, const std::string &key)
{
    char name[28];
    std::snprintf(name, sizeof name, "%016llx.run",
                  static_cast<unsigned long long>(keyHash(key)));
    return dir + "/" + name;
}

bool
runCacheStorable(const RunRecord &rec)
{
    // A graph-backed run is keyed by a raw pointer, which is
    // meaningless in another process.
    return !rec.run.graph;
}

std::uint64_t
runCacheQuarantinedCount()
{
    return quarantined.load(std::memory_order_relaxed);
}

std::string
encodeRunRecord(const RunRecord &rec)
{
    std::ostringstream os;
    os << "scusim-run-cache " << runCacheSchemaVersion << '\n';
    putString(os, "key", rec.run.key);
    putU64(os, "ok", rec.ok ? 1 : 0);
    putU64(os, "hasFailure", rec.failure.has_value() ? 1 : 0);
    putU64(os, "failure",
           rec.failure
               ? static_cast<std::uint64_t>(*rec.failure)
               : 0);
    putString(os, "error", rec.error);
    putString(os, "diagnostics", rec.diagnostics);
    const RunResult &r = rec.result;
    putU64(os, "totalCycles", r.totalCycles);
    putDouble(os, "seconds", r.seconds);
    putDouble(os, "gpuDynamicJ", r.energy.gpuDynamicJ);
    putDouble(os, "gpuStaticJ", r.energy.gpuStaticJ);
    putDouble(os, "memDynamicGpuJ", r.energy.memDynamicGpuJ);
    putDouble(os, "memDynamicScuJ", r.energy.memDynamicScuJ);
    putDouble(os, "memStaticJ", r.energy.memStaticJ);
    putDouble(os, "scuDynamicJ", r.energy.scuDynamicJ);
    putDouble(os, "scuStaticJ", r.energy.scuStaticJ);
    putU64(os, "gpuCompactionCycles", r.gpuCompactionCycles);
    putU64(os, "gpuProcessingCycles", r.gpuProcessingCycles);
    putU64(os, "scuBusyCycles", r.scuBusyCycles);
    putDouble(os, "gpuThreadInstrs", r.gpuThreadInstrs);
    putDouble(os, "coalescingEfficiency", r.coalescingEfficiency);
    putDouble(os, "txnsPerMemInstr", r.txnsPerMemInstr);
    putDouble(os, "bwUtilization", r.bwUtilization);
    putDouble(os, "l2HitRate", r.l2HitRate);
    putDouble(os, "dramLines", r.dramLines);
    putU64(os, "iterations", r.algMetrics.iterations);
    putU64(os, "gpuEdgeWork", r.algMetrics.gpuEdgeWork);
    putU64(os, "rawExpanded", r.algMetrics.rawExpanded);
    putU64(os, "scuFiltered", r.algMetrics.scuFiltered);
    putU64(os, "deviceCount", r.deviceCount);
    putU64(os, "icnMessages", r.icnMessages);
    putU64(os, "icnBytes", r.icnBytes);
    putU64(os, "numDeviceSlices", r.devices.size());
    for (const DeviceMetrics &dm : r.devices) {
        putU64(os, "devGpuEdgeWork", dm.gpuEdgeWork);
        putU64(os, "devRawExpanded", dm.rawExpanded);
        putU64(os, "devScuFiltered", dm.scuFiltered);
        putU64(os, "devIterations", dm.iterations);
        putU64(os, "devScuBusyCycles", dm.scuBusyCycles);
    }
    putU64(os, "validated", r.validated ? 1 : 0);
    os << "end\n";
    return os.str();
}

namespace
{

/**
 * decodeRunRecord with the failure reason: a well-formed record for
 * another key (hash collision) or schema is a plain miss, anything
 * else that fails to parse is corruption the caller may quarantine.
 */
DecodeOutcome
decodeRunRecordDetail(const std::string &text,
                      const std::string &expectKey, RunRecord &rec)
{
    FieldReader in(text);
    std::string version;
    if (!in.line("scusim-run-cache", version))
        return DecodeOutcome::Malformed;
    if (version != std::to_string(runCacheSchemaVersion))
        return DecodeOutcome::KeyMismatch;

    // Parse into a scratch record first so a truncated file cannot
    // leave @p rec half-filled.
    RunRecord tmp;
    std::string key;
    std::uint64_t u = 0;
    if (!in.str("key", key))
        return DecodeOutcome::Malformed;
    if (key != expectKey)
        return DecodeOutcome::KeyMismatch;
    if (!in.u64("ok", u) || u > 1)
        return DecodeOutcome::Malformed;
    tmp.ok = u != 0;
    std::uint64_t hasFailure = 0;
    if (!in.u64("hasFailure", hasFailure) || hasFailure > 1)
        return DecodeOutcome::Malformed;
    if (!in.u64("failure", u) ||
        u > static_cast<std::uint64_t>(FailureKind::Runaway))
        return DecodeOutcome::Malformed;
    if (hasFailure)
        tmp.failure = static_cast<FailureKind>(u);
    if (!in.str("error", tmp.error) ||
        !in.str("diagnostics", tmp.diagnostics))
        return DecodeOutcome::Malformed;
    RunResult &r = tmp.result;
    if (!in.u64("totalCycles", r.totalCycles) ||
        !in.dbl("seconds", r.seconds) ||
        !in.dbl("gpuDynamicJ", r.energy.gpuDynamicJ) ||
        !in.dbl("gpuStaticJ", r.energy.gpuStaticJ) ||
        !in.dbl("memDynamicGpuJ", r.energy.memDynamicGpuJ) ||
        !in.dbl("memDynamicScuJ", r.energy.memDynamicScuJ) ||
        !in.dbl("memStaticJ", r.energy.memStaticJ) ||
        !in.dbl("scuDynamicJ", r.energy.scuDynamicJ) ||
        !in.dbl("scuStaticJ", r.energy.scuStaticJ) ||
        !in.u64("gpuCompactionCycles", r.gpuCompactionCycles) ||
        !in.u64("gpuProcessingCycles", r.gpuProcessingCycles) ||
        !in.u64("scuBusyCycles", r.scuBusyCycles) ||
        !in.dbl("gpuThreadInstrs", r.gpuThreadInstrs) ||
        !in.dbl("coalescingEfficiency", r.coalescingEfficiency) ||
        !in.dbl("txnsPerMemInstr", r.txnsPerMemInstr) ||
        !in.dbl("bwUtilization", r.bwUtilization) ||
        !in.dbl("l2HitRate", r.l2HitRate) ||
        !in.dbl("dramLines", r.dramLines))
        return DecodeOutcome::Malformed;
    if (!in.u64("iterations", u))
        return DecodeOutcome::Malformed;
    r.algMetrics.iterations = static_cast<unsigned>(u);
    if (!in.u64("gpuEdgeWork", r.algMetrics.gpuEdgeWork) ||
        !in.u64("rawExpanded", r.algMetrics.rawExpanded) ||
        !in.u64("scuFiltered", r.algMetrics.scuFiltered))
        return DecodeOutcome::Malformed;
    if (!in.u64("deviceCount", u) || u == 0 || u > 1024)
        return DecodeOutcome::Malformed;
    r.deviceCount = static_cast<unsigned>(u);
    if (!in.u64("icnMessages", r.icnMessages) ||
        !in.u64("icnBytes", r.icnBytes))
        return DecodeOutcome::Malformed;
    std::uint64_t numSlices = 0;
    if (!in.u64("numDeviceSlices", numSlices) || numSlices > 1024)
        return DecodeOutcome::Malformed;
    r.devices.resize(static_cast<std::size_t>(numSlices));
    for (DeviceMetrics &dm : r.devices) {
        if (!in.u64("devGpuEdgeWork", dm.gpuEdgeWork) ||
            !in.u64("devRawExpanded", dm.rawExpanded) ||
            !in.u64("devScuFiltered", dm.scuFiltered) ||
            !in.u64("devIterations", dm.iterations) ||
            !in.u64("devScuBusyCycles", dm.scuBusyCycles))
            return DecodeOutcome::Malformed;
    }
    if (!in.u64("validated", u) || u > 1)
        return DecodeOutcome::Malformed;
    r.validated = u != 0;
    if (!in.tok("end"))
        return DecodeOutcome::Malformed;

    rec.result = tmp.result;
    rec.ok = tmp.ok;
    rec.error = std::move(tmp.error);
    rec.failure = tmp.failure;
    rec.diagnostics = std::move(tmp.diagnostics);
    return DecodeOutcome::Hit;
}

} // namespace

bool
decodeRunRecord(const std::string &text,
                const std::string &expectKey, RunRecord &rec)
{
    return decodeRunRecordDetail(text, expectKey, rec) ==
           DecodeOutcome::Hit;
}

bool
loadCachedRun(const std::string &dir, const std::string &key,
              RunRecord &rec)
{
    const std::string path = runCachePath(dir, key);
    std::string text;
    {
        std::ifstream in(path, std::ios::binary);
        if (!in)
            return false;
        std::ostringstream buf;
        buf << in.rdbuf();
        if (!in.good() && !in.eof())
            return false;
        text = buf.str();
    }
    const DecodeOutcome outcome =
        decodeRunRecordDetail(text, key, rec);
    if (outcome == DecodeOutcome::Malformed) {
        // Quarantine the damaged file: the slot becomes a clean miss
        // that re-simulation can repopulate, and the evidence stays
        // on disk for inspection instead of being reparsed (and
        // warned about) on every future lookup. Concurrent readers
        // may race to the same rename; losing that race is fine.
        const std::string corrupt = path + ".corrupt";
        if (std::rename(path.c_str(), corrupt.c_str()) == 0) {
            quarantined.fetch_add(1, std::memory_order_relaxed);
            warn("run cache: quarantined corrupt record '%s' -> "
                 "'%s'", path.c_str(), corrupt.c_str());
        }
        return false;
    }
    return outcome == DecodeOutcome::Hit;
}

bool
storeCachedRun(const std::string &dir, const RunRecord &rec)
{
    if (!runCacheStorable(rec))
        return false;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        warn("run cache: cannot create '%s': %s", dir.c_str(),
             ec.message().c_str());
        return false;
    }
    const std::string path = runCachePath(dir, rec.run.key);
    // Process-unique temp name + rename: concurrent executors may
    // race to write the same record, but a reader only ever sees a
    // complete file (both writers produce identical bytes anyway).
    std::ostringstream tmpName;
    tmpName << path << ".tmp." << ::getpid();
    {
        std::ofstream out(tmpName.str(),
                          std::ios::binary | std::ios::trunc);
        if (!out) {
            warn("run cache: cannot write '%s'",
                 tmpName.str().c_str());
            return false;
        }
        out << encodeRunRecord(rec);
        if (!out.good()) {
            out.close();
            std::remove(tmpName.str().c_str());
            warn("run cache: short write to '%s'",
                 tmpName.str().c_str());
            return false;
        }
    }
    if (std::rename(tmpName.str().c_str(), path.c_str()) != 0) {
        std::remove(tmpName.str().c_str());
        warn("run cache: rename to '%s' failed", path.c_str());
        return false;
    }
    return true;
}

} // namespace scusim::harness
