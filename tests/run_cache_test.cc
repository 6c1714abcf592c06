/**
 * @file
 * Tests of the persistent cross-process run cache: a plan re-run
 * against a warm SCUSIM_CACHE_DIR must be served entirely from disk
 * with byte-identical artifacts, records from an incompatible schema
 * version must be rejected, and truncated or corrupted cache files
 * must read as misses (the run simply re-simulates), never as wrong
 * results or crashes.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/executor.hh"
#include "harness/plan.hh"
#include "harness/results.hh"
#include "harness/run_cache.hh"

using namespace scusim;
using namespace scusim::harness;

namespace
{

/** Fresh cache directory + SCUSIM_CACHE_DIR for one test body. */
class CacheDirGuard
{
  public:
    explicit CacheDirGuard(const char *name)
        : dir(::testing::TempDir() + "scusim_cache_" + name)
    {
        std::filesystem::remove_all(dir);
        ::setenv("SCUSIM_CACHE_DIR", dir.c_str(), 1);
        clearRunMemo();
    }

    ~CacheDirGuard()
    {
        ::unsetenv("SCUSIM_CACHE_DIR");
        std::filesystem::remove_all(dir);
        clearRunMemo();
    }

    const std::string dir;
};

ExperimentPlan
tinyMatrix()
{
    return ExperimentPlan()
        .systems({"TX1"})
        .primitives({Primitive::Bfs, Primitive::Sssp})
        .datasets({"cond"})
        .modes({ScuMode::GpuOnly, ScuMode::ScuEnhanced})
        .scale(0.01);
}

std::string
jsonOf(const PlanResults &res)
{
    std::ostringstream os;
    writeRunsJson(os, res);
    return os.str();
}

std::string
csvOf(const PlanResults &res)
{
    std::ostringstream os;
    writeRunsCsv(os, res);
    return os.str();
}

/** A representative record with every outcome field populated. */
RunRecord
sampleRecord()
{
    RunRecord rec;
    rec.run.key = "BFS|TX1|cond|0.01|1|scu";
    rec.ok = true;
    rec.result.totalCycles = 123456789;
    rec.result.seconds = 0.1234567890123456789;
    rec.result.energy.gpuDynamicJ = 1.5e-3;
    rec.result.energy.memStaticJ = 2.25e-4;
    rec.result.gpuCompactionCycles = 42;
    rec.result.gpuProcessingCycles = 4242;
    rec.result.scuBusyCycles = 17;
    rec.result.gpuThreadInstrs = 1e9 + 1;
    rec.result.coalescingEfficiency = 0.25;
    rec.result.txnsPerMemInstr = 3.875;
    rec.result.bwUtilization = 0.9999999999999999;
    rec.result.l2HitRate = 1.0 / 3.0;
    rec.result.dramLines = 7777;
    rec.result.algMetrics.iterations = 9;
    rec.result.algMetrics.gpuEdgeWork = 1002003;
    rec.result.algMetrics.rawExpanded = 2004006;
    rec.result.algMetrics.scuFiltered = 1002003;
    rec.result.validated = true;
    return rec;
}

} // namespace

TEST(RunCacheCodec, EncodeDecodeRoundTripsEveryField)
{
    const RunRecord rec = sampleRecord();
    RunRecord back;
    back.run.key = rec.run.key;
    ASSERT_TRUE(decodeRunRecord(encodeRunRecord(rec), rec.run.key,
                                back));
    EXPECT_EQ(back.ok, rec.ok);
    EXPECT_EQ(back.failure, rec.failure);
    EXPECT_EQ(back.error, rec.error);
    EXPECT_EQ(back.result.totalCycles, rec.result.totalCycles);
    // Bit-exact doubles, including ones with no short decimal form.
    EXPECT_EQ(back.result.seconds, rec.result.seconds);
    EXPECT_EQ(back.result.bwUtilization, rec.result.bwUtilization);
    EXPECT_EQ(back.result.l2HitRate, rec.result.l2HitRate);
    EXPECT_EQ(back.result.energy.gpuDynamicJ,
              rec.result.energy.gpuDynamicJ);
    EXPECT_EQ(back.result.algMetrics.scuFiltered,
              rec.result.algMetrics.scuFiltered);
    EXPECT_EQ(back.result.validated, rec.result.validated);
}

TEST(RunCacheCodec, FailedRecordRoundTripsDiagnostics)
{
    RunRecord rec = sampleRecord();
    rec.ok = false;
    rec.failure = FailureKind::Deadlock;
    rec.error = "no component progress for 1000 ticks";
    rec.diagnostics = "tick 42\nsm0: busy=yes wake=never\n";
    RunRecord back;
    ASSERT_TRUE(decodeRunRecord(encodeRunRecord(rec), rec.run.key,
                                back));
    EXPECT_FALSE(back.ok);
    EXPECT_EQ(back.failure, FailureKind::Deadlock);
    EXPECT_EQ(back.error, rec.error);
    EXPECT_EQ(back.diagnostics, rec.diagnostics);
}

TEST(RunCacheCodec, RejectsKeyMismatchAndGarbage)
{
    const RunRecord rec = sampleRecord();
    const std::string text = encodeRunRecord(rec);
    RunRecord back;
    // The stored key guards against file-name hash collisions.
    EXPECT_FALSE(decodeRunRecord(text, "some|other|run", back));
    EXPECT_FALSE(decodeRunRecord("", rec.run.key, back));
    EXPECT_FALSE(decodeRunRecord("not a cache file", rec.run.key,
                                 back));
    // Any truncation point must fail cleanly, not misparse.
    for (std::size_t n : {std::size_t{10}, text.size() / 2,
                          text.size() - 2})
        EXPECT_FALSE(
            decodeRunRecord(text.substr(0, n), rec.run.key, back))
            << "truncated at " << n;
    // Failure codes past the last FailureKind are not guessed at.
    RunRecord failed = sampleRecord();
    failed.ok = false;
    failed.failure = FailureKind::Runaway;
    const std::string failedText = encodeRunRecord(failed);
    const int last = static_cast<int>(FailureKind::Runaway);
    const std::string lastKind =
        "\nfailure " + std::to_string(last) + "\n";
    const std::size_t at = failedText.find(lastKind);
    ASSERT_NE(at, std::string::npos);
    ASSERT_TRUE(decodeRunRecord(failedText, failed.run.key, back));
    for (int code : {last + 1, last + 2}) {
        std::string bad = failedText;
        bad.replace(at, lastKind.size(),
                    "\nfailure " + std::to_string(code) + "\n");
        EXPECT_FALSE(decodeRunRecord(bad, failed.run.key, back))
            << "failure code " << code;
    }
}

TEST(RunCacheCodec, RejectsSchemaVersionMismatch)
{
    const RunRecord rec = sampleRecord();
    std::string text = encodeRunRecord(rec);
    const std::string want =
        "scusim-run-cache " + std::to_string(runCacheSchemaVersion);
    ASSERT_EQ(text.compare(0, want.size(), want), 0);
    text.replace(0, want.size(),
                 "scusim-run-cache " +
                     std::to_string(runCacheSchemaVersion + 1));
    RunRecord back;
    EXPECT_FALSE(decodeRunRecord(text, rec.run.key, back));
}

TEST(RunCache, StorabilityPolicy)
{
    RunRecord rec = sampleRecord();
    EXPECT_TRUE(runCacheStorable(rec));
    // Every failure kind is deterministic, so failures are cached.
    rec.ok = false;
    for (FailureKind k : {FailureKind::Panic, FailureKind::Invariant,
                          FailureKind::Deadlock, FailureKind::Runaway}) {
        rec.failure = k;
        EXPECT_TRUE(runCacheStorable(rec)) << to_string(k);
    }
    // Graph-backed keys embed a raw pointer — useless across
    // processes.
    graph::CsrGraph g;
    rec.run.graph = &g;
    EXPECT_FALSE(runCacheStorable(rec));
}

TEST(RunCache, PointerKeyedGraphRunsNeverTouchDisk)
{
    CacheDirGuard cache("ptrkeyed");
    const graph::CsrGraph g = graph::referenceGraph();
    const auto plan = ExperimentPlan()
                          .systems({"TX1"})
                          .primitives({Primitive::Bfs})
                          .modes({ScuMode::GpuOnly})
                          .graph(&g, "fig2a");

    auto cold = runPlan(plan, {});
    ASSERT_EQ(cold.failures(), 0u);
    // Forget the memo so the second execution would consult the disk
    // cache if pointer-keyed runs were allowed there.
    clearRunMemo();
    auto warm = runPlan(plan, {});
    ASSERT_EQ(warm.failures(), 0u);
    for (const auto *res : {&cold, &warm})
        for (const auto &r : res->records()) {
            EXPECT_NE(r.run.key.find("|graph="), std::string::npos);
            EXPECT_FALSE(r.fromDiskCache) << r.run.label;
        }
    EXPECT_EQ(jsonOf(cold), jsonOf(warm));

    std::size_t runFiles = 0;
    if (std::filesystem::exists(cache.dir))
        for (const auto &e :
             std::filesystem::directory_iterator(cache.dir))
            runFiles += e.path().extension() == ".run";
    EXPECT_EQ(runFiles, 0u) << "a pointer-keyed run was written";
}

TEST(RunCache, SecondExecutionIsServedFromDiskByteIdentically)
{
    CacheDirGuard cache("roundtrip");
    const auto plan = tinyMatrix();

    auto cold = runPlan(plan, {.jobs = 2});
    ASSERT_EQ(cold.failures(), 0u);
    for (const auto &r : cold.records())
        EXPECT_FALSE(r.fromDiskCache) << r.run.label;

    // Forget the in-process memo: the only way the second execution
    // can avoid simulating is the on-disk cache.
    clearRunMemo();
    auto warm = runPlan(plan, {.jobs = 2});
    ASSERT_EQ(warm.failures(), 0u);
    ASSERT_EQ(warm.size(), cold.size());
    for (const auto &r : warm.records())
        EXPECT_TRUE(r.fromDiskCache)
            << r.run.label << " was re-simulated";

    // The artifacts the benches write must not change by a byte.
    EXPECT_EQ(jsonOf(cold), jsonOf(warm));
    EXPECT_EQ(csvOf(cold), csvOf(warm));
}

TEST(RunCache, DisabledWithoutEnvOrWithMemoizeOff)
{
    {
        CacheDirGuard cache("gating");
        // memoize=false implies no disk cache either: the test knobs
        // that force fresh executions stay trustworthy.
        auto r1 = runPlan(tinyMatrix(), {.memoize = false});
        ASSERT_EQ(r1.failures(), 0u);
        EXPECT_FALSE(std::filesystem::exists(cache.dir))
            << "memoize=false still wrote cache files";
        // diskCache=false leaves the directory untouched too.
        clearRunMemo();
        auto r2 = runPlan(tinyMatrix(), {.diskCache = false});
        ASSERT_EQ(r2.failures(), 0u);
        EXPECT_FALSE(std::filesystem::exists(cache.dir))
            << "diskCache=false still wrote cache files";
    }
    EXPECT_EQ(runCacheDir(), "");
}

TEST(RunCache, CorruptAndTruncatedFilesAreMissesNotErrors)
{
    CacheDirGuard cache("corrupt");
    const auto plan = tinyMatrix();
    auto cold = runPlan(plan, {});
    ASSERT_EQ(cold.failures(), 0u);

    // Mangle every stored record: truncate one, scribble over the
    // rest.
    std::size_t n = 0;
    for (const auto &e :
         std::filesystem::directory_iterator(cache.dir)) {
        if (n++ % 2 == 0) {
            std::filesystem::resize_file(
                e.path(), std::filesystem::file_size(e.path()) / 2);
        } else {
            std::ofstream f(e.path(), std::ios::trunc);
            f << "garbage\n";
        }
    }
    ASSERT_GT(n, 0u);

    const std::uint64_t quarantinedBefore =
        runCacheQuarantinedCount();
    clearRunMemo();
    auto warm = runPlan(plan, {});
    ASSERT_EQ(warm.failures(), 0u) << "corrupt cache broke the run";
    for (const auto &r : warm.records())
        EXPECT_FALSE(r.fromDiskCache)
            << r.run.label << " served from a corrupt file";
    EXPECT_EQ(jsonOf(cold), jsonOf(warm));

    // Every damaged file was quarantined aside (counted, renamed to
    // "<name>.corrupt"), so a damaged record costs one failed parse
    // ever — and re-simulation wrote fresh records next to them.
    EXPECT_EQ(runCacheQuarantinedCount() - quarantinedBefore, n);
    std::size_t corrupt = 0, fresh = 0;
    for (const auto &e :
         std::filesystem::directory_iterator(cache.dir)) {
        if (e.path().extension() == ".corrupt")
            ++corrupt;
        else if (e.path().extension() == ".run")
            ++fresh;
    }
    EXPECT_EQ(corrupt, n);
    EXPECT_EQ(fresh, n);

    // The quarantined copies are inert: a third execution is served
    // from the fresh records, byte-identically.
    clearRunMemo();
    auto rewarm = runPlan(plan, {});
    ASSERT_EQ(rewarm.failures(), 0u);
    for (const auto &r : rewarm.records())
        EXPECT_TRUE(r.fromDiskCache) << r.run.label;
    EXPECT_EQ(jsonOf(cold), jsonOf(rewarm));
}

TEST(RunCache, KeyMismatchIsAMissNotCorruption)
{
    CacheDirGuard cache("collision");
    // A well-formed record stored under a *different* key's file
    // name models a hash collision: it must read as a plain miss —
    // no quarantine, the resident file left alone.
    const RunRecord rec = sampleRecord();
    std::filesystem::create_directories(cache.dir);
    const std::string victim =
        runCachePath(cache.dir, "some|other|key");
    {
        std::ofstream f(victim, std::ios::binary);
        f << encodeRunRecord(rec);
    }
    const std::uint64_t before = runCacheQuarantinedCount();
    RunRecord out;
    EXPECT_FALSE(loadCachedRun(cache.dir, "some|other|key", out));
    EXPECT_EQ(runCacheQuarantinedCount(), before);
    EXPECT_TRUE(std::filesystem::exists(victim))
        << "hash-collision miss quarantined a healthy file";
}

TEST(RunCache, DirGettersAndPathShape)
{
    ::unsetenv("SCUSIM_CACHE_DIR");
    EXPECT_EQ(runCacheDir(), "");
    ::setenv("SCUSIM_CACHE_DIR", "/some/dir", 1);
    EXPECT_EQ(runCacheDir(), "/some/dir");
    ::unsetenv("SCUSIM_CACHE_DIR");
    const std::string p = runCachePath("/d", "BFS|TX1|cond");
    EXPECT_EQ(p.substr(0, 3), "/d/");
    EXPECT_EQ(p.substr(p.size() - 4), ".run");
    // Different keys land in different files.
    EXPECT_NE(p, runCachePath("/d", "BFS|TX1|ca"));
}
