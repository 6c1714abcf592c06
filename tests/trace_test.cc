/**
 * @file
 * Trace subsystem tests: ring-buffer overflow semantics, runtime
 * category masking, the Chrome trace-event exporter, the windowed
 * Timeseries stat, and — most importantly — the guarantee that
 * enabling tracing never perturbs the determinism gate's
 * byte-identical statistics dumps.
 *
 * Everything here must pass in both SCUSIM_TRACE=OFF and =ON builds:
 * channel methods are exercised directly (not through the macros), so
 * the data-structure contracts hold regardless of whether emission
 * sites are compiled in.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "alg/serial.hh"
#include "alg/sharded.hh"
#include "graph/partition.hh"
#include "harness/runner.hh"
#include "harness/system.hh"
#include "stats/timeseries.hh"
#include "trace/chrome_export.hh"
#include "trace/trace.hh"

using namespace scusim;
using namespace scusim::trace;

namespace
{

TraceConfig
smallRing(std::size_t capacity, std::uint32_t mask = maskAll)
{
    TraceConfig cfg;
    cfg.enabled = true;
    cfg.mask = mask;
    cfg.ringCapacity = capacity;
    return cfg;
}

/**
 * Minimal structural JSON check: braces/brackets balance outside of
 * string literals and the document is a single object. Good enough to
 * catch the classic exporter bugs (trailing commas are also rejected
 * by real parsers, so spot-check those separately).
 */
bool
jsonBalanced(const std::string &text)
{
    std::vector<char> stack;
    bool inString = false;
    bool escaped = false;
    for (char c : text) {
        if (inString) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                inString = false;
            continue;
        }
        switch (c) {
          case '"': inString = true; break;
          case '{': stack.push_back('}'); break;
          case '[': stack.push_back(']'); break;
          case '}':
          case ']':
            if (stack.empty() || stack.back() != c)
                return false;
            stack.pop_back();
            break;
          default: break;
        }
    }
    return stack.empty() && !inString;
}

std::size_t
countOccurrences(const std::string &haystack, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t pos = haystack.find(needle);
         pos != std::string::npos;
         pos = haystack.find(needle, pos + needle.size()))
        ++n;
    return n;
}

// GCC 12 false positive (GCC bug 105329): -Wrestrict inside the
// std::string memcpy inlined from the event-name concatenations.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
TEST(TraceChannel, RingOverflowKeepsTheNewestEvents)
{
    TraceSink sink(smallRing(4));
    TraceChannel *ch = sink.channel("sm0");
    ASSERT_NE(ch, nullptr);

    for (std::uint64_t i = 0; i < 10; ++i)
        ch->instant(Category::Kernel, "e" + std::to_string(i), i * 100,
                    i);

    EXPECT_EQ(ch->size(), 4u);
    EXPECT_EQ(ch->recorded(), 10u);
    EXPECT_EQ(ch->dropped(), 6u);

    const auto events = ch->snapshot();
    ASSERT_EQ(events.size(), 4u);
    // Oldest-first, and only the newest four survive the overflow.
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].name, "e" + std::to_string(i + 6));
        EXPECT_EQ(events[i].arg, i + 6);
        EXPECT_EQ(events[i].start, (i + 6) * 100);
    }
}
#pragma GCC diagnostic pop

TEST(TraceChannel, MaskedOffCategoriesAreDroppedAtTheEmissionSite)
{
    TraceSink sink(
        smallRing(16, static_cast<std::uint32_t>(Category::Mem)));
    TraceChannel *ch = sink.channel("memsys");

    EXPECT_FALSE(ch->wants(Category::Kernel));
    EXPECT_FALSE(ch->wants(Category::Sim));
    EXPECT_TRUE(ch->wants(Category::Mem));

    ch->span(Category::Kernel, "kernel", 0, 10);
    ch->instant(Category::Sim, "housekeeping", 5);
    EXPECT_EQ(ch->recorded(), 0u) << "masked categories must not "
                                     "count as recorded";

    ch->counter(Category::Mem, "bytes", 7, 128);
    EXPECT_EQ(ch->recorded(), 1u);

    // The macros must tolerate a null channel in every build mode.
    TraceChannel *none = nullptr;
    TRACE_EVENT_SPAN(none, Category::Sim, "noop", 0, 1, 0);
    TRACE_EVENT_INSTANT(none, Category::Sim, "noop", 0, 0);
    TRACE_EVENT_COUNTER(none, Category::Sim, "noop", 0, 0);
}

TEST(TraceChannel, SpanClampsNegativeDurations)
{
    TraceSink sink(smallRing(4));
    TraceChannel *ch = sink.channel("scu");
    ch->span(Category::ScuOp, "backwards", 100, 40);
    const auto events = ch->snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].start, 100u);
    EXPECT_EQ(events[0].dur, 0u);
}

TEST(TraceSink, ChannelLookupIsGetOrCreateInCreationOrder)
{
    TraceSink sink(smallRing(8));
    TraceChannel *sim = sink.channel("sim");
    TraceChannel *sm0 = sink.channel("sm0");
    TraceChannel *again = sink.channel("sim");
    EXPECT_EQ(sim, again);
    EXPECT_NE(sim, sm0);

    const auto chans = sink.channels();
    ASSERT_EQ(chans.size(), 2u);
    EXPECT_EQ(chans[0]->name(), "sim");
    EXPECT_EQ(chans[1]->name(), "sm0");
}

TEST(TraceSink, TailDumpShowsNewestEventsPerChannel)
{
    TraceSink sink(smallRing(4));
    TraceChannel *ch = sink.channel("scu");
    for (std::uint64_t i = 0; i < 6; ++i)
        ch->instant(Category::ScuOp, "op" + std::to_string(i), i);

    const std::string tail = sink.tailDump(2);
    EXPECT_NE(tail.find("scu"), std::string::npos);
    EXPECT_NE(tail.find("6 recorded"), std::string::npos);
    EXPECT_NE(tail.find("op5"), std::string::npos);
    EXPECT_EQ(tail.find("op0"), std::string::npos)
        << "overwritten events must not appear in the tail";
}

TEST(TraceConfig, CategoryMaskParsing)
{
    EXPECT_EQ(parseCategoryMask("all"), maskAll);
    EXPECT_EQ(parseCategoryMask("none"), 0u);
    EXPECT_EQ(parseCategoryMask(""), 0u);
    EXPECT_EQ(parseCategoryMask("0x3"), 3u);
    EXPECT_EQ(parseCategoryMask("mem,fifo"),
              static_cast<std::uint32_t>(Category::Mem) |
                  static_cast<std::uint32_t>(Category::Fifo));
    EXPECT_EQ(parseCategoryMask("kernel,scu-op,mem,fifo,sim"), 0x1fu);
}

TEST(ChromeExport, ProducesBalancedJsonWithStableTracks)
{
    TraceSink sink(smallRing(64));
    // Creation order fixes pid/tid assignment; mimic the harness
    // wiring order.
    TraceChannel *sim = sink.channel("sim");
    TraceChannel *sm0 = sink.channel("sm0");
    TraceChannel *scu = sink.channel("scu");
    TraceChannel *mem = sink.channel("memsys");

    sim->span(Category::Sim, "run", 0, 1000);
    sm0->span(Category::Kernel, "bfs_iter", 10, 200, 42);
    sm0->instant(Category::Kernel, "done", 200);
    scu->span(Category::ScuOp, "filter \"quoted\"", 20, 80);
    mem->counter(Category::Mem, "dram_bytes", 100, 4096);

    std::ostringstream os;
    writeChromeTrace(os, sink);
    const std::string json = os.str();

    EXPECT_TRUE(jsonBalanced(json)) << json;
    EXPECT_EQ(json.find("],"), std::string::npos)
        << "no trailing content after the traceEvents array";
    EXPECT_EQ(json.find(",\n  ]"), std::string::npos)
        << "no trailing comma before the array close";

    // One thread_name track per channel, one process_name per device.
    EXPECT_EQ(countOccurrences(json, "\"thread_name\""), 4u);
    EXPECT_EQ(countOccurrences(json, "\"process_name\""), 4u);
    for (const char *track : {"\"sim\"", "\"sm0\"", "\"scu\"",
                              "\"memsys\""})
        EXPECT_NE(json.find(track), std::string::npos)
            << "missing track " << track;

    // Event phases: complete spans, instants, counters.
    EXPECT_EQ(countOccurrences(json, "\"ph\": \"X\""), 3u);
    EXPECT_EQ(countOccurrences(json, "\"ph\": \"i\""), 1u);
    EXPECT_EQ(countOccurrences(json, "\"ph\": \"C\""), 1u);

    // Ticks land in "ts", quotes in names are escaped.
    EXPECT_NE(json.find("\"ts\": 10"), std::string::npos);
    EXPECT_NE(json.find("filter \\\"quoted\\\""), std::string::npos);
}

TEST(ChromeExport, MultiDeviceChannelsGetDistinctPidBlocks)
{
    TraceSink sink(smallRing(64));
    // Multi-device wiring order: per-device channels ("d<k>."
    // prefixed), then the interconnect.
    TraceChannel *d0gpu = sink.channel("d0.gpu");
    TraceChannel *d0scu = sink.channel("d0.scu");
    TraceChannel *d1gpu = sink.channel("d1.gpu");
    TraceChannel *d1mem = sink.channel("d1.memsys");
    TraceChannel *icn = sink.channel("icn");

    d0gpu->span(Category::Kernel, "bfs_iter", 0, 100);
    d0scu->span(Category::ScuOp, "filter", 10, 50);
    d1gpu->span(Category::Kernel, "bfs_iter", 0, 90);
    d1mem->counter(Category::Mem, "dram_bytes", 20, 512);
    icn->span(Category::Mem, "msg d0->d1", 100, 140, 8);

    std::ostringstream os;
    writeChromeTrace(os, sink);
    const std::string json = os.str();
    EXPECT_TRUE(jsonBalanced(json)) << json;

    // pid scheme: device k occupies pid block 10+4k, offset by the
    // single-device component pid (gpu=1, scu=2, mem=3); icn is 4.
    EXPECT_NE(json.find("\"pid\": 11, \"args\": {\"name\": "
                        "\"d0.gpu\"}"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"pid\": 12, \"args\": {\"name\": "
                        "\"d0.scu\"}"),
              std::string::npos);
    EXPECT_NE(json.find("\"pid\": 15, \"args\": {\"name\": "
                        "\"d1.gpu\"}"),
              std::string::npos);
    EXPECT_NE(json.find("\"pid\": 17, \"args\": {\"name\": "
                        "\"d1.mem\"}"),
              std::string::npos);
    EXPECT_NE(json.find("\"pid\": 4, \"args\": {\"name\": "
                        "\"icn\"}"),
              std::string::npos);
    // The link-message span lands on the icn pid.
    EXPECT_NE(json.find("\"name\": \"msg d0->d1\", \"cat\": \"mem\", "
                        "\"pid\": 4"),
              std::string::npos);
}

TEST(Timeseries, CumulativeModeSamplesEachWindowBoundary)
{
    stats::StatGroup g("ts_test");
    double v = 0;
    stats::Timeseries ts(&g, "counter", "test series", 10,
                         [&] { return v; });

    v = 5;
    ts.sampleUpTo(9); // before the first boundary: nothing yet
    EXPECT_TRUE(ts.samples().empty());
    EXPECT_EQ(ts.nextSampleTick(), 10u);

    ts.sampleUpTo(10);
    v = 7;
    ts.sampleUpTo(20);
    v = 9;
    ts.sampleUpTo(45); // fast-forward across two boundaries

    const auto &s = ts.samples();
    ASSERT_EQ(s.size(), 4u);
    EXPECT_EQ(s[0].tick, 10u);
    EXPECT_DOUBLE_EQ(s[0].value, 5);
    EXPECT_EQ(s[1].tick, 20u);
    EXPECT_DOUBLE_EQ(s[1].value, 7);
    EXPECT_EQ(s[2].tick, 30u);
    EXPECT_DOUBLE_EQ(s[2].value, 9);
    EXPECT_EQ(s[3].tick, 40u);
    EXPECT_DOUBLE_EQ(s[3].value, 9);
    EXPECT_EQ(ts.nextSampleTick(), 50u);
}

TEST(Timeseries, DeltaModeAttributesChangeToTheFirstCrossedWindow)
{
    stats::StatGroup g("ts_test");
    double v = 0;
    stats::Timeseries ts(&g, "bytes", "test series", 10,
                         [&] { return v; },
                         stats::Timeseries::Mode::Delta);

    v = 5;
    ts.sampleUpTo(10);
    v = 7;
    ts.sampleUpTo(20);
    v = 9;
    ts.sampleUpTo(45);

    const auto &s = ts.samples();
    ASSERT_EQ(s.size(), 4u);
    EXPECT_DOUBLE_EQ(s[0].value, 5); // 5 - 0
    EXPECT_DOUBLE_EQ(s[1].value, 2); // 7 - 5
    EXPECT_DOUBLE_EQ(s[2].value, 2); // 9 - 7, first crossed window
    EXPECT_DOUBLE_EQ(s[3].value, 0); // no change in the second
}

TEST(Timeseries, CsvWriterEmitsLongFormatRows)
{
    stats::StatGroup g("ts_test");
    double a = 1, b = 10;
    stats::Timeseries tsA(&g, "alpha", "a", 5, [&] { return a; });
    stats::Timeseries tsB(&g, "beta", "b", 5, [&] { return b; });
    tsA.sampleUpTo(10);
    tsB.sampleUpTo(5);

    std::ostringstream os;
    stats::writeTimeseriesCsv(os, {&tsA, &tsB, nullptr});
    EXPECT_EQ(os.str(),
              "series,tick,value\n"
              "alpha,5,1\n"
              "alpha,10,1\n"
              "beta,5,10\n");
}

/* ------------------------------------------------------------------ */
/* Determinism under tracing, and the exporter driven by a real run.  */
/* ------------------------------------------------------------------ */

std::string
statsDumpFor(harness::RunConfig cfg)
{
    std::ostringstream os;
    cfg.dumpStatsTo = &os;
    harness::RunResult r = harness::runPrimitive(cfg);
    EXPECT_TRUE(r.validated)
        << to_string(cfg.primitive) << " on " << cfg.systemName
        << " failed functional validation";
    EXPECT_FALSE(os.str().empty());
    return os.str();
}

harness::RunConfig
tinyBfs()
{
    harness::RunConfig cfg;
    cfg.systemName = "GTX980";
    cfg.primitive = harness::Primitive::Bfs;
    cfg.mode = harness::ScuMode::ScuEnhanced;
    cfg.dataset = "cond";
    cfg.scale = 0.01;
    return cfg;
}

TEST(TracedRuns, TracingNeverPerturbsTheStatsDump)
{
    const std::string baseline = statsDumpFor(tinyBfs());

    // Tracing fully enabled: events + timeseries, no artifact paths.
    harness::RunConfig traced = tinyBfs();
    traced.trace.enabled = true;
    traced.trace.mask = maskAll;
    traced.trace.timeseriesPeriod = 1024;
    EXPECT_EQ(baseline, statsDumpFor(traced))
        << "enabling tracing changed the dumped statistics";

    // Tracing enabled but every category masked off (the CI
    // configuration for the trace-enabled determinism job).
    harness::RunConfig masked = tinyBfs();
    masked.trace.enabled = true;
    masked.trace.mask = 0;
    EXPECT_EQ(baseline, statsDumpFor(masked))
        << "a masked-off trace sink changed the dumped statistics";
}

TEST(TracedRuns, ExporterWritesLoadableArtifactsForARealRun)
{
    const std::string dir = ::testing::TempDir();
    const std::string jsonPath = dir + "/scusim_trace_test.json";
    const std::string csvPath = dir + "/scusim_trace_test.csv";

    harness::RunConfig cfg = tinyBfs();
    cfg.trace.enabled = true;
    cfg.trace.mask = maskAll;
    cfg.trace.timeseriesPeriod = 256;
    cfg.trace.exportPath = jsonPath;
    cfg.trace.timeseriesPath = csvPath;

    harness::RunResult r = harness::runPrimitive(cfg);
    EXPECT_TRUE(r.validated);

    std::ifstream jf(jsonPath);
    ASSERT_TRUE(jf.good()) << "trace JSON was not written";
    std::stringstream jbuf;
    jbuf << jf.rdbuf();
    const std::string json = jbuf.str();
    EXPECT_TRUE(jsonBalanced(json));
    // The acceptance bar: at least three distinct named tracks.
    EXPECT_GE(countOccurrences(json, "\"thread_name\""), 3u);
    for (const char *track : {"\"sim\"", "\"sm0\"", "\"scu\""})
        EXPECT_NE(json.find(track), std::string::npos)
            << "missing track " << track;

    std::ifstream cf(csvPath);
    ASSERT_TRUE(cf.good()) << "timeseries CSV was not written";
    std::string header;
    ASSERT_TRUE(std::getline(cf, header));
    EXPECT_EQ(header, "series,tick,value");
    std::string row;
    ASSERT_TRUE(std::getline(cf, row)) << "timeseries CSV is empty";
    EXPECT_NE(row.find("filtered_nodes,"), std::string::npos);
}

TEST(TracedRuns, MultiDeviceRunExportsPerDeviceLanes)
{
    // runPrimitive runs one device; a 2-device run is traced by
    // driving the sharded BFS on a 2-device System directly.
    const std::string jsonPath =
        ::testing::TempDir() + "/scusim_trace_multidev.json";

    const graph::CsrGraph &g = harness::cachedDataset("cond", 0.01);
    harness::SystemConfig sc = harness::SystemConfig::byName("GTX980");
    sc.deviceCount = 2;
    harness::System sys(sc);
    TraceConfig tc;
    tc.enabled = true;
    tc.mask = maskAll;
    sys.simulation().installTraceSink(std::make_unique<TraceSink>(tc));
    sys.attachTrace();

    const auto part = graph::GraphPartition::build(g, 2);
    alg::AlgOptions opt;
    opt.mode = harness::ScuMode::ScuEnhanced;
    // runPrimitive's source: the first max-degree node of the first
    // 1024.
    for (NodeId u = 0; u < std::min<NodeId>(g.numNodes(), 1024); ++u) {
        if (g.degree(u) > g.degree(opt.source))
            opt.source = u;
    }
    const alg::BfsResult out = alg::shardedBfs(sys, part, opt);
    EXPECT_EQ(out.dist, alg::serialBfs(g, opt.source));
    EXPECT_GT(sys.interconnect().messageCount(), 0u);
    ASSERT_TRUE(writeChromeTrace(jsonPath, *sys.simulation().traceSink()));

    std::ifstream jf(jsonPath);
    ASSERT_TRUE(jf.good()) << "trace JSON was not written";
    std::stringstream jbuf;
    jbuf << jf.rdbuf();
    const std::string json = jbuf.str();
    EXPECT_TRUE(jsonBalanced(json));

    // Channels are created at attach time regardless of build mode,
    // so each device's lanes and the interconnect track must exist —
    // on distinct pids per device.
    EXPECT_NE(json.find("\"d0.sm0\""), std::string::npos);
    EXPECT_NE(json.find("\"d1.sm0\""), std::string::npos);
    EXPECT_NE(json.find("\"pid\": 11, \"args\": {\"name\": "
                        "\"d0.gpu\"}"),
              std::string::npos);
    EXPECT_NE(json.find("\"pid\": 15, \"args\": {\"name\": "
                        "\"d1.gpu\"}"),
              std::string::npos);
    EXPECT_NE(json.find("\"pid\": 4, \"args\": {\"name\": "
                        "\"icn\"}"),
              std::string::npos);
#if SCUSIM_TRACE_ENABLED
    // With emission compiled in, every boundary message leaves a
    // link span on the icn track.
    EXPECT_NE(json.find("\"name\": \"msg d0->d1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\": \"msg d1->d0\""),
              std::string::npos);
#endif
}

} // namespace
