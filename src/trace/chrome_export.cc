#include "trace/chrome_export.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <vector>

#include "common/logging.hh"

namespace scusim::trace
{

namespace
{

/** JSON string escaping, matching the artifact writers in harness. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Device (Chrome pid) a component channel belongs to. */
struct Device
{
    int pid;
    std::string name;
};

// GCC 12 false positive (GCC bug 105329): -Wrestrict inside the
// std::string memcpy inlined from the "d<k>." name concatenation.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
Device
deviceFor(const std::string &channel)
{
    if (channel.rfind("sm", 0) == 0 || channel == "gpu")
        return {1, "gpu"};
    if (channel.rfind("scu", 0) == 0)
        return {2, "scu"};
    if (channel.rfind("mem", 0) == 0 || channel.rfind("dram", 0) == 0 ||
        channel.rfind("l2", 0) == 0)
        return {3, "mem"};
    if (channel == "icn")
        return {4, "icn"};
    // Multi-device channels arrive prefixed "d<k>."; each simulated
    // device gets its own pid block so its gpu/scu/mem lanes stay
    // distinct in the viewer.
    if (channel.size() > 2 && channel[0] == 'd') {
        std::size_t i = 1;
        while (i < channel.size() && channel[i] >= '0' &&
               channel[i] <= '9')
            ++i;
        if (i > 1 && i < channel.size() && channel[i] == '.') {
            const int k = std::atoi(channel.substr(1, i - 1).c_str());
            const Device base = deviceFor(channel.substr(i + 1));
            return {10 + 4 * k + base.pid,
                    "d" + std::to_string(k) + "." + base.name};
        }
    }
    return {0, "sim"};
}
#pragma GCC diagnostic pop

void
writeEvent(std::ostream &os, bool &first, const std::string &body)
{
    if (!first)
        os << ",\n";
    first = false;
    os << "    {" << body << "}";
}

std::string
common(const TraceEvent &e, int pid, int tid)
{
    return "\"name\": \"" + jsonEscape(e.name) + "\", \"cat\": \"" +
           to_string(e.cat) + "\", \"pid\": " + std::to_string(pid) +
           ", \"tid\": " + std::to_string(tid) +
           ", \"ts\": " + std::to_string(e.start);
}

} // namespace

void
writeChromeTrace(std::ostream &os, const TraceSink &sink)
{
    const auto chans = sink.channels();

    os << "{\n  \"displayTimeUnit\": \"ms\",\n";
    os << "  \"otherData\": {\"source\": \"scusim\", "
          "\"time_unit\": \"simulated ticks\"},\n";
    os << "  \"traceEvents\": [\n";

    bool first = true;

    // Stable pid/tid assignment: pids are fixed per device, tids are
    // the channel's rank within its device in creation order (which
    // is the deterministic component wiring order).
    std::map<int, int> nextTid;
    std::map<int, std::string> pidName;
    std::vector<int> tids(chans.size());
    for (std::size_t i = 0; i < chans.size(); ++i) {
        const Device dev = deviceFor(chans[i]->name());
        tids[i] = nextTid[dev.pid]++;
        pidName[dev.pid] = dev.name;
    }

    for (const auto &[pid, name] : pidName)
        writeEvent(os, first,
                   "\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " +
                       std::to_string(pid) +
                       ", \"args\": {\"name\": \"" +
                       jsonEscape(name) + "\"}");

    for (std::size_t i = 0; i < chans.size(); ++i) {
        const Device dev = deviceFor(chans[i]->name());
        writeEvent(os, first,
                   "\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": " +
                       std::to_string(dev.pid) +
                       ", \"tid\": " + std::to_string(tids[i]) +
                       ", \"args\": {\"name\": \"" +
                       jsonEscape(chans[i]->name()) + "\"}");
    }

    for (std::size_t i = 0; i < chans.size(); ++i) {
        const Device dev = deviceFor(chans[i]->name());
        for (const TraceEvent &e : chans[i]->snapshot()) {
            std::string body = common(e, dev.pid, tids[i]);
            switch (e.type) {
              case EventType::Span:
                body += ", \"ph\": \"X\", \"dur\": " +
                        std::to_string(e.dur) +
                        ", \"args\": {\"arg\": " + std::to_string(e.arg) +
                        "}";
                break;
              case EventType::Instant:
                body += ", \"ph\": \"i\", \"s\": \"t\", "
                        "\"args\": {\"arg\": " +
                        std::to_string(e.arg) + "}";
                break;
              case EventType::Counter:
                body += ", \"ph\": \"C\", \"args\": {\"value\": " +
                        std::to_string(e.arg) + "}";
                break;
            }
            writeEvent(os, first, body);
        }
    }

    os << "\n  ]\n}\n";
}

bool
writeChromeTrace(const std::string &path, const TraceSink &sink)
{
    std::ofstream f(path);
    if (!f) {
        warn("cannot open trace output '%s'", path.c_str());
        return false;
    }
    writeChromeTrace(f, sink);
    return true;
}

} // namespace scusim::trace
