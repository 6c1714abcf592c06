/**
 * @file
 * Wire protocol of the scusim simulation service. Frames are
 * length-prefixed and versioned: a fixed 12-byte little-endian
 * header (magic, protocol version, frame type, payload length)
 * followed by the payload bytes. Payloads are line-oriented text in
 * the run-cache tradition, so a served result is the *exact*
 * encodeRunRecord() byte string the run cache stores — daemon-served
 * warm runs are byte-identical to locally simulated ones by
 * construction.
 *
 * Robustness contract: parseFrame() never throws and never reads
 * past the buffered bytes; a malformed header or an oversized length
 * classifies as Malformed so the server can reject the connection
 * without trusting any of its bytes. Request payloads parse strictly
 * — unknown fields, bad enums and out-of-range values are errors,
 * not guesses.
 */

#ifndef SCUSIM_SERVICE_PROTOCOL_HH
#define SCUSIM_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <string>

#include "common/sim_error.hh"
#include "harness/runner.hh"

namespace scusim::service
{

/** "SCUS" little-endian; the first four bytes of every frame. */
constexpr std::uint32_t frameMagic = 0x53554353;

/** Bump on any incompatible frame or payload layout change. */
constexpr std::uint16_t protocolVersion = 2;

/** Frame header bytes on the wire. */
constexpr std::size_t frameHeaderBytes = 12;

/**
 * Upper bound on a frame payload. Requests and results are a few
 * hundred bytes; anything near this limit is a confused or hostile
 * peer, and rejecting it bounds per-connection buffering.
 */
constexpr std::uint32_t maxFramePayload = 1u << 20;

/** Frame types. Requests are < 0x80, replies >= 0x80. */
enum class FrameType : std::uint16_t
{
    Submit = 1, ///< RunRequest payload; answered by Result or Reject
    Health = 2, ///< empty payload; answered by HealthReply
    Result = 0x81,      ///< encodeRunRecord() payload
    Reject = 0x82,      ///< RejectInfo payload (typed failure)
    HealthReply = 0x83, ///< HealthInfo payload
};

/** One decoded frame. */
struct Frame
{
    FrameType type = FrameType::Submit;
    std::string payload;
};

/** Serialize a complete frame (header + payload). */
std::string encodeFrame(FrameType type, const std::string &payload);

/** Outcome of parsing the front of a connection buffer. */
enum class FrameStatus
{
    Ok,       ///< one frame decoded and consumed from the buffer
    NeedMore, ///< prefix is valid so far; wait for more bytes
    Malformed ///< bad magic/version/type/length: drop the peer
};

/**
 * Try to decode one frame from the front of @p buf. On Ok the
 * consumed bytes are erased and @p out is filled; on Malformed a
 * human-readable reason lands in @p why (when non-null) and @p buf
 * is left untouched for diagnosis.
 */
FrameStatus parseFrame(std::string &buf, Frame &out,
                       std::string *why = nullptr);

/**
 * A plan submission. Only the deterministic run identity travels on
 * the wire — systems, primitive, dataset, scale, seed, algorithm
 * options, sharding and tick/stall budgets, which all participate in
 * the run key. The client's wall-clock *deadline* is carried
 * separately and maps onto executor-level supervision server-side,
 * so two clients asking for the same run with different deadlines
 * still share one cache entry.
 */
struct RunRequest
{
    harness::RunConfig cfg;
    /** Remaining client deadline in ms; 0 = no deadline. */
    std::uint64_t deadlineMs = 0;
    /**
     * Optional server-side `.scug` store file to run on instead of
     * synthesizing cfg.dataset. The path names a file on the
     * *daemon's* filesystem (daemon and CLI share a host); it never
     * participates in the run key — identity comes from the store
     * file's content fingerprint, which both sides derive
     * independently (the dataset label becomes "scug:<fp>").
     * Whitespace in paths is not representable on this line-oriented
     * wire and is rejected at submit time. Empty = dataset run.
     */
    std::string storeFile = {};
};

std::string encodeRunRequest(const RunRequest &req);

/**
 * Strictly parse @p text into @p req. Returns false with a reason in
 * @p err on any malformed field; @p req is untouched on failure.
 */
bool decodeRunRequest(const std::string &text, RunRequest &req,
                      std::string &err);

/** A typed rejection: the failure the client should record. */
struct RejectInfo
{
    FailureKind kind = FailureKind::Overloaded;
    std::string message;
};

std::string encodeReject(const RejectInfo &info);
bool decodeReject(const std::string &text, RejectInfo &info);

/** Health probe reply: the daemon's externally visible vitals. */
struct HealthInfo
{
    std::uint64_t ok = 1;
    std::uint64_t connections = 0;
    std::uint64_t requestsAccepted = 0;
    std::uint64_t requestsCompleted = 0;
    std::uint64_t requestsFailed = 0;
    std::uint64_t overloadShed = 0;
    std::uint64_t framesRejected = 0;
    std::uint64_t disconnectCancels = 0;
    std::uint64_t journalRecovered = 0;
    std::uint64_t cacheQuarantined = 0;
    std::uint64_t queueDepth = 0;
    std::uint64_t inFlight = 0;
    std::uint64_t draining = 0;
};

std::string encodeHealth(const HealthInfo &h);
bool decodeHealth(const std::string &text, HealthInfo &h);

/** Parsers for the enum axes carried by RunRequest. */
bool parsePrimitive(const std::string &s, harness::Primitive &p);
bool parseScuMode(const std::string &s, harness::ScuMode &m);

/** FNV-1a of @p s: stable file names for journal entries. */
std::uint64_t stableHash(const std::string &s);

} // namespace scusim::service

#endif // SCUSIM_SERVICE_PROTOCOL_HH
