// The serve daemon's length-prefixed binary wire protocol. One frame:
//
//   u32 length | u8 type | payload bytes | u32 CRC-32(type + payload)
//
// where `length` counts everything after itself (1 + payload + 4). The
// CRC-32 (zlib polynomial, shared with the snapshot container via
// io/snapshot.h) trails every frame, so any single byte flip anywhere in a
// frame is detected before the payload is interpreted — the same corruption
// contract the snapshot loader enforces, and tested the same way
// (tests/test_serve.cpp sweeps every byte).
//
// Message types: a client sends kQuery (a QueryRequest), kSwap (a snapshot
// path for atomic hot-swap), kPing, kStats, or kStop; the server answers
// every request with exactly one kReply (payload depends on the request
// type) or kError (a diagnostic string). Frame and payload codecs are
// exposed at the buffer level so tests exercise them without sockets; fd
// I/O wrappers sit on top for the daemon and client.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "query/request.h"

namespace cloudmap::serve {

// Values are on the wire — append only, never renumber.
enum class MsgType : std::uint8_t {
  kQuery = 1,  // payload: encoded QueryRequest
  kSwap = 2,   // payload: snapshot path (u32 length + bytes)
  kPing = 3,   // payload: empty
  kStats = 4,  // payload: empty
  kStop = 5,   // payload: empty
  kReply = 6,  // payload: per-request (see below)
  kError = 7,  // payload: diagnostic string (u32 length + bytes)
};

// Refuse absurd frames before allocating for them. Replies (a kMinConfidence
// list with briefs over a large fabric) may approach this; requests never
// do, so the daemon reads them under the much smaller request cap: an
// encoded QueryRequest is 22 bytes and a kSwap path is at most PATH_MAX
// (4 KiB) plus its u32 length.
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;
inline constexpr std::uint32_t kMaxRequestPayload = 8u << 10;

struct Frame {
  MsgType type = MsgType::kPing;
  std::string payload;
};

enum class FrameStatus : std::uint8_t {
  kOk = 0,
  kIncomplete = 1,  // fewer bytes than one whole frame: read more
  kCorrupt = 2,     // framing or CRC violation: drop the connection
  kClosed = 3,      // read_frame only: the peer left at a frame boundary
};

// Server-side counters returned by kStats; the CI smoke test asserts
// failed == 0 across a hot-swap under load.
struct ServerStats {
  std::uint64_t served = 0;   // queries answered with status kOk
  std::uint64_t failed = 0;   // corrupt frames, bad requests, refused swaps
  std::uint64_t swaps = 0;    // completed hot-swaps
  std::uint64_t clients = 0;  // currently connected clients
};

// --- frame codec (buffer level) -------------------------------------------

// Append one whole frame for `payload` to `out`.
void encode_frame(std::string& out, MsgType type, const std::string& payload);

// Try to decode one frame from the front of [data, data+size). On kOk,
// fills `frame` and sets `consumed` to the frame's total size; on
// kIncomplete leaves both untouched; on kCorrupt sets `error`.
FrameStatus decode_frame(const unsigned char* data, std::size_t size,
                         Frame& frame, std::size_t& consumed,
                         std::string* error);

// --- payload codecs --------------------------------------------------------

std::string encode_query_request(const QueryRequest& request);
bool decode_query_request(const std::string& payload, QueryRequest& request);

std::string encode_query_response(const QueryResponse& response);
bool decode_query_response(const std::string& payload,
                           QueryResponse& response);

std::string encode_stats(const ServerStats& stats);
bool decode_stats(const std::string& payload, ServerStats& stats);

// kSwap payload and kError payload are one length-prefixed string.
std::string encode_text(const std::string& text);
bool decode_text(const std::string& payload, std::string& text);

// --- fd I/O ----------------------------------------------------------------

// Blocking full-frame send/receive over a connected socket. write_frame
// returns false on error. read_frame returns kOk with a whole frame,
// kClosed when the connection ends before the first byte of a frame, and
// kCorrupt for a dropped frame: a CRC or framing violation, a connection
// that ends mid-frame, or — rejected before any payload is allocated or
// read — a header declaring more than `max_payload` payload bytes.
// Callers drop the connection on anything but kOk.
bool write_frame(int fd, MsgType type, const std::string& payload);
FrameStatus read_frame(int fd, Frame& frame, std::uint32_t max_payload);

}  // namespace cloudmap::serve
