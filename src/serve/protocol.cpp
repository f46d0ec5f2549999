#include "serve/protocol.h"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "io/snapshot.h"
#include "io/wire.h"

namespace cloudmap::serve {

namespace {

using wire::Cursor;

bool set_error(std::string* error, const char* message) {
  if (error != nullptr) *error = message;
  return false;
}

void put_brief(std::string& out, const SegmentBrief& brief) {
  wire::put_u32(out, brief.index);
  wire::put_u32(out, brief.abi);
  wire::put_u32(out, brief.cbi);
  wire::put_u32(out, brief.peer_asn);
  wire::put_u8(out, brief.confirmation);
  wire::put_u8(out, brief.ixp ? 1 : 0);
  wire::put_u8(out, brief.vpi ? 1 : 0);
  wire::put_f64(out, brief.confidence);
}

SegmentBrief get_brief(Cursor& in) {
  SegmentBrief brief;
  brief.index = in.u32();
  brief.abi = in.u32();
  brief.cbi = in.u32();
  brief.peer_asn = in.u32();
  brief.confirmation = in.u8();
  brief.ixp = wire::get_bool(in);
  brief.vpi = wire::get_bool(in);
  brief.confidence = in.f64();
  return brief;
}

void put_counts(std::string& out, const FabricCounts& counts) {
  wire::put_u64(out, counts.segments);
  wire::put_u64(out, counts.unique_abis);
  wire::put_u64(out, counts.unique_cbis);
  wire::put_u64(out, counts.peer_ases);
  wire::put_u64(out, counts.peer_orgs);
  for (const std::size_t n : counts.by_confirmation) wire::put_u64(out, n);
  wire::put_u64(out, counts.ixp_segments);
  wire::put_u64(out, counts.vpi_cbis);
  for (const std::size_t n : counts.group_segments) wire::put_u64(out, n);
  for (const std::size_t n : counts.group_ases) wire::put_u64(out, n);
  wire::put_u64(out, counts.unattributed_segments);
  wire::put_u64(out, counts.pinned_interfaces);
  wire::put_u64(out, counts.regional_only);
  wire::put_f64(out, counts.mean_confidence);
  wire::put_u64(out, counts.confident_segments);
}

FabricCounts get_counts(Cursor& in) {
  FabricCounts counts;
  counts.segments = in.u64();
  counts.unique_abis = in.u64();
  counts.unique_cbis = in.u64();
  counts.peer_ases = in.u64();
  counts.peer_orgs = in.u64();
  for (std::size_t& n : counts.by_confirmation) n = in.u64();
  counts.ixp_segments = in.u64();
  counts.vpi_cbis = in.u64();
  for (std::size_t& n : counts.group_segments) n = in.u64();
  for (std::size_t& n : counts.group_ases) n = in.u64();
  counts.unattributed_segments = in.u64();
  counts.pinned_interfaces = in.u64();
  counts.regional_only = in.u64();
  counts.mean_confidence = in.f64();
  counts.confident_segments = in.u64();
  return counts;
}

void put_histogram(std::string& out, const ConfidenceHistogram& histogram) {
  for (const std::size_t n : histogram.bins) wire::put_u64(out, n);
  wire::put_u64(out, histogram.segments);
  wire::put_f64(out, histogram.mean);
  wire::put_f64(out, histogram.min);
  wire::put_f64(out, histogram.max);
}

ConfidenceHistogram get_histogram(Cursor& in) {
  ConfidenceHistogram histogram;
  for (std::size_t& n : histogram.bins) n = in.u64();
  histogram.segments = in.u64();
  histogram.mean = in.f64();
  histogram.min = in.f64();
  histogram.max = in.f64();
  return histogram;
}

// Read until `size` bytes arrived or the connection ended (orderly EOF or
// error); returns how many bytes arrived.
std::size_t read_up_to(int fd, unsigned char* into, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::recv(fd, into + done, size - done, 0);
    if (n == 0) break;  // orderly EOF
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    done += static_cast<std::size_t>(n);
  }
  return done;
}

bool write_all(int fd, const char* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::send(fd, data + done, size - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

void encode_frame(std::string& out, MsgType type,
                  const std::string& payload) {
  wire::put_u32(out, static_cast<std::uint32_t>(1 + payload.size() + 4));
  const std::size_t body_start = out.size();
  wire::put_u8(out, static_cast<std::uint8_t>(type));
  out.append(payload);
  const std::uint32_t crc = snapshot_crc32(
      reinterpret_cast<const unsigned char*>(out.data()) + body_start,
      1 + payload.size());
  wire::put_u32(out, crc);
}

FrameStatus decode_frame(const unsigned char* data, std::size_t size,
                         Frame& frame, std::size_t& consumed,
                         std::string* error) {
  if (size < 4) return FrameStatus::kIncomplete;
  Cursor header{data, size, 0};
  const std::uint32_t length = header.u32();
  if (length < 5) {
    set_error(error, "frame shorter than type + CRC");
    return FrameStatus::kCorrupt;
  }
  if (length > kMaxFramePayload + 5) {
    set_error(error, "frame exceeds maximum payload size");
    return FrameStatus::kCorrupt;
  }
  if (size - 4 < length) return FrameStatus::kIncomplete;
  const unsigned char* body = data + 4;
  const std::size_t body_size = length - 4;  // type + payload
  Cursor crc_cursor{body + body_size, 4, 0};
  const std::uint32_t stored_crc = crc_cursor.u32();
  if (snapshot_crc32(body, body_size) != stored_crc) {
    set_error(error, "frame CRC mismatch");
    return FrameStatus::kCorrupt;
  }
  frame.type = static_cast<MsgType>(body[0]);
  frame.payload.assign(reinterpret_cast<const char*>(body) + 1,
                       body_size - 1);
  consumed = 4 + std::size_t{length};
  return FrameStatus::kOk;
}

std::string encode_query_request(const QueryRequest& request) {
  std::string out;
  wire::put_u8(out, static_cast<std::uint8_t>(request.kind));
  wire::put_u32(out, request.asn);
  wire::put_u32(out, request.metro);
  wire::put_u32(out, request.address);
  wire::put_f64(out, request.min_confidence);
  wire::put_u8(out, request.want_briefs ? 1 : 0);
  return out;
}

bool decode_query_request(const std::string& payload, QueryRequest& request) {
  Cursor in{reinterpret_cast<const unsigned char*>(payload.data()),
            payload.size(), 0};
  request.kind = wire::checked_read<QueryKind>(in, kQueryKindCount - 1);
  request.asn = in.u32();
  request.metro = in.u32();
  request.address = in.u32();
  request.min_confidence = in.f64();
  request.want_briefs = wire::get_bool(in);
  return in.at_end();
}

std::string encode_query_response(const QueryResponse& response) {
  std::string out;
  wire::put_u8(out, static_cast<std::uint8_t>(response.status));
  wire::put_u8(out, static_cast<std::uint8_t>(response.kind));
  wire::put_string(out, response.error);
  wire::put_u32(out, static_cast<std::uint32_t>(response.items.size()));
  for (const std::uint32_t item : response.items) wire::put_u32(out, item);
  wire::put_u32(out, static_cast<std::uint32_t>(response.briefs.size()));
  for (const SegmentBrief& brief : response.briefs) put_brief(out, brief);
  wire::put_u8(out, response.counts.has_value() ? 1 : 0);
  if (response.counts) put_counts(out, *response.counts);
  wire::put_u8(out, response.histogram.has_value() ? 1 : 0);
  if (response.histogram) put_histogram(out, *response.histogram);
  wire::put_u8(out, response.found ? 1 : 0);
  wire::put_u32(out, response.prefix_network);
  wire::put_u8(out, response.prefix_length);
  wire::put_u8(out, response.is_interface ? 1 : 0);
  wire::put_u8(out, response.role_abi ? 1 : 0);
  wire::put_u8(out, response.role_cbi ? 1 : 0);
  return out;
}

bool decode_query_response(const std::string& payload,
                           QueryResponse& response) {
  Cursor in{reinterpret_cast<const unsigned char*>(payload.data()),
            payload.size(), 0};
  response.status =
      wire::checked_read<QueryStatus>(in, 1);  // kOk / kBadRequest
  response.kind = wire::checked_read<QueryKind>(in, kQueryKindCount - 1);
  response.error = in.str();
  const std::uint32_t item_count = wire::bounded_count(in, 4);
  response.items.clear();
  response.items.reserve(item_count);
  for (std::uint32_t i = 0; i < item_count && !in.failed; ++i)
    response.items.push_back(in.u32());
  const std::uint32_t brief_count = wire::bounded_count(in, 27);
  response.briefs.clear();
  response.briefs.reserve(brief_count);
  for (std::uint32_t i = 0; i < brief_count && !in.failed; ++i)
    response.briefs.push_back(get_brief(in));
  response.counts.reset();
  if (wire::get_bool(in)) response.counts = get_counts(in);
  response.histogram.reset();
  if (wire::get_bool(in)) response.histogram = get_histogram(in);
  response.found = wire::get_bool(in);
  response.prefix_network = in.u32();
  response.prefix_length = wire::checked_read<std::uint8_t>(in, 32);
  response.is_interface = wire::get_bool(in);
  response.role_abi = wire::get_bool(in);
  response.role_cbi = wire::get_bool(in);
  return in.at_end();
}

std::string encode_stats(const ServerStats& stats) {
  std::string out;
  wire::put_u64(out, stats.served);
  wire::put_u64(out, stats.failed);
  wire::put_u64(out, stats.swaps);
  wire::put_u64(out, stats.clients);
  return out;
}

bool decode_stats(const std::string& payload, ServerStats& stats) {
  Cursor in{reinterpret_cast<const unsigned char*>(payload.data()),
            payload.size(), 0};
  stats.served = in.u64();
  stats.failed = in.u64();
  stats.swaps = in.u64();
  stats.clients = in.u64();
  return in.at_end();
}

std::string encode_text(const std::string& text) {
  std::string out;
  wire::put_string(out, text);
  return out;
}

bool decode_text(const std::string& payload, std::string& text) {
  Cursor in{reinterpret_cast<const unsigned char*>(payload.data()),
            payload.size(), 0};
  text = in.str();
  return in.at_end();
}

bool write_frame(int fd, MsgType type, const std::string& payload) {
  std::string frame;
  frame.reserve(4 + 1 + payload.size() + 4);
  encode_frame(frame, type, payload);
  return write_all(fd, frame.data(), frame.size());
}

FrameStatus read_frame(int fd, Frame& frame, std::uint32_t max_payload) {
  unsigned char length_bytes[4];
  const std::size_t header = read_up_to(fd, length_bytes, 4);
  if (header == 0) return FrameStatus::kClosed;
  if (header < 4) return FrameStatus::kCorrupt;
  Cursor length_cursor{length_bytes, 4, 0};
  const std::uint32_t length = length_cursor.u32();
  const std::uint32_t cap = std::min(max_payload, kMaxFramePayload);
  if (length < 5 || length > cap + 5) return FrameStatus::kCorrupt;
  std::string body(4 + std::size_t{length}, '\0');
  std::memcpy(body.data(), length_bytes, 4);
  if (read_up_to(fd, reinterpret_cast<unsigned char*>(body.data()) + 4,
                 length) < length)
    return FrameStatus::kCorrupt;
  std::size_t consumed = 0;
  const FrameStatus status =
      decode_frame(reinterpret_cast<const unsigned char*>(body.data()),
                   body.size(), frame, consumed, nullptr);
  return status == FrameStatus::kOk ? status : FrameStatus::kCorrupt;
}

}  // namespace cloudmap::serve
