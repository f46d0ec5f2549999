// Exhaustive corruption sweeps over the two untrusted-bytes surfaces the
// older sweeps (tests/test_snapshot_io.cpp, test_serve.cpp) did not cover:
// CMSHARD2 part files through the merge reader, and every serve frame type.
// The contract (DESIGN.md §14): EVERY single-byte flip and EVERY truncation
// of a valid artifact yields a clean diagnostic rejection — never a crash,
// never silent acceptance of different bytes. Plus the forged-header
// fail-fast regressions: a header that *declares* gigabytes must be refused
// by arithmetic against the actual input size, before any allocation.
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fixtures.h"
#include "infer/campaign.h"
#include "io/shard.h"
#include "io/snapshot.h"
#include "serve/protocol.h"

namespace cloudmap {
namespace {

// --- shared forgery helpers ------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

void patch_u32(std::string& bytes, std::size_t offset, std::uint32_t value) {
  ASSERT_LE(offset + 4, bytes.size());
  for (std::size_t i = 0; i < 4; ++i)
    bytes[offset + i] = static_cast<char>((value >> (8 * i)) & 0xFF);
}

std::uint32_t crc_of(const std::string& bytes, std::size_t offset,
                     std::size_t size) {
  return snapshot_crc32(
      reinterpret_cast<const unsigned char*>(bytes.data()) + offset, size);
}

// --- shard part fixtures ---------------------------------------------------

Campaign::SweepChunkResult sample_result(std::uint32_t salt) {
  Campaign::SweepChunkResult result;
  result.traceroutes = 3 + salt;
  result.probes = 40 + salt;
  result.walk.examined = 3 + salt;
  result.walk.extracted = 2;
  result.adjacencies = {{0x0A000001u + salt, 0x0A000002u + salt}};
  CandidateSegment segment;
  segment.cbi = Ipv4(203, 0, 113, static_cast<std::uint8_t>(9 + salt));
  segment.abi = Ipv4(10, 0, 0, 2);
  segment.destination = Ipv4(198, 51, 100, 7);
  segment.region = RegionId{1};
  segment.abi_rtt_ms = 12.5;
  segment.cbi_rtt_ms = 14.25;
  segment.hop_density = 0.75;
  result.segments = {segment};
  return result;
}

// One finished single-shard part with `total` records, as raw bytes.
std::string part_bytes(const std::string& scratch, std::uint64_t total) {
  ShardPartHeader header;
  header.config_digest = shard_digest("corrupt-sweep");
  header.round = 1;
  header.shard_index = 0;
  header.shard_count = 1;
  header.total_items = total;
  header.target_count = total;
  ShardPartWriter writer;
  std::string error;
  EXPECT_TRUE(writer.open(scratch, header, &error)) << error;
  for (std::uint64_t item = 0; item < total; ++item)
    EXPECT_TRUE(writer.append(
        item, sample_result(static_cast<std::uint32_t>(item)), &error))
        << error;
  EXPECT_TRUE(writer.finish(&error)) << error;
  return read_file(scratch);
}

// Drain one part set through the merge. True only if every record of every
// part parses and the merge completes — i.e. the bytes were fully accepted.
bool merge_accepts(const std::vector<std::string>& paths) {
  ShardMerge merge;
  std::string error;
  if (!merge.open(paths, &error)) return false;
  Campaign::SweepChunkResult result;
  try {
    while (merge.next(result)) {
    }
  } catch (const std::runtime_error&) {
    return false;
  }
  return true;
}

// --- CMSHARD2 sweeps -------------------------------------------------------

TEST(CorruptSweep, ShardPartEveryByteFlipIsRejected) {
  const std::string dir = testing::TempDir();
  const std::string good = part_bytes(dir + "sweepflip_make.part", 3);
  const std::string victim = dir + "sweepflip_case.part";
  ASSERT_TRUE(merge_accepts({dir + "sweepflip_make.part"}));

  for (std::size_t at = 0; at < good.size(); ++at) {
    std::string bytes = good;
    bytes[at] = static_cast<char>(bytes[at] ^ 0xFF);
    write_file(victim, bytes);
    EXPECT_FALSE(merge_accepts({victim})) << "flip at byte " << at
                                          << " was accepted";
  }
}

TEST(CorruptSweep, ShardPartEveryTruncationIsRejected) {
  const std::string dir = testing::TempDir();
  const std::string good = part_bytes(dir + "sweeptrunc_make.part", 3);
  const std::string victim = dir + "sweeptrunc_case.part";

  for (std::size_t keep = 0; keep < good.size(); ++keep) {
    write_file(victim, good.substr(0, keep));
    EXPECT_FALSE(merge_accepts({victim}))
        << "truncation to " << keep << " bytes was accepted";
  }
}

// --- serve frame sweeps (every frame type the daemon emits or accepts) -----

std::vector<std::pair<std::string, std::string>> all_frames() {
  using namespace serve;
  QueryRequest request;
  request.kind = QueryKind::kLookup;
  request.address = 0xCB007109u;
  request.min_confidence = 0.5;
  request.want_briefs = true;

  QueryResponse response;
  response.kind = QueryKind::kLookup;
  response.items = {0, 1, 2};
  SegmentBrief brief;
  brief.index = 1;
  brief.abi = 0x0A000002u;
  brief.cbi = 0xCB007109u;
  brief.peer_asn = 64512;
  brief.confirmation = 2;
  brief.ixp = true;
  brief.confidence = 0.625;
  response.briefs = {brief};
  response.counts.emplace();
  response.counts->segments = 2;
  response.histogram.emplace();
  response.histogram->segments = 2;
  response.found = true;
  response.prefix_network = 0xCB007100u;
  response.prefix_length = 24;
  response.role_cbi = true;

  ServerStats stats;
  stats.served = 128;
  stats.clients = 3;

  std::vector<std::pair<std::string, std::string>> frames;
  const auto add = [&frames](const char* name, MsgType type,
                             const std::string& payload) {
    std::string frame;
    serve::encode_frame(frame, type, payload);
    frames.emplace_back(name, frame);
  };
  add("query", MsgType::kQuery, encode_query_request(request));
  add("reply", MsgType::kReply, encode_query_response(response));
  add("stats", MsgType::kStats, encode_stats(stats));
  add("error", MsgType::kError, encode_text("no snapshot loaded"));
  add("swap", MsgType::kSwap, encode_text("/tmp/fabric.snap"));
  add("ping", MsgType::kPing, "");
  return frames;
}

TEST(CorruptSweep, EveryFrameTypeEveryByteFlipIsRejected) {
  for (const auto& [name, good] : all_frames()) {
    for (std::size_t at = 0; at < good.size(); ++at) {
      std::string bytes = good;
      bytes[at] = static_cast<char>(bytes[at] ^ 0xFF);
      serve::Frame frame;
      std::size_t consumed = 0;
      std::string error;
      const serve::FrameStatus status = serve::decode_frame(
          reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size(),
          frame, consumed, &error);
      // A flip in the length prefix may present as a short read
      // (kIncomplete); anything else must be kCorrupt. Never kOk.
      EXPECT_NE(status, serve::FrameStatus::kOk)
          << name << " frame: flip at byte " << at << " was accepted";
    }
  }
}

TEST(CorruptSweep, EveryFrameTypeEveryTruncationIsRejected) {
  for (const auto& [name, good] : all_frames()) {
    for (std::size_t keep = 0; keep < good.size(); ++keep) {
      const std::string bytes = good.substr(0, keep);
      serve::Frame frame;
      std::size_t consumed = 0;
      std::string error;
      const serve::FrameStatus status = serve::decode_frame(
          reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size(),
          frame, consumed, &error);
      EXPECT_NE(status, serve::FrameStatus::kOk)
          << name << " frame truncated to " << keep << " bytes was accepted";
    }
  }
}

// --- forged-header fail-fast regressions (minimized reproducers also live
// --- in fuzz/corpus/) ------------------------------------------------------

// A container header declaring 4 billion sections must be refused by the
// count cap, not by attempting a 96 GiB table read.
TEST(ForgedHeader, SnapshotSectionCountFailsFast) {
  RunSnapshot snap;
  std::ostringstream out;
  save_snapshot(out, snap);
  std::string bytes = out.str();
  patch_u32(bytes, 8, 0xFFFFFFFFu);

  std::istringstream in(bytes);
  std::string error;
  EXPECT_FALSE(load_snapshot(in, &error).has_value());
  EXPECT_FALSE(error.empty());
}

// A segments section declaring 0xFFFFFFFF records — with its section CRC
// re-stamped so the forgery reaches the record decoder — must be refused by
// the count-vs-remaining-bytes cap before any reserve. The segments section
// exists only in the v1/v2 layouts, so the forgery starts from the
// committed v2 file; it yields the committed reproducer byte for byte.
TEST(ForgedHeader, SnapshotSegmentCountFailsFast) {
  std::string bytes = testfx::corpus_bytes("snapshot/v2.snap");

  // Find the segments section (id 2) in the table.
  std::uint32_t section_count = 0;
  for (std::size_t i = 0; i < 4; ++i)
    section_count |= std::uint32_t{
        static_cast<unsigned char>(bytes[8 + i])} << (8 * i);
  std::size_t entry = 0;
  for (std::uint32_t s = 0; s < section_count; ++s)
    if (static_cast<unsigned char>(bytes[12 + s * 24]) == 2) {
      entry = 12 + s * 24;
      break;
    }
  ASSERT_NE(entry, 0u);
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    offset |= std::uint64_t{
        static_cast<unsigned char>(bytes[entry + 4 + i])} << (8 * i);
    size |= std::uint64_t{
        static_cast<unsigned char>(bytes[entry + 12 + i])} << (8 * i);
  }
  patch_u32(bytes, static_cast<std::size_t>(offset), 0xFFFFFFFFu);
  patch_u32(bytes, entry + 20,
            crc_of(bytes, static_cast<std::size_t>(offset),
                   static_cast<std::size_t>(size)));
  EXPECT_EQ(bytes,
            testfx::corpus_bytes("snapshot/regress-forged-segment-count.snap"));

  std::istringstream in(bytes);
  std::string error;
  EXPECT_FALSE(load_snapshot(in, &error).has_value());
  EXPECT_FALSE(error.empty());
}

// A part header declaring 2^28 records in a ~600-byte file — header CRC
// re-stamped so the forgery passes integrity and reaches the cap — must be
// refused at open by arithmetic against the file size.
TEST(ForgedHeader, ShardRecordCountFailsFast) {
  const std::string dir = testing::TempDir();
  std::string bytes = part_bytes(dir + "forgedcount_make.part", 2);
  patch_u32(bytes, 44, 0x10000000u);
  patch_u32(bytes, 48, 0);
  patch_u32(bytes, 52, crc_of(bytes, 0, 52));
  const std::string victim = dir + "forgedcount_case.part";
  write_file(victim, bytes);

  ShardPartReader reader;
  std::string error;
  EXPECT_FALSE(reader.open(victim, &error));
  EXPECT_NE(error.find("records"), std::string::npos) << error;
}

// A record declaring a ~4 GiB payload must be refused by the
// size-vs-remaining-bytes cap, with a diagnostic — never an allocation.
TEST(ForgedHeader, ShardPayloadSizeFailsFast) {
  const std::string dir = testing::TempDir();
  std::string bytes = part_bytes(dir + "forgedsize_make.part", 2);
  patch_u32(bytes, 56 + 8, 0xFFFFFFF0u);
  const std::string victim = dir + "forgedsize_case.part";
  write_file(victim, bytes);

  ShardPartReader reader;
  std::string error;
  ASSERT_TRUE(reader.open(victim, &error)) << error;
  std::uint64_t item = 0;
  Campaign::SweepChunkResult result;
  try {
    reader.next(item, result);
    FAIL() << "forged 4 GiB payload size was accepted";
  } catch (const std::runtime_error& caught) {
    EXPECT_NE(std::string(caught.what()).find("payload"), std::string::npos)
        << caught.what();
  }
}

}  // namespace
}  // namespace cloudmap
