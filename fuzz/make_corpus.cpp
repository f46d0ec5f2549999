// Deterministic seed-corpus generator. Writes the committed corpus under
// fuzz/corpus/{snapshot,shard,wire}/ using the repo's own encoders: valid
// inputs that reach deep into section/record/payload parsing (the mutators
// keep their envelopes valid), plus hand-forged regression inputs — one per
// parser bug class fixed by the hardening pass — so corpus replay re-checks
// every fix on every build.
//
//   cloudmap_make_corpus <repo>/fuzz/corpus
//
// Output is a pure function of this file: regenerating must be a no-op
// unless the wire formats changed (then re-run and commit the result).
// The legacy snapshot files (v1.snap, v2.snap and
// regress-forged-segment-count.snap) are not written here: the v1/v2
// writer is gone, so they are frozen bytes that keep the loader's legacy
// decoders under test.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/shard.h"
#include "io/snapshot.h"
#include "io/wire.h"
#include "serve/protocol.h"

namespace {

using namespace cloudmap;

void write_file(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "make_corpus: cannot write %s\n",
                 path.string().c_str());
    std::exit(1);
  }
}

void patch_u32(std::string& bytes, std::size_t offset, std::uint32_t value) {
  for (std::size_t i = 0; i < 4; ++i)
    bytes[offset + i] = static_cast<char>((value >> (8 * i)) & 0xFF);
}

std::uint32_t crc_of(const std::string& bytes, std::size_t offset,
                     std::size_t size) {
  return snapshot_crc32(
      reinterpret_cast<const unsigned char*>(bytes.data()) + offset, size);
}

std::uint64_t read_le(const std::string& bytes, std::size_t offset,
                      std::size_t width) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < width; ++i)
    value |= std::uint64_t{static_cast<unsigned char>(bytes[offset + i])}
             << (8 * i);
  return value;
}

// A section of a CMSNAP file: where its table entry sits (u32 id, u64
// offset, u64 size, u32 CRC at 12 + 24·i) and where its payload sits.
struct SectionEntry {
  std::size_t entry = 0;
  std::size_t offset = 0;
  std::size_t size = 0;
};

SectionEntry find_section(const std::string& bytes, std::uint32_t id) {
  const auto count = static_cast<std::size_t>(read_le(bytes, 8, 4));
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t entry = 12 + i * 24;
    if (read_le(bytes, entry, 4) == id)
      return {entry, static_cast<std::size_t>(read_le(bytes, entry + 4, 8)),
              static_cast<std::size_t>(read_le(bytes, entry + 12, 8))};
  }
  std::fprintf(stderr, "make_corpus: no section %u\n", id);
  std::exit(1);
}

// A snapshot exercising every section and optional field (same shape as
// the tests' sample_snapshot, duplicated here so the corpus does not
// depend on the test tree).
RunSnapshot sample_snapshot() {
  RunSnapshot snap;
  snap.seed = 424242;
  snap.threads = 3;
  snap.subject = 0;

  SnapshotSegment seg;
  seg.abi = Ipv4(10, 0, 0, 2);
  seg.cbi = Ipv4(203, 0, 113, 9);
  seg.prior_abi = Ipv4(10, 0, 0, 1);
  seg.post_cbi = Ipv4(203, 0, 113, 10);
  seg.first_round = 2;
  seg.confirmation = Confirmation::kReachability;
  seg.shifted = true;
  seg.ixp = true;
  seg.peer_asn = Asn{64512};
  seg.peer_org = OrgId{7};
  seg.group = 1;
  seg.regions = {1, 3, 5};
  seg.dest_slash24s = {0xC0000200u, 0xCB007100u};
  seg.observations = 7;
  seg.rounds_mask = 0b11;
  seg.hop_density = 0.875;
  seg.confidence = 0.625;

  SnapshotSegment other;
  other.abi = Ipv4(10, 0, 0, 1);
  other.cbi = Ipv4(198, 51, 100, 4);
  other.confirmation = Confirmation::kIxpClient;
  other.vpi = true;
  other.owner_hint = Asn{64500};
  other.observations = 1;
  other.rounds_mask = 0b01;
  other.hop_density = 1.0;
  other.confidence = 0.75;

  snap.segments = {seg, other};
  snap.pins.push_back({0x0A000001u, 2, 0, 1, 0});
  snap.pins.push_back({0xCB007109u, 4, 1, 2, 1});
  snap.regional = {{0xC6336404u, 9}};
  snap.alias_sets = {{0x0A000002u, 0xCB007109u}};

  StageReport report;
  report.id = StageId::kRound1;
  report.threads = 3;
  report.workers = 2;
  report.wall_ms = 12.5;
  report.targets = 100;
  report.traceroutes = 99;
  report.probes = 1234;
  report.bgp_cache_hits = 7;
  report.bgp_cache_misses = 2;
  report.retries = 11;
  report.backoff_waits = 11;
  report.backoff_ticks = 704;
  report.recovered_targets = 5;
  report.worker_utilization = 0.75;
  report.tallies = {{"left_cloud", 42.0}};
  snap.stage_reports = {report};
  return snap;
}

std::string snapshot_bytes(const RunSnapshot& snap) {
  std::ostringstream out;
  save_snapshot(out, snap);
  return out.str();
}

void emit_snapshot_corpus(const std::filesystem::path& dir) {
  const RunSnapshot sample = sample_snapshot();
  write_file(dir / "v3.snap", snapshot_bytes(sample));

  RunSnapshot hazard = sample;
  hazard.hazard_profile = "loss:p=0.25;churn:rounds=2";
  hazard.hazard_metrics = {{"f1_delta", -0.125}, {"recall", 0.875}};
  const std::string hazard_bytes = snapshot_bytes(hazard);
  write_file(dir / "v3-hazard.snap", hazard_bytes);

  write_file(dir / "empty.snap", snapshot_bytes(RunSnapshot{}));

  // Regression: v3-hazard.snap with the hazard section's metric count set
  // to 0 and its CRC re-stamped, so the container verifies but section 8
  // ends in unread bytes. The copying loader refused it while the mmap
  // loader, then a second section-table walk that skipped section 8,
  // served it; both loaders now share one container parser.
  std::string forged = hazard_bytes;
  const SectionEntry section = find_section(forged, 8);
  const auto profile_length =
      static_cast<std::size_t>(read_le(forged, section.offset, 4));
  patch_u32(forged, section.offset + 4 + profile_length, 0);
  patch_u32(forged, section.entry + 20,
            crc_of(forged, section.offset, section.size));
  write_file(dir / "regress-mapper-skips-hazard-section.snap", forged);
}

Campaign::SweepChunkResult sample_result(std::uint32_t salt) {
  Campaign::SweepChunkResult result;
  result.traceroutes = 3 + salt;
  result.probes = 40 + salt;
  result.retried_targets = 1;
  result.retries = 2;
  result.backoff_waits = 1;
  result.backoff_ticks = 16;
  result.recovered_targets = 1;
  result.walk.examined = 3 + salt;
  result.walk.extracted = 2;
  result.walk.never_left_cloud = 1;
  result.adjacencies = {{0x0A000001u + salt, 0x0A000002u + salt}};
  CandidateSegment segment;
  segment.cbi = Ipv4(203, 0, 113, static_cast<std::uint8_t>(9 + salt));
  segment.abi = Ipv4(10, 0, 0, static_cast<std::uint8_t>(2 + salt));
  segment.prior_abi = Ipv4(10, 0, 0, 1);
  segment.post_cbi = Ipv4(203, 0, 113, 10);
  segment.destination = Ipv4(198, 51, 100, 7);
  segment.region = RegionId{1 + salt};
  segment.abi_rtt_ms = 12.5;
  segment.cbi_rtt_ms = 14.25;
  segment.hop_density = 0.75;
  result.segments = {segment};
  return result;
}

std::string shard_part_bytes(std::uint32_t shard_index,
                             std::uint32_t shard_count,
                             std::uint64_t total_items,
                             const std::filesystem::path& scratch) {
  ShardPartHeader header;
  header.config_digest = shard_digest("fuzz-corpus-seed");
  header.round = 1;
  header.shard_index = shard_index;
  header.shard_count = shard_count;
  header.total_items = total_items;
  header.target_count = total_items;

  ShardPartWriter writer;
  std::string error;
  if (!writer.open(scratch.string(), header, &error)) {
    std::fprintf(stderr, "make_corpus: %s\n", error.c_str());
    std::exit(1);
  }
  for (std::uint64_t item = shard_index; item < total_items;
       item += shard_count) {
    if (!writer.append(item, sample_result(static_cast<std::uint32_t>(item)),
                       &error)) {
      std::fprintf(stderr, "make_corpus: %s\n", error.c_str());
      std::exit(1);
    }
  }
  if (!writer.finish(&error)) {
    std::fprintf(stderr, "make_corpus: %s\n", error.c_str());
    std::exit(1);
  }
  std::ifstream in(scratch, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::filesystem::remove(scratch);
  return bytes;
}

void emit_shard_corpus(const std::filesystem::path& dir) {
  const std::filesystem::path scratch = dir / ".scratch.part";
  write_file(dir / "single.part", shard_part_bytes(0, 1, 3, scratch));
  // The two-part-merge half-split in fuzz_shard lines these up as a pair.
  const std::string part0 = shard_part_bytes(0, 2, 4, scratch);
  const std::string part1 = shard_part_bytes(1, 2, 4, scratch);
  write_file(dir / "pair.parts", part0 + part1);
  write_file(dir / "part0of2.part", part0);

  // Regression: record 0 declares a ~4 GiB payload. The size-vs-remaining
  // cap must fail fast with a diagnostic, never allocate.
  std::string forged_size = shard_part_bytes(0, 1, 2, scratch);
  patch_u32(forged_size, 56 + 8, 0xFFFFFFF0u);
  write_file(dir / "regress-forged-payload-size.part", forged_size);

  // Regression: header declares 0x10000000 records in a tiny file; the
  // record-count-vs-file-size cap rejects it at open. Header CRC is
  // re-stamped so the forgery passes the integrity check and reaches the
  // cap (that is the code path under test).
  std::string forged_count = shard_part_bytes(0, 1, 2, scratch);
  patch_u32(forged_count, 44, 0x10000000u);
  patch_u32(forged_count, 48, 0);
  patch_u32(forged_count, 52, crc_of(forged_count, 0, 52));
  write_file(dir / "regress-forged-record-count.part", forged_count);

  // Regression: a record whose payload declares 0x20000000 adjacencies.
  // decode_result's bounded_count must refuse before the reserve. The
  // payload CRC is over the forged bytes, so the record passes CRC and
  // dies (cleanly) in the decoder.
  std::string forged_adj = shard_part_bytes(0, 1, 1, scratch);
  const std::size_t payload_start = 56 + 12;
  patch_u32(forged_adj, payload_start + 15 * 8, 0x20000000u);
  std::uint32_t payload_size = 0;
  for (std::size_t i = 0; i < 4; ++i)
    payload_size |= std::uint32_t{
        static_cast<unsigned char>(forged_adj[56 + 8 + i])} << (8 * i);
  patch_u32(forged_adj, payload_start + payload_size,
            crc_of(forged_adj, payload_start, payload_size));
  write_file(dir / "regress-forged-adjacency-count.part", forged_adj);
}

std::string frame_of(serve::MsgType type, const std::string& payload) {
  std::string out;
  serve::encode_frame(out, type, payload);
  return out;
}

void emit_wire_corpus(const std::filesystem::path& dir) {
  using namespace cloudmap::serve;

  QueryRequest query;
  query.kind = QueryKind::kPeersOf;
  query.asn = 64512;
  query.metro = 2;
  query.address = 0xCB007109u;
  query.min_confidence = 0.5;
  query.want_briefs = true;
  write_file(dir / "query.frame",
             frame_of(MsgType::kQuery, encode_query_request(query)));

  QueryResponse response;
  response.status = QueryStatus::kOk;
  response.kind = QueryKind::kLookup;
  response.items = {0, 1, 2};
  SegmentBrief brief;
  brief.index = 1;
  brief.abi = 0x0A000002u;
  brief.cbi = 0xCB007109u;
  brief.peer_asn = 64512;
  brief.confirmation = 2;
  brief.ixp = true;
  brief.vpi = false;
  brief.confidence = 0.625;
  response.briefs = {brief};
  response.counts.emplace();
  response.counts->segments = 2;
  response.counts->mean_confidence = 0.6875;
  response.histogram.emplace();
  response.histogram->segments = 2;
  response.histogram->mean = 0.6875;
  response.found = true;
  response.prefix_network = 0xCB007100u;
  response.prefix_length = 24;
  response.is_interface = true;
  response.role_cbi = true;
  write_file(dir / "reply.frame",
             frame_of(MsgType::kReply, encode_query_response(response)));

  ServerStats stats;
  stats.served = 128;
  stats.failed = 1;
  stats.swaps = 2;
  stats.clients = 3;
  const std::string stats_frame =
      frame_of(MsgType::kStats, encode_stats(stats));
  write_file(dir / "stats.frame", stats_frame);
  write_file(dir / "error.frame",
             frame_of(MsgType::kError, encode_text("no snapshot loaded")));
  write_file(dir / "ping.frame", frame_of(MsgType::kPing, ""));

  // A stream of several back-to-back frames, as the server's read loop
  // sees them.
  write_file(dir / "stream.frames",
             frame_of(MsgType::kPing, "") + stats_frame +
                 frame_of(MsgType::kQuery, encode_query_request(query)));

  // Regression: a query frame whose kind byte is out of range (9). The
  // decoder must reject it (checked enum read) — it used to be cast
  // straight into QueryKind. Frame CRC re-stamped over the forged body.
  std::string bad_kind = frame_of(MsgType::kQuery,
                                  encode_query_request(query));
  bad_kind[4 + 1] = 9;
  patch_u32(bad_kind, bad_kind.size() - 4,
            crc_of(bad_kind, 4, bad_kind.size() - 8));
  write_file(dir / "regress-bad-query-kind.frame", bad_kind);

  // Regression: a lookup reply whose prefix_length is 200 (must be ≤ 32).
  std::string bad_prefix = frame_of(MsgType::kReply,
                                    encode_query_response(response));
  bad_prefix[bad_prefix.size() - 4 - 4] = static_cast<char>(200);
  patch_u32(bad_prefix, bad_prefix.size() - 4,
            crc_of(bad_prefix, 4, bad_prefix.size() - 8));
  write_file(dir / "regress-bad-prefix-length.frame", bad_prefix);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: cloudmap_make_corpus <corpus-dir>\n");
    return 2;
  }
  const std::filesystem::path root(argv[1]);
  for (const char* sub : {"snapshot", "shard", "wire"})
    std::filesystem::create_directories(root / sub);
  emit_snapshot_corpus(root / "snapshot");
  emit_shard_corpus(root / "shard");
  emit_wire_corpus(root / "wire");
  std::printf("corpus written under %s\n", root.string().c_str());
  return 0;
}
