// lint: hot-path
#include "io/snapshot.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "io/snapshot_v3.h"
#include "io/wire.h"

namespace cloudmap {

namespace {

constexpr char kMagic[6] = {'C', 'M', 'S', 'N', 'A', 'P'};
constexpr std::size_t kHeaderSize = 6 + 2 + 4;
constexpr std::size_t kTableEntrySize = 4 + 8 + 8 + 4;

// Little-endian append helpers and the bounds-checked read cursor live in
// io/wire.h (shared with the v3 flat blob and the serve protocol).
using wire::Cursor;
using wire::put_f64;
using wire::put_i32;
using wire::put_string;
using wire::put_u16;
using wire::put_u32;
using wire::put_u64;
using wire::put_u8;

// --- section payloads -----------------------------------------------------

// Padded to 20 bytes so the flat payload lands at file offset
// 12 + 2×24 + 20 = 80, a multiple of 8: the mmap path casts the payload to
// its record structs in place.
std::string encode_meta(const RunSnapshot& s) {
  std::string out;
  out.reserve(20);
  put_u64(out, s.seed);
  put_i32(out, s.threads);
  put_u8(out, s.subject);
  out.append(20 - out.size(), '\0');
  return out;
}

// Optional hazard-provenance section (id 8): profile spec string + sorted
// name→double scorecard metrics. Only written when the profile is
// non-empty, so hazard-free snapshots keep their exact pre-hazard bytes.
std::string encode_hazard(const RunSnapshot& s) {
  std::string out;
  std::size_t payload = 4 + s.hazard_profile.size() + 4;
  for (const auto& [name, value] : s.hazard_metrics)
    payload += 4 + name.size() + 8;
  out.reserve(payload);
  put_string(out, s.hazard_profile);
  put_u32(out, static_cast<std::uint32_t>(s.hazard_metrics.size()));
  for (const auto& [name, value] : s.hazard_metrics) {
    put_string(out, name);
    put_f64(out, value);
  }
  return out;
}

// --- section decoders (each over its own bounds-checked cursor) -----------

bool decode_meta(Cursor& in, SnapshotContainer& c) {
  c.seed = in.u64();
  c.threads = in.i32();
  c.subject = in.u8();
  // v3 pads the meta payload to 20 bytes for alignment; the reserved bytes
  // must be zero so they stay available for future fields.
  if (c.version >= 3)
    for (int i = 0; i < 7; ++i)
      if (in.u8() != 0) return false;
  return in.at_end();
}

bool decode_segments(Cursor& in, RunSnapshot& s) {
  // Every declared count below is capped against the bytes actually
  // present (wire::bounded_count) before the reserve, so a forged count
  // field fails the section instead of reaching the allocator.
  const std::uint32_t count = wire::bounded_count(in, 43);
  for (std::uint32_t i = 0; i < count && !in.failed; ++i) {
    SnapshotSegment seg;
    seg.abi = Ipv4(in.u32());
    seg.cbi = Ipv4(in.u32());
    seg.prior_abi = Ipv4(in.u32());
    seg.post_cbi = Ipv4(in.u32());
    seg.first_round = in.i32();
    seg.confirmation = wire::checked_read<Confirmation>(
        in, static_cast<std::uint8_t>(Confirmation::kAliasRelabel));
    const std::uint8_t flags = in.u8();
    if (flags > 7) return false;
    seg.shifted = (flags & 1) != 0;
    seg.ixp = (flags & 2) != 0;
    seg.vpi = (flags & 4) != 0;
    seg.group = in.u8();
    if (seg.group != kSnapshotNoGroup && seg.group >= 6) return false;
    seg.owner_hint = Asn{in.u32()};
    seg.peer_asn = Asn{in.u32()};
    seg.peer_org = OrgId{in.u32()};
    const std::uint32_t region_count = wire::bounded_count(in, 4);
    seg.regions.reserve(region_count);
    for (std::uint32_t r = 0; r < region_count && !in.failed; ++r)
      seg.regions.push_back(in.u32());
    const std::uint32_t dest_count = wire::bounded_count(in, 4);
    seg.dest_slash24s.reserve(dest_count);
    for (std::uint32_t d = 0; d < dest_count && !in.failed; ++d)
      seg.dest_slash24s.push_back(in.u32());
    s.segments.push_back(std::move(seg));
  }
  return in.at_end();
}

bool decode_pins(Cursor& in, RunSnapshot& s) {
  const std::uint32_t pin_count = wire::bounded_count(in, 14);
  for (std::uint32_t i = 0; i < pin_count && !in.failed; ++i) {
    SnapshotPin pin;
    pin.address = in.u32();
    pin.metro = in.u32();
    pin.rule = wire::checked_read<std::uint8_t>(in, 2);  // PinRule range
    pin.anchor_source =
        wire::checked_read<std::uint8_t>(in, 4);  // AnchorSource range
    pin.round = in.i32();
    s.pins.push_back(pin);
  }
  const std::uint32_t regional_count = wire::bounded_count(in, 8);
  for (std::uint32_t i = 0; i < regional_count && !in.failed; ++i) {
    const std::uint32_t address = in.u32();
    const std::uint32_t region = in.u32();
    s.regional.emplace_back(address, region);
  }
  return in.at_end();
}

bool decode_aliases(Cursor& in, RunSnapshot& s) {
  const std::uint32_t set_count = wire::bounded_count(in, 4);
  for (std::uint32_t i = 0; i < set_count && !in.failed; ++i) {
    const std::uint32_t member_count = wire::bounded_count(in, 4);
    std::vector<std::uint32_t> set;
    set.reserve(member_count);
    for (std::uint32_t m = 0; m < member_count && !in.failed; ++m)
      set.push_back(in.u32());
    s.alias_sets.push_back(std::move(set));
  }
  return in.at_end();
}

bool decode_metrics(Cursor& in, RunSnapshot& s, std::uint16_t version) {
  // 69 bytes is the v1 per-report floor; v2 reports are larger, so the
  // count-vs-bytes cap below is valid for both layouts.
  const std::uint32_t report_count = wire::bounded_count(in, 69);
  for (std::uint32_t i = 0; i < report_count && !in.failed; ++i) {
    StageReport report;
    report.id = wire::checked_read<StageId>(in, kStageCount - 1);
    report.threads = in.i32();
    report.workers = in.u32();
    report.targets = in.u64();
    report.traceroutes = in.u64();
    report.probes = in.u64();
    report.bgp_cache_hits = in.u64();
    report.bgp_cache_misses = in.u64();
    if (version >= 2) {
      report.retries = in.u64();
      report.backoff_waits = in.u64();
      report.backoff_ticks = in.u64();
      report.recovered_targets = in.u64();
    }
    report.wall_ms = in.f64();
    report.worker_utilization = in.f64();
    // 12 = u32 name length (empty name) + f64 value.
    const std::uint32_t tally_count = wire::bounded_count(in, 12);
    for (std::uint32_t t = 0; t < tally_count && !in.failed; ++t) {
      std::string name = in.str();
      const double value = in.f64();
      report.tallies.emplace_back(std::move(name), value);
    }
    s.stage_reports.push_back(std::move(report));
  }
  return in.at_end();
}

// One decoded confidence record; buffered instead of applied in place so a
// count that disagrees with the segments section is reported as such once
// both sections decoded.
struct ConfidenceRecord {
  std::uint32_t observations = 0;
  std::uint32_t rounds_mask = 0;
  double hop_density = 0.0;
  double confidence = 0.0;
};

bool decode_confidence(Cursor& in, std::vector<ConfidenceRecord>& records) {
  const std::uint32_t count = wire::bounded_count(in, 24);
  records.reserve(count);
  for (std::uint32_t i = 0; i < count && !in.failed; ++i) {
    ConfidenceRecord record;
    record.observations = in.u32();
    record.rounds_mask = in.u32();
    record.hop_density = in.f64();
    record.confidence = in.f64();
    // Both are scores in [0, 1]; the negated comparisons also reject NaN.
    if (!(record.hop_density >= 0.0) || record.hop_density > 1.0) return false;
    if (!(record.confidence >= 0.0) || record.confidence > 1.0) return false;
    records.push_back(record);
  }
  return in.at_end();
}

bool decode_hazard(Cursor& in, SnapshotContainer& c) {
  c.hazard_profile = in.str();
  // The writer omits the section for an empty profile; a present-but-empty
  // one would not re-save byte-identically, so it is malformed.
  if (c.hazard_profile.empty()) return false;
  // 12 = u32 name length (empty name) + f64 value.
  const std::uint32_t metric_count = wire::bounded_count(in, 12);
  for (std::uint32_t i = 0; i < metric_count && !in.failed; ++i) {
    std::string name = in.str();
    const double value = in.f64();
    c.hazard_metrics.emplace_back(std::move(name), value);
  }
  return in.at_end();
}

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

std::uint32_t snapshot_crc32(const unsigned char* data, std::size_t size) {
  // Slicing-by-8: t[0] is the classic reflected byte table; t[k][i] is the
  // CRC of byte i followed by k zero bytes, so one step folds eight input
  // bytes with eight independent lookups. Words are assembled from bytes
  // explicitly, so the loop is endian-neutral and needs no alignment.
  using Tables = std::array<std::array<std::uint32_t, 256>, 8>;
  static const Tables t = [] {
    Tables tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      tables[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
      for (std::size_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = tables[k - 1][i];
        tables[k][i] = tables[0][prev & 0xFF] ^ (prev >> 8);
      }
    return tables;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo =
        crc ^ (std::uint32_t{data[0]} | std::uint32_t{data[1]} << 8 |
               std::uint32_t{data[2]} << 16 | std::uint32_t{data[3]} << 24);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
          t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^ t[3][data[4]] ^
          t[2][data[5]] ^ t[1][data[6]] ^ t[0][data[7]];
  }
  for (; size > 0; ++data, --size)
    crc = t[0][(crc ^ *data) & 0xFF] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

void canonicalize(RunSnapshot& snapshot) {
  std::sort(snapshot.segments.begin(), snapshot.segments.end(),
            [](const SnapshotSegment& a, const SnapshotSegment& b) {
              if (a.abi != b.abi) return a.abi < b.abi;
              return a.cbi < b.cbi;
            });
  for (SnapshotSegment& seg : snapshot.segments) {
    std::sort(seg.regions.begin(), seg.regions.end());
    std::sort(seg.dest_slash24s.begin(), seg.dest_slash24s.end());
  }
  std::sort(snapshot.pins.begin(), snapshot.pins.end(),
            [](const SnapshotPin& a, const SnapshotPin& b) {
              return a.address < b.address;
            });
  std::sort(snapshot.regional.begin(), snapshot.regional.end());
  for (std::vector<std::uint32_t>& set : snapshot.alias_sets)
    std::sort(set.begin(), set.end());
  std::sort(snapshot.alias_sets.begin(), snapshot.alias_sets.end());
  std::sort(snapshot.stage_reports.begin(), snapshot.stage_reports.end(),
            [](const StageReport& a, const StageReport& b) {
              return stage_index(a.id) < stage_index(b.id);
            });
  for (StageReport& report : snapshot.stage_reports)
    std::sort(report.tallies.begin(), report.tallies.end());
  std::sort(snapshot.hazard_metrics.begin(), snapshot.hazard_metrics.end());
}

void save_snapshot(std::ostream& out, const RunSnapshot& snapshot) {
  RunSnapshot canonical = snapshot;
  canonicalize(canonical);

  struct Section {
    SnapshotSection id;
    std::string payload;
  };
  std::vector<Section> sections = {
      {SnapshotSection::kMeta, encode_meta(canonical)},
      {SnapshotSection::kFlatFabric, snapv3::encode_flat_fabric(canonical)},
  };
  if (!canonical.hazard_profile.empty())
    sections.push_back({SnapshotSection::kHazard, encode_hazard(canonical)});

  // Assemble header, table, and payloads into one buffer so the stream sees
  // a single write (the bytes are identical to writing section by section).
  std::size_t total = kHeaderSize + sections.size() * kTableEntrySize;
  for (const Section& section : sections) total += section.payload.size();
  std::string file;
  file.reserve(total);
  file.append(kMagic, sizeof(kMagic));
  put_u16(file, kSnapshotFormatVersion);
  put_u32(file, static_cast<std::uint32_t>(sections.size()));
  std::uint64_t offset = kHeaderSize + sections.size() * kTableEntrySize;
  for (const Section& section : sections) {
    put_u32(file, static_cast<std::uint32_t>(section.id));
    put_u64(file, offset);
    put_u64(file, section.payload.size());
    put_u32(file,
            snapshot_crc32(
                reinterpret_cast<const unsigned char*>(section.payload.data()),
                section.payload.size()));
    offset += section.payload.size();
  }
  for (const Section& section : sections) file.append(section.payload);
  out.write(file.data(), static_cast<std::streamsize>(file.size()));
}

bool save_snapshot_file(const std::string& path, const RunSnapshot& snapshot,
                        std::string* error) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return fail(error, "cannot open " + path + " for writing");
  save_snapshot(out, snapshot);
  out.flush();
  if (!out) return fail(error, "write to " + path + " failed");
  return true;
}

std::optional<SnapshotContainer> parse_snapshot_container(
    const unsigned char* data, std::size_t size, std::string* error) {
  const auto reject = [&](const std::string& message)
      -> std::optional<SnapshotContainer> {
    fail(error, "snapshot: " + message);
    return std::nullopt;
  };

  if (size < kHeaderSize) return reject("file shorter than header");
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0)
    return reject("bad magic (not a cloudmap snapshot)");
  Cursor header{data, size, sizeof(kMagic)};
  const std::uint16_t version = header.u16();
  if (version < kSnapshotMinFormatVersion || version > kSnapshotFormatVersion)
    return reject("unsupported format version " + std::to_string(version) +
                  " (expected " + std::to_string(kSnapshotMinFormatVersion) +
                  ".." + std::to_string(kSnapshotFormatVersion) + ")");
  const std::uint32_t section_count = header.u32();
  if (section_count > 1024) return reject("implausible section count");
  if (!header.need(std::size_t{section_count} * kTableEntrySize))
    return reject("truncated section table");

  // Known section ids depend on the version: v3 carries meta, the flat
  // fabric blob and the optional hazard section; v1/v2 carry the sectioned
  // layout (a v1 file has no confidence section; its id is treated as
  // unknown there, exactly as v1 readers did). Every known id but the
  // hazard section is required. Anything else is skipped for forward
  // compatibility.
  const auto known = [version](std::uint32_t id) {
    if (version >= 3) return id == 1 || id == 7 || id == 8;
    return id >= 1 && id <= (version >= 2 ? 6u : 5u);
  };
  SnapshotContainer container;
  container.version = version;
  bool seen[9] = {};
  // Every byte must be owned by the header, the table, or a payload: a file
  // with unaccounted trailing bytes would not re-save byte-identically.
  std::uint64_t end_of_payloads =
      kHeaderSize + std::uint64_t{section_count} * kTableEntrySize;
  for (std::uint32_t i = 0; i < section_count; ++i) {
    const std::uint32_t id = header.u32();
    const std::uint64_t offset = header.u64();
    const std::uint64_t payload_size = header.u64();
    const std::uint32_t crc = header.u32();
    if (offset > size || payload_size > size - offset)
      return reject("section " + std::to_string(id) +
                    " extends past end of file");
    end_of_payloads = std::max(end_of_payloads, offset + payload_size);
    if (snapshot_crc32(data + offset, payload_size) != crc)
      return reject("section " + std::to_string(id) + " CRC mismatch");
    if (!known(id)) continue;  // unknown section: skip (forward compat)
    if (seen[id]) return reject("duplicate section " + std::to_string(id));
    seen[id] = true;
    container.sections[id] = {data + offset,
                              static_cast<std::size_t>(payload_size)};
    // Meta (1) and hazard (8) are decoded here; the rest is the caller's.
    Cursor body{data + offset, static_cast<std::size_t>(payload_size), 0};
    const bool ok = id == 1   ? decode_meta(body, container)
                    : id == 8 ? decode_hazard(body, container)
                              : true;
    if (!ok)
      return reject("section " + std::to_string(id) +
                    " is malformed (bad field or trailing bytes)");
  }
  for (std::uint32_t id = 1; id < 8; ++id)
    if (known(id) && !seen[id])
      return reject("missing required section " + std::to_string(id));
  if (end_of_payloads != size)
    return reject("trailing bytes past the last section");
  return container;
}

std::optional<RunSnapshot> load_snapshot(std::istream& in,
                                         std::string* error) {
  std::ostringstream buffer_stream;
  buffer_stream << in.rdbuf();
  const std::string buffer = buffer_stream.str();
  std::optional<SnapshotContainer> container = parse_snapshot_container(
      reinterpret_cast<const unsigned char*>(buffer.data()), buffer.size(),
      error);
  if (!container) return std::nullopt;

  const auto reject = [&](const std::string& message)
      -> std::optional<RunSnapshot> {
    fail(error, "snapshot: " + message);
    return std::nullopt;
  };
  RunSnapshot snapshot;
  snapshot.seed = container->seed;
  snapshot.threads = container->threads;
  snapshot.subject = container->subject;
  snapshot.hazard_profile = std::move(container->hazard_profile);
  snapshot.hazard_metrics = std::move(container->hazard_metrics);
  const std::uint16_t version = container->version;

  if (version >= 3) {
    const SnapshotPayload flat =
        container->sections[static_cast<std::size_t>(
            SnapshotSection::kFlatFabric)];
    // The buffer's alignment is whatever the string allocator gave us;
    // copy the blob to 8-aligned scratch before casting record structs
    // over it (this IS the copying path — the zero-copy one is
    // io/mapped_snapshot.h, where the mapping is page-aligned).
    std::vector<std::uint64_t> aligned((flat.size + 7) / 8);
    if (flat.size > 0) std::memcpy(aligned.data(), flat.data, flat.size);
    const auto* blob = reinterpret_cast<const unsigned char*>(aligned.data());
    std::string flat_error;
    if (!snapv3::validate_flat_fabric(blob, flat.size, &flat_error))
      return reject(flat_error);
    snapv3::decode_flat_fabric(blob, snapshot);
    return snapshot;
  }

  // v1/v2: one decoder per section, each over its own bounded cursor.
  std::vector<ConfidenceRecord> confidence;
  const std::uint32_t last_section = version >= 2 ? 6 : 5;
  for (std::uint32_t id = 2; id <= last_section; ++id) {
    const SnapshotPayload payload = container->sections[id];
    Cursor body{payload.data, payload.size, 0};
    bool ok = false;
    switch (static_cast<SnapshotSection>(id)) {
      case SnapshotSection::kSegments:
        ok = decode_segments(body, snapshot);
        break;
      case SnapshotSection::kPins: ok = decode_pins(body, snapshot); break;
      case SnapshotSection::kAliases:
        ok = decode_aliases(body, snapshot);
        break;
      case SnapshotSection::kMetrics:
        ok = decode_metrics(body, snapshot, version);
        break;
      case SnapshotSection::kConfidence:
        ok = decode_confidence(body, confidence);
        break;
      default: break;
    }
    if (!ok)
      return reject("section " + std::to_string(id) +
                    " is malformed (bad field or trailing bytes)");
  }
  if (version >= 2) {
    if (confidence.size() != snapshot.segments.size())
      return reject("confidence section has " +
                    std::to_string(confidence.size()) + " records for " +
                    std::to_string(snapshot.segments.size()) + " segments");
    for (std::size_t i = 0; i < confidence.size(); ++i) {
      snapshot.segments[i].observations = confidence[i].observations;
      snapshot.segments[i].rounds_mask = confidence[i].rounds_mask;
      snapshot.segments[i].hop_density = confidence[i].hop_density;
      snapshot.segments[i].confidence = confidence[i].confidence;
    }
  }
  return snapshot;
}

std::optional<RunSnapshot> load_snapshot_file(const std::string& path,
                                              std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    fail(error, "cannot open " + path);
    return std::nullopt;
  }
  return load_snapshot(in, error);
}

}  // namespace cloudmap
