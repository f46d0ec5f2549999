// Versioned binary snapshot of a full pipeline run (query/snapshot.h),
// replacing N separate text files on the serve path: one file captures the
// annotated fabric, pinning, alias sets, and stage metrics, and loads in one
// pass into the query engine.
//
// Byte layout (all integers little-endian, fixed width; full spec with the
// per-section record formats in DESIGN.md §7–§8 and §11):
//
//   header   magic "CMSNAP" (6 bytes) | u16 format version (= 3)
//            | u32 section count
//   table    section count × { u32 section id, u64 payload offset (from
//            file start), u64 payload size, u32 CRC-32 of the payload }
//   payloads concatenated in table order
//
// Sections (ids are stable; readers skip unknown ids so additive sections
// do not need a version bump): 1 meta, 2 segments, 3 pins, 4 alias sets,
// 5 stage metrics, 6 per-segment confidence (v2), 7 flat fabric (v3),
// 8 hazard provenance (v3, optional).
// CRC-32 is the zlib polynomial (0xEDB88320), so tools/diff_snapshots.py
// verifies with Python's zlib.crc32.
//
// Versioning: v2 added the confidence section and the retry counters in
// each stage-metrics record. v3 replaces sections 2–6 with one "flat
// fabric" section (io/snapshot_v3.h) whose payload is the query layer's
// in-memory layout — the v3 meta payload is padded to 20 bytes so that
// payload always starts at file offset 80, 8-byte aligned for the mmap
// path (io/mapped_snapshot.h). The writer emits v3 only; the copying loader
// still reads v1 and v2 files, so a legacy file upgrades by load → save.
// Committed v1/v2 files under fuzz/corpus/snapshot/ keep those decoders
// tested.
//
// Container: parse_snapshot_container() is the one parser of the header
// and section table. Both loaders — load_snapshot() here and
// MappedSnapshot::open() — call it, so they accept and refuse the same
// containers with the same diagnostics; each then decodes or validates the
// payloads it needs.
//
// Determinism contract: save_snapshot() canonicalizes collection order, and
// every v3 index array derives deterministically from the canonical
// segments, so save → load → save produces byte-identical files (enforced
// in CI). A corrupted or truncated file is rejected with a diagnostic —
// never a crash or a silent partial load.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "query/snapshot.h"

namespace cloudmap {

inline constexpr std::uint16_t kSnapshotFormatVersion = 3;
// Oldest version the loader still accepts.
inline constexpr std::uint16_t kSnapshotMinFormatVersion = 1;

// Section ids of the current format.
enum class SnapshotSection : std::uint32_t {
  kMeta = 1,
  kSegments = 2,     // v1/v2
  kPins = 3,         // v1/v2
  kAliases = 4,      // v1/v2
  kMetrics = 5,      // v1/v2
  kConfidence = 6,   // v2: one record per segment, same order as kSegments
  kFlatFabric = 7,   // v3: the zero-copy blob (io/snapshot_v3.h)
  // Optional hazard provenance (scenario/hazard.h): the profile spec string
  // plus name→double scorecard metrics. Written only when the snapshot
  // carries a non-empty profile — additive, so no version bump; pre-hazard
  // readers (including the mmap path and tools/diff_snapshots.py) skip it.
  kHazard = 8,
};

// Serialize in the current format (canonicalizing collection order first;
// see query/snapshot.h).
void save_snapshot(std::ostream& out, const RunSnapshot& snapshot);
bool save_snapshot_file(const std::string& path, const RunSnapshot& snapshot,
                        std::string* error = nullptr);

// One section's payload: a view into the parsed buffer, nothing copied.
struct SnapshotPayload {
  const unsigned char* data = nullptr;
  std::size_t size = 0;
};

// What the container says: the version, the decoded meta (section 1) and
// hazard (section 8) fields, and a view of every other known section.
struct SnapshotContainer {
  std::uint16_t version = 0;
  std::uint64_t seed = 0;
  std::int32_t threads = 0;
  std::uint8_t subject = 0;
  std::string hazard_profile;  // empty when the file has no section 8
  std::vector<std::pair<std::string, double>> hazard_metrics;
  // Indexed by section id. Every section the version requires is present
  // (v1: 1–5, v2: 1–6, v3: 1 and 7); unknown ids are skipped, not kept.
  std::array<SnapshotPayload, 9> sections{};
};

// Parse and validate the container over `size` bytes at `data`: magic,
// version range, section-count cap, table and section bounds, every
// section's CRC, duplicate and missing sections, trailing bytes, and the
// meta and hazard payloads. Returns nullopt (and a one-line "snapshot: …"
// diagnostic in *error, when given) on any violation. Section payloads
// other than meta and hazard are not looked at; the 8-byte alignment the
// mmap path needs is its own check.
std::optional<SnapshotContainer> parse_snapshot_container(
    const unsigned char* data, std::size_t size, std::string* error);

// Parse the container, then decode every section into a RunSnapshot: the
// v1/v2 sections with per-field range checks, the v3 blob through
// validate_flat_fabric(). Returns nullopt (and a one-line diagnostic in
// *error, when given) on any violation.
std::optional<RunSnapshot> load_snapshot(std::istream& in,
                                         std::string* error = nullptr);
std::optional<RunSnapshot> load_snapshot_file(const std::string& path,
                                              std::string* error = nullptr);

// CRC-32 (zlib polynomial, init and xorout 0xFFFFFFFF) over a byte buffer:
// every snapshot section, shard file and serve frame is checked with it.
// Slicing-by-8 (eight 256-entry tables built once, eight bytes per step,
// words assembled bytewise so any alignment and host byte order give the
// same value): about 0.5 ns/B on a 4-vCPU x86-64 host, 1.3 ms for a
// 2.6 MB snapshot.
std::uint32_t snapshot_crc32(const unsigned char* data, std::size_t size);

}  // namespace cloudmap
