// Format v3 "flat fabric" section: the on-disk-is-in-memory layout.
//
// A v3 snapshot stores, next to the meta section, one section (id 7) whose
// payload is a single relocatable blob laid out exactly as the query layer
// wants it in memory: fixed-width little-endian POD records, 8-byte aligned
// where they carry doubles, with every cross-reference expressed as a
// {offset, length} span instead of a pointer. mmap the file, check CRCs,
// and a FabricView (query/fabric_view.h) serves queries straight out of the
// page cache — no decode pass, no per-segment allocation.
//
// Blob layout (all offsets are byte offsets from the blob start; arrays are
// emitted in descending alignment so no element is ever misaligned):
//
//   V3Directory          one header struct, offset 0, magic "CMF3"
//   V3Segment[]          80-byte segment records (8-aligned: two doubles)
//   V3StageReport[]      112-byte per-stage metrics records
//   V3Tally[]            16-byte (name span into string table, f64 value)
//   V3Pin[]              16-byte metro pins
//   V3Pair[]             8-byte regional fallback (address, region)
//   V3TrieEntry[]        16-byte LPM rows, grouped by prefix length via
//                        V3Directory::trie_by_len, each group sorted by
//                        network address for binary search
//   V3KeySpan[]          by_peer: (peer ASN, segment-index span), key-sorted
//   V3KeySpan[]          by_metro: (metro, pinned-address span), key-sorted
//   V3Span[]             alias sets (member-address spans into the pool)
//   u32[]                the shared index pool every span points into
//   char[]               string table (tally names), byte offsets
//
// The index arrays are *derived* data, and encode_flat_fabric() is the only
// code that derives them: by-peer and by-metro lists, the confidence order
// and the LPM rows all come from the canonical segment order, so a v3 file
// re-saves byte-identically after a load. Snapshots without a mappable blob
// (v1/v2 files, in-process runs) are encoded in memory by FabricIndex
// (query/fabric_index.h), so every backend serves these same arrays.
//
// The layout is little-endian by definition; validate_flat_fabric() rejects
// the zero-copy path on a big-endian host (the copying loader in
// io/snapshot.cpp has the same guard, so behaviour is uniform).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "query/snapshot.h"

namespace cloudmap::snapv3 {

// "CMF3" as a little-endian u32.
inline constexpr std::uint32_t kFlatFabricMagic = 0x33464D43u;

struct V3Span {
  std::uint32_t off = 0;  // u32 index into the pool (not bytes)
  std::uint32_t len = 0;
};
static_assert(sizeof(V3Span) == 8);

// One segment, fixed 80 bytes. Field meanings mirror SnapshotSegment
// (query/snapshot.h); `flags` packs shifted|ixp|vpi as bits 0|1|2.
struct V3Segment {
  std::uint32_t abi = 0;
  std::uint32_t cbi = 0;
  std::uint32_t prior_abi = 0;
  std::uint32_t post_cbi = 0;
  std::int32_t first_round = 0;
  std::uint8_t confirmation = 0;
  std::uint8_t flags = 0;
  std::uint8_t group = 0;
  std::uint8_t pad0 = 0;
  std::uint32_t owner_hint = 0;
  std::uint32_t peer_asn = 0;
  std::uint32_t peer_org = 0;
  std::uint32_t observations = 0;
  std::uint32_t rounds_mask = 0;
  V3Span regions;
  V3Span dest_slash24s;
  std::uint32_t pad1 = 0;
  double hop_density = 0.0;
  double confidence = 0.0;
};
static_assert(sizeof(V3Segment) == 80);
static_assert(offsetof(V3Segment, hop_density) == 64);

struct V3StageReport {
  std::uint8_t id = 0;
  std::uint8_t pad0[3] = {};
  std::int32_t threads = 0;
  std::uint32_t workers = 0;
  std::uint32_t tally_off = 0;  // index into the V3Tally array
  std::uint32_t tally_len = 0;
  std::uint32_t pad1 = 0;
  std::uint64_t targets = 0;
  std::uint64_t traceroutes = 0;
  std::uint64_t probes = 0;
  std::uint64_t bgp_cache_hits = 0;
  std::uint64_t bgp_cache_misses = 0;
  std::uint64_t retries = 0;
  std::uint64_t backoff_waits = 0;
  std::uint64_t backoff_ticks = 0;
  std::uint64_t recovered_targets = 0;
  double wall_ms = 0.0;
  double worker_utilization = 0.0;
};
static_assert(sizeof(V3StageReport) == 112);
static_assert(offsetof(V3StageReport, targets) == 24);

struct V3Tally {
  std::uint32_t name_off = 0;  // byte offset into the string table
  std::uint32_t name_len = 0;
  double value = 0.0;
};
static_assert(sizeof(V3Tally) == 16);

struct V3Pin {
  std::uint32_t address = 0;
  std::uint32_t metro = 0;
  std::uint8_t rule = 0;
  std::uint8_t anchor_source = 0;
  std::uint16_t pad0 = 0;
  std::int32_t round = 0;
};
static_assert(sizeof(V3Pin) == 16);

struct V3Pair {  // regional fallback entry
  std::uint32_t address = 0;
  std::uint32_t region = 0;
};
static_assert(sizeof(V3Pair) == 8);

// One LPM row: a /32 interface (roles accumulate across segments) or a /24
// destination cone. `flags` packs is_interface|abi|cbi as bits 0|1|2; the
// segment list is ascending and deduplicated.
struct V3TrieEntry {
  std::uint32_t network = 0;  // masked to the group's prefix length
  std::uint8_t flags = 0;
  std::uint8_t plen = 0;
  std::uint16_t pad0 = 0;
  V3Span segments;
};
static_assert(sizeof(V3TrieEntry) == 16);

struct V3KeySpan {
  std::uint32_t key = 0;
  V3Span span;
};
static_assert(sizeof(V3KeySpan) == 12);

struct V3Directory {
  std::uint32_t magic = kFlatFabricMagic;
  std::uint32_t blob_size = 0;
  std::uint32_t segments_off = 0, segment_count = 0;
  std::uint32_t reports_off = 0, report_count = 0;
  std::uint32_t tallies_off = 0, tally_count = 0;
  std::uint32_t pins_off = 0, pin_count = 0;
  std::uint32_t regional_off = 0, regional_count = 0;
  std::uint32_t trie_off = 0, trie_count = 0;
  std::uint32_t by_peer_off = 0, by_peer_count = 0;
  std::uint32_t by_metro_off = 0, by_metro_count = 0;
  std::uint32_t alias_off = 0, alias_count = 0;
  std::uint32_t pool_off = 0, pool_count = 0;      // count in u32 units
  std::uint32_t strings_off = 0, strings_len = 0;  // length in bytes
  V3Span ixp;            // IXP segment indices, ascending
  V3Span vpi;            // VPI segment indices, ascending
  V3Span peer_asns;      // peer ASNs present, ascending (0 excluded)
  V3Span pinned_metros;  // metros with >= 1 pin, ascending
  V3Span conf_order;     // all segment indices, confidence desc, index asc
  V3Span trie_by_len[33];  // per-prefix-length groups (entry index, count)
};
static_assert(sizeof(V3Directory) == 400);
static_assert(offsetof(V3Directory, ixp) == 96);
static_assert(offsetof(V3Directory, trie_by_len) == 136);

// Typed pointers into a validated blob. Pointers for empty arrays still lie
// within (or one past) the blob, so span arithmetic never leaves it.
struct V3View {
  const V3Directory* dir = nullptr;
  const V3Segment* segments = nullptr;
  const V3StageReport* reports = nullptr;
  const V3Tally* tallies = nullptr;
  const V3Pin* pins = nullptr;
  const V3Pair* regional = nullptr;
  const V3TrieEntry* trie = nullptr;
  const V3KeySpan* by_peer = nullptr;
  const V3KeySpan* by_metro = nullptr;
  const V3Span* alias_sets = nullptr;
  const std::uint32_t* pool = nullptr;
  const char* strings = nullptr;

  // `blob` must be 8-byte aligned and already validated.
  static V3View over(const unsigned char* blob);
};

// Serialize a *canonical* snapshot (see canonicalize()) into one flat blob.
// Deterministic: equal snapshots produce equal bytes.
std::string encode_flat_fabric(const RunSnapshot& canonical);

// Full structural validation of a blob: magic, directory bounds, alignment,
// span containment, sort invariants, enum/score ranges, zero padding. The
// blob must be 8-byte aligned. Returns false (with a one-line diagnostic)
// on any violation — after it passes, a V3View can be walked without any
// further bounds checks.
bool validate_flat_fabric(const unsigned char* blob, std::size_t size,
                          std::string* error);

// Expand a validated blob back into a RunSnapshot (the copying load path
// for v3 files). Collections come back in canonical order, so a re-save is
// byte-identical. Does not touch meta fields (seed/threads/subject).
void decode_flat_fabric(const unsigned char* blob, RunSnapshot& out);

}  // namespace cloudmap::snapv3
