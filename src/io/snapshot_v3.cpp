#include "io/snapshot_v3.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "io/wire.h"
#include "obs/stage_report.h"

namespace cloudmap::snapv3 {

namespace {

constexpr std::uint64_t align8(std::uint64_t n) {
  return (n + 7) & ~std::uint64_t{7};
}

// --- encoder --------------------------------------------------------------
//
// The blob is assembled as typed arrays first, then serialized field by
// field through wire::put_* so the bytes are little-endian on any host.
// Canonical (abi, cbi) segment order drives the per-key lists (ascending,
// deduplicated), keys are collected and sorted, and the LPM rows
// accumulate roles.

void emit_span(std::string& out, const V3Span& s) {
  wire::put_u32(out, s.off);
  wire::put_u32(out, s.len);
}

void emit_segment(std::string& out, const V3Segment& g) {
  wire::put_u32(out, g.abi);
  wire::put_u32(out, g.cbi);
  wire::put_u32(out, g.prior_abi);
  wire::put_u32(out, g.post_cbi);
  wire::put_i32(out, g.first_round);
  wire::put_u8(out, g.confirmation);
  wire::put_u8(out, g.flags);
  wire::put_u8(out, g.group);
  wire::put_u8(out, g.pad0);
  wire::put_u32(out, g.owner_hint);
  wire::put_u32(out, g.peer_asn);
  wire::put_u32(out, g.peer_org);
  wire::put_u32(out, g.observations);
  wire::put_u32(out, g.rounds_mask);
  emit_span(out, g.regions);
  emit_span(out, g.dest_slash24s);
  wire::put_u32(out, g.pad1);
  wire::put_f64(out, g.hop_density);
  wire::put_f64(out, g.confidence);
}

void emit_report(std::string& out, const V3StageReport& r) {
  wire::put_u8(out, r.id);
  wire::put_u8(out, 0);
  wire::put_u8(out, 0);
  wire::put_u8(out, 0);
  wire::put_i32(out, r.threads);
  wire::put_u32(out, r.workers);
  wire::put_u32(out, r.tally_off);
  wire::put_u32(out, r.tally_len);
  wire::put_u32(out, r.pad1);
  wire::put_u64(out, r.targets);
  wire::put_u64(out, r.traceroutes);
  wire::put_u64(out, r.probes);
  wire::put_u64(out, r.bgp_cache_hits);
  wire::put_u64(out, r.bgp_cache_misses);
  wire::put_u64(out, r.retries);
  wire::put_u64(out, r.backoff_waits);
  wire::put_u64(out, r.backoff_ticks);
  wire::put_u64(out, r.recovered_targets);
  wire::put_f64(out, r.wall_ms);
  wire::put_f64(out, r.worker_utilization);
}

// Group a (key, value) list — already stable-sorted by key — into key spans
// whose value runs are appended to the pool.
std::vector<V3KeySpan> group_pairs(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs,
    std::vector<std::uint32_t>& pool) {
  std::vector<V3KeySpan> out;
  std::size_t i = 0;
  while (i < pairs.size()) {
    V3KeySpan entry;
    entry.key = pairs[i].first;
    entry.span.off = static_cast<std::uint32_t>(pool.size());
    std::size_t j = i;
    while (j < pairs.size() && pairs[j].first == entry.key) {
      pool.push_back(pairs[j].second);
      ++j;
    }
    entry.span.len = static_cast<std::uint32_t>(j - i);
    out.push_back(entry);
    i = j;
  }
  return out;
}

V3Span pool_append(std::vector<std::uint32_t>& pool,
                   const std::vector<std::uint32_t>& values) {
  V3Span span;
  span.off = static_cast<std::uint32_t>(pool.size());
  span.len = static_cast<std::uint32_t>(values.size());
  pool.insert(pool.end(), values.begin(), values.end());
  return span;
}

}  // namespace

V3View V3View::over(const unsigned char* blob) {
  V3View v;
  v.dir = reinterpret_cast<const V3Directory*>(blob);
  v.segments = reinterpret_cast<const V3Segment*>(blob + v.dir->segments_off);
  v.reports =
      reinterpret_cast<const V3StageReport*>(blob + v.dir->reports_off);
  v.tallies = reinterpret_cast<const V3Tally*>(blob + v.dir->tallies_off);
  v.pins = reinterpret_cast<const V3Pin*>(blob + v.dir->pins_off);
  v.regional = reinterpret_cast<const V3Pair*>(blob + v.dir->regional_off);
  v.trie = reinterpret_cast<const V3TrieEntry*>(blob + v.dir->trie_off);
  v.by_peer = reinterpret_cast<const V3KeySpan*>(blob + v.dir->by_peer_off);
  v.by_metro = reinterpret_cast<const V3KeySpan*>(blob + v.dir->by_metro_off);
  v.alias_sets = reinterpret_cast<const V3Span*>(blob + v.dir->alias_off);
  v.pool = reinterpret_cast<const std::uint32_t*>(blob + v.dir->pool_off);
  v.strings = reinterpret_cast<const char*>(blob + v.dir->strings_off);
  return v;
}

std::string encode_flat_fabric(const RunSnapshot& canonical) {
  const RunSnapshot& s = canonical;
  const auto seg_count = static_cast<std::uint32_t>(s.segments.size());

  std::vector<std::uint32_t> pool;
  std::string strings;

  // Segment records (regions/dests spans land in the pool first, so their
  // layout only depends on the segment list).
  std::vector<V3Segment> segments;
  segments.reserve(seg_count);
  for (const SnapshotSegment& seg : s.segments) {
    V3Segment g;
    g.abi = seg.abi.value();
    g.cbi = seg.cbi.value();
    g.prior_abi = seg.prior_abi.value();
    g.post_cbi = seg.post_cbi.value();
    g.first_round = seg.first_round;
    g.confirmation = static_cast<std::uint8_t>(seg.confirmation);
    g.flags = static_cast<std::uint8_t>((seg.shifted ? 1 : 0) |
                                        (seg.ixp ? 2 : 0) |
                                        (seg.vpi ? 4 : 0));
    g.group = seg.group;
    g.owner_hint = seg.owner_hint.value;
    g.peer_asn = seg.peer_asn.value;
    g.peer_org = seg.peer_org.value;
    g.observations = seg.observations;
    g.rounds_mask = seg.rounds_mask;
    g.regions = pool_append(pool, seg.regions);
    g.dest_slash24s = pool_append(pool, seg.dest_slash24s);
    g.hop_density = seg.hop_density;
    g.confidence = seg.confidence;
    segments.push_back(g);
  }

  // Stage reports and their tallies; names go to the string table.
  std::vector<V3StageReport> reports;
  std::vector<V3Tally> tallies;
  reports.reserve(s.stage_reports.size());
  for (const StageReport& report : s.stage_reports) {
    V3StageReport r;
    r.id = static_cast<std::uint8_t>(report.id);
    r.threads = report.threads;
    r.workers = report.workers;
    r.tally_off = static_cast<std::uint32_t>(tallies.size());
    r.tally_len = static_cast<std::uint32_t>(report.tallies.size());
    r.targets = report.targets;
    r.traceroutes = report.traceroutes;
    r.probes = report.probes;
    r.bgp_cache_hits = report.bgp_cache_hits;
    r.bgp_cache_misses = report.bgp_cache_misses;
    r.retries = report.retries;
    r.backoff_waits = report.backoff_waits;
    r.backoff_ticks = report.backoff_ticks;
    r.recovered_targets = report.recovered_targets;
    r.wall_ms = report.wall_ms;
    r.worker_utilization = report.worker_utilization;
    reports.push_back(r);
    for (const auto& [name, value] : report.tallies) {
      V3Tally tally;
      tally.name_off = static_cast<std::uint32_t>(strings.size());
      tally.name_len = static_cast<std::uint32_t>(name.size());
      tally.value = value;
      strings.append(name);
      tallies.push_back(tally);
    }
  }

  std::vector<V3Pin> pins;
  pins.reserve(s.pins.size());
  for (const SnapshotPin& pin : s.pins) {
    V3Pin p;
    p.address = pin.address;
    p.metro = pin.metro;
    p.rule = pin.rule;
    p.anchor_source = pin.anchor_source;
    p.round = pin.round;
    pins.push_back(p);
  }

  std::vector<V3Pair> regional;
  regional.reserve(s.regional.size());
  for (const auto& [address, region] : s.regional)
    regional.push_back(V3Pair{address, region});

  // by_peer: canonical segment order gives ascending per-key runs.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> peer_pairs;
  std::vector<std::uint32_t> ixp_list;
  std::vector<std::uint32_t> vpi_list;
  for (std::uint32_t i = 0; i < seg_count; ++i) {
    const SnapshotSegment& seg = s.segments[i];
    if (!seg.peer_asn.is_unknown()) peer_pairs.emplace_back(seg.peer_asn.value, i);
    if (seg.ixp) ixp_list.push_back(i);
    if (seg.vpi) vpi_list.push_back(i);
  }
  std::stable_sort(peer_pairs.begin(), peer_pairs.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  const std::vector<V3KeySpan> by_peer = group_pairs(peer_pairs, pool);

  // by_metro: pins are canonical (sorted by address), so per-metro address
  // runs come out ascending.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> metro_pairs;
  for (const SnapshotPin& pin : s.pins)
    metro_pairs.emplace_back(pin.metro, pin.address);
  std::stable_sort(metro_pairs.begin(), metro_pairs.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  const std::vector<V3KeySpan> by_metro = group_pairs(metro_pairs, pool);

  std::vector<V3Span> alias_sets;
  alias_sets.reserve(s.alias_sets.size());
  for (const std::vector<std::uint32_t>& set : s.alias_sets)
    alias_sets.push_back(pool_append(pool, set));

  V3Directory dir;
  dir.ixp = pool_append(pool, ixp_list);
  dir.vpi = pool_append(pool, vpi_list);
  {
    std::vector<std::uint32_t> keys;
    keys.reserve(by_peer.size());
    for (const V3KeySpan& entry : by_peer) keys.push_back(entry.key);
    dir.peer_asns = pool_append(pool, keys);
    keys.clear();
    for (const V3KeySpan& entry : by_metro) keys.push_back(entry.key);
    dir.pinned_metros = pool_append(pool, keys);
  }
  {
    std::vector<std::uint32_t> order(seg_count);
    for (std::uint32_t i = 0; i < seg_count; ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                const double ca = s.segments[a].confidence;
                const double cb = s.segments[b].confidence;
                if (ca != cb) return ca > cb;
                return a < b;
              });
    dir.conf_order = pool_append(pool, order);
  }

  // LPM rows: /32 interface entries (roles accumulate across segments) and
  // /24 destination cones, grouped by length, sorted by network. Sorting on
  // (plen, network, segment) leaves each group's segment list ascending,
  // and a group's flags are OR-ed, so rows tied on all three need no order.
  // The rows are the encoder's largest temporary: reserved exactly, sorted
  // in place, and freed before the blob is written.
  std::vector<V3TrieEntry> trie;
  {
    struct TrieRow {
      std::uint32_t network;
      std::uint32_t segment;
      std::uint8_t plen;
      std::uint8_t flags;
    };
    std::size_t row_count = std::size_t{seg_count} * 2;
    for (const SnapshotSegment& seg : s.segments)
      row_count += seg.dest_slash24s.size();
    std::vector<TrieRow> rows;
    rows.reserve(row_count);
    for (std::uint32_t i = 0; i < seg_count; ++i) {
      const SnapshotSegment& seg = s.segments[i];
      rows.push_back(TrieRow{seg.abi.value(), i, 32, 1 | 2});
      rows.push_back(TrieRow{seg.cbi.value(), i, 32, 1 | 4});
      for (const std::uint32_t network : seg.dest_slash24s)
        rows.push_back(TrieRow{network & 0xFFFFFF00u, i, 24, 0});
    }
    std::sort(rows.begin(), rows.end(),
              [](const TrieRow& a, const TrieRow& b) {
                if (a.plen != b.plen) return a.plen < b.plen;
                if (a.network != b.network) return a.network < b.network;
                return a.segment < b.segment;
              });
    std::size_t i = 0;
    std::vector<std::uint32_t> members;
    while (i < rows.size()) {
      V3TrieEntry entry;
      entry.plen = rows[i].plen;
      entry.network = rows[i].network;
      members.clear();
      std::size_t j = i;
      while (j < rows.size() && rows[j].plen == entry.plen &&
             rows[j].network == entry.network) {
        entry.flags |= rows[j].flags;
        if (members.empty() || members.back() != rows[j].segment)
          members.push_back(rows[j].segment);
        ++j;
      }
      entry.segments = pool_append(pool, members);
      trie.push_back(entry);
      i = j;
    }
  }
  for (std::size_t len = 0; len < 33; ++len) dir.trie_by_len[len] = V3Span{};
  {
    std::size_t i = 0;
    while (i < trie.size()) {
      const std::uint8_t plen = trie[i].plen;
      std::size_t j = i;
      while (j < trie.size() && trie[j].plen == plen) ++j;
      dir.trie_by_len[plen] =
          V3Span{static_cast<std::uint32_t>(i),
                 static_cast<std::uint32_t>(j - i)};
      i = j;
    }
  }

  // Layout: descending element alignment, so nothing is ever misaligned.
  dir.segment_count = seg_count;
  dir.report_count = static_cast<std::uint32_t>(reports.size());
  dir.tally_count = static_cast<std::uint32_t>(tallies.size());
  dir.pin_count = static_cast<std::uint32_t>(pins.size());
  dir.regional_count = static_cast<std::uint32_t>(regional.size());
  dir.trie_count = static_cast<std::uint32_t>(trie.size());
  dir.by_peer_count = static_cast<std::uint32_t>(by_peer.size());
  dir.by_metro_count = static_cast<std::uint32_t>(by_metro.size());
  dir.alias_count = static_cast<std::uint32_t>(alias_sets.size());
  dir.pool_count = static_cast<std::uint32_t>(pool.size());
  dir.strings_len = static_cast<std::uint32_t>(strings.size());
  std::uint64_t at = sizeof(V3Directory);
  dir.segments_off = static_cast<std::uint32_t>(at);
  at += std::uint64_t{dir.segment_count} * sizeof(V3Segment);
  dir.reports_off = static_cast<std::uint32_t>(at);
  at += std::uint64_t{dir.report_count} * sizeof(V3StageReport);
  dir.tallies_off = static_cast<std::uint32_t>(at);
  at += std::uint64_t{dir.tally_count} * sizeof(V3Tally);
  dir.pins_off = static_cast<std::uint32_t>(at);
  at += std::uint64_t{dir.pin_count} * sizeof(V3Pin);
  dir.regional_off = static_cast<std::uint32_t>(at);
  at += std::uint64_t{dir.regional_count} * sizeof(V3Pair);
  dir.trie_off = static_cast<std::uint32_t>(at);
  at += std::uint64_t{dir.trie_count} * sizeof(V3TrieEntry);
  dir.by_peer_off = static_cast<std::uint32_t>(at);
  at += std::uint64_t{dir.by_peer_count} * sizeof(V3KeySpan);
  dir.by_metro_off = static_cast<std::uint32_t>(at);
  at += std::uint64_t{dir.by_metro_count} * sizeof(V3KeySpan);
  dir.alias_off = static_cast<std::uint32_t>(at);
  at += std::uint64_t{dir.alias_count} * sizeof(V3Span);
  dir.pool_off = static_cast<std::uint32_t>(at);
  at += std::uint64_t{dir.pool_count} * 4;
  dir.strings_off = static_cast<std::uint32_t>(at);
  at += dir.strings_len;
  dir.blob_size = static_cast<std::uint32_t>(align8(at));

  std::string out;
  out.reserve(dir.blob_size);
  wire::put_u32(out, dir.magic);
  wire::put_u32(out, dir.blob_size);
  wire::put_u32(out, dir.segments_off);
  wire::put_u32(out, dir.segment_count);
  wire::put_u32(out, dir.reports_off);
  wire::put_u32(out, dir.report_count);
  wire::put_u32(out, dir.tallies_off);
  wire::put_u32(out, dir.tally_count);
  wire::put_u32(out, dir.pins_off);
  wire::put_u32(out, dir.pin_count);
  wire::put_u32(out, dir.regional_off);
  wire::put_u32(out, dir.regional_count);
  wire::put_u32(out, dir.trie_off);
  wire::put_u32(out, dir.trie_count);
  wire::put_u32(out, dir.by_peer_off);
  wire::put_u32(out, dir.by_peer_count);
  wire::put_u32(out, dir.by_metro_off);
  wire::put_u32(out, dir.by_metro_count);
  wire::put_u32(out, dir.alias_off);
  wire::put_u32(out, dir.alias_count);
  wire::put_u32(out, dir.pool_off);
  wire::put_u32(out, dir.pool_count);
  wire::put_u32(out, dir.strings_off);
  wire::put_u32(out, dir.strings_len);
  emit_span(out, dir.ixp);
  emit_span(out, dir.vpi);
  emit_span(out, dir.peer_asns);
  emit_span(out, dir.pinned_metros);
  emit_span(out, dir.conf_order);
  for (const V3Span& span : dir.trie_by_len) emit_span(out, span);
  for (const V3Segment& g : segments) emit_segment(out, g);
  for (const V3StageReport& r : reports) emit_report(out, r);
  for (const V3Tally& tally : tallies) {
    wire::put_u32(out, tally.name_off);
    wire::put_u32(out, tally.name_len);
    wire::put_f64(out, tally.value);
  }
  for (const V3Pin& p : pins) {
    wire::put_u32(out, p.address);
    wire::put_u32(out, p.metro);
    wire::put_u8(out, p.rule);
    wire::put_u8(out, p.anchor_source);
    wire::put_u16(out, 0);
    wire::put_i32(out, p.round);
  }
  for (const V3Pair& pair : regional) {
    wire::put_u32(out, pair.address);
    wire::put_u32(out, pair.region);
  }
  for (const V3TrieEntry& entry : trie) {
    wire::put_u32(out, entry.network);
    wire::put_u8(out, entry.flags);
    wire::put_u8(out, entry.plen);
    wire::put_u16(out, 0);
    emit_span(out, entry.segments);
  }
  for (const V3KeySpan& entry : by_peer) {
    wire::put_u32(out, entry.key);
    emit_span(out, entry.span);
  }
  for (const V3KeySpan& entry : by_metro) {
    wire::put_u32(out, entry.key);
    emit_span(out, entry.span);
  }
  for (const V3Span& span : alias_sets) emit_span(out, span);
  for (const std::uint32_t value : pool) wire::put_u32(out, value);
  out.append(strings);
  out.append(dir.blob_size - out.size(), '\0');
  return out;
}

// --- validator ------------------------------------------------------------

namespace {

bool invalid(std::string* error, const std::string& message) {
  if (error != nullptr) *error = "flat fabric: " + message;
  return false;
}

bool check_pool_span(const V3Span& span, std::uint32_t pool_count,
                     const char* what, std::string* error) {
  if (span.off > pool_count || span.len > pool_count - span.off)
    return invalid(error, std::string(what) + " span exceeds the pool");
  return true;
}

bool check_segment_indices(const V3View& v, const V3Span& span,
                           const char* what, std::string* error) {
  for (std::uint32_t k = 0; k < span.len; ++k)
    if (v.pool[span.off + k] >= v.dir->segment_count)
      return invalid(error,
                     std::string(what) + " references a bad segment index");
  return true;
}

}  // namespace

bool validate_flat_fabric(const unsigned char* blob, std::size_t size,
                          std::string* error) {
  if constexpr (std::endian::native != std::endian::little)
    return invalid(error, "zero-copy layout requires a little-endian host");
  if (size < sizeof(V3Directory))
    return invalid(error, "blob shorter than the directory");
  const auto* dir = reinterpret_cast<const V3Directory*>(blob);
  if (dir->magic != kFlatFabricMagic) return invalid(error, "bad magic");
  if (dir->blob_size != size)
    return invalid(error, "directory blob_size does not match the section");

  // Offsets are fully determined by the counts (descending-alignment
  // canonical layout); recomputing and comparing rules out overlap, gaps,
  // and misalignment in one pass.
  std::uint64_t at = sizeof(V3Directory);
  const auto expect = [&](std::uint32_t off, std::uint32_t count,
                          std::uint64_t elem_size,
                          const char* what) -> bool {
    if (off != at)
      return invalid(error, std::string(what) + " array is not where the "
                                                "canonical layout puts it");
    at += std::uint64_t{count} * elem_size;
    if (at > size)
      return invalid(error,
                     std::string(what) + " array extends past the blob");
    return true;
  };
  if (!expect(dir->segments_off, dir->segment_count, sizeof(V3Segment),
              "segment") ||
      !expect(dir->reports_off, dir->report_count, sizeof(V3StageReport),
              "report") ||
      !expect(dir->tallies_off, dir->tally_count, sizeof(V3Tally),
              "tally") ||
      !expect(dir->pins_off, dir->pin_count, sizeof(V3Pin), "pin") ||
      !expect(dir->regional_off, dir->regional_count, sizeof(V3Pair),
              "regional") ||
      !expect(dir->trie_off, dir->trie_count, sizeof(V3TrieEntry), "trie") ||
      !expect(dir->by_peer_off, dir->by_peer_count, sizeof(V3KeySpan),
              "by_peer") ||
      !expect(dir->by_metro_off, dir->by_metro_count, sizeof(V3KeySpan),
              "by_metro") ||
      !expect(dir->alias_off, dir->alias_count, sizeof(V3Span), "alias") ||
      !expect(dir->pool_off, dir->pool_count, 4, "pool") ||
      !expect(dir->strings_off, dir->strings_len, 1, "string"))
    return false;
  if (align8(at) != size)
    return invalid(error, "blob size does not match its contents");
  for (std::uint64_t i = at; i < size; ++i)
    if (blob[i] != 0) return invalid(error, "nonzero padding byte");

  const V3View v = V3View::over(blob);
  const std::uint32_t pool_count = dir->pool_count;

  for (std::uint32_t i = 0; i < dir->segment_count; ++i) {
    const V3Segment& g = v.segments[i];
    if (g.confirmation > 4) return invalid(error, "bad confirmation value");
    if (g.flags > 7) return invalid(error, "bad segment flags");
    if (g.group != kSnapshotNoGroup && g.group >= 6)
      return invalid(error, "bad peering group");
    if (g.pad0 != 0 || g.pad1 != 0)
      return invalid(error, "nonzero segment padding");
    if (!(g.hop_density >= 0.0) || g.hop_density > 1.0)
      return invalid(error, "hop density out of [0, 1]");
    if (!(g.confidence >= 0.0) || g.confidence > 1.0)
      return invalid(error, "confidence out of [0, 1]");
    if (!check_pool_span(g.regions, pool_count, "segment regions", error) ||
        !check_pool_span(g.dest_slash24s, pool_count, "segment dests",
                         error))
      return false;
  }

  for (std::uint32_t i = 0; i < dir->report_count; ++i) {
    const V3StageReport& r = v.reports[i];
    if (r.id >= kStageCount) return invalid(error, "bad stage id");
    if (r.pad0[0] != 0 || r.pad0[1] != 0 || r.pad0[2] != 0 || r.pad1 != 0)
      return invalid(error, "nonzero report padding");
    if (r.tally_off > dir->tally_count ||
        r.tally_len > dir->tally_count - r.tally_off)
      return invalid(error, "report tally span exceeds the tally array");
  }

  for (std::uint32_t i = 0; i < dir->tally_count; ++i) {
    const V3Tally& tally = v.tallies[i];
    if (tally.name_off > dir->strings_len ||
        tally.name_len > dir->strings_len - tally.name_off)
      return invalid(error, "tally name exceeds the string table");
  }

  for (std::uint32_t i = 0; i < dir->pin_count; ++i) {
    const V3Pin& pin = v.pins[i];
    if (pin.rule > 2) return invalid(error, "bad pin rule");
    if (pin.anchor_source > 4) return invalid(error, "bad anchor source");
    if (pin.pad0 != 0) return invalid(error, "nonzero pin padding");
  }

  for (std::uint32_t i = 0; i < dir->trie_count; ++i) {
    const V3TrieEntry& entry = v.trie[i];
    if (entry.flags > 7 || entry.plen > 32 || entry.pad0 != 0)
      return invalid(error, "bad trie entry");
    if (!check_pool_span(entry.segments, pool_count, "trie", error) ||
        !check_segment_indices(v, entry.segments, "trie", error))
      return false;
  }
  // Length groups must tile the entry array in ascending-length order, each
  // group sorted by network and masked to its length — the binary-search
  // contract FabricView::find relies on.
  std::uint32_t tiled = 0;
  for (std::size_t len = 0; len < 33; ++len) {
    const V3Span& span = dir->trie_by_len[len];
    if (span.len == 0) {
      if (span.off != 0) return invalid(error, "bad empty trie group");
      continue;
    }
    if (span.off != tiled)
      return invalid(error, "trie groups are not contiguous");
    if (span.len > dir->trie_count - tiled)
      return invalid(error, "trie group exceeds the entry array");
    const std::uint32_t mask =
        len == 0 ? 0 : ~std::uint32_t{0} << (32 - len);
    for (std::uint32_t k = 0; k < span.len; ++k) {
      const V3TrieEntry& entry = v.trie[span.off + k];
      if (entry.plen != len) return invalid(error, "trie group length mix");
      if ((entry.network & ~mask) != 0)
        return invalid(error, "trie network not masked to its length");
      if (k > 0 && v.trie[span.off + k - 1].network >= entry.network)
        return invalid(error, "trie group not sorted");
    }
    tiled += span.len;
  }
  if (tiled != dir->trie_count)
    return invalid(error, "trie groups do not cover the entry array");

  const auto check_keyspans = [&](const V3KeySpan* entries,
                                  std::uint32_t count, const char* what,
                                  bool values_are_segments) -> bool {
    for (std::uint32_t i = 0; i < count; ++i) {
      if (i > 0 && entries[i - 1].key >= entries[i].key)
        return invalid(error, std::string(what) + " keys not sorted");
      if (!check_pool_span(entries[i].span, pool_count, what, error))
        return false;
      if (values_are_segments &&
          !check_segment_indices(v, entries[i].span, what, error))
        return false;
    }
    return true;
  };
  if (!check_keyspans(v.by_peer, dir->by_peer_count, "by_peer", true) ||
      !check_keyspans(v.by_metro, dir->by_metro_count, "by_metro", false))
    return false;

  for (std::uint32_t i = 0; i < dir->alias_count; ++i)
    if (!check_pool_span(v.alias_sets[i], pool_count, "alias set", error))
      return false;

  if (!check_pool_span(dir->ixp, pool_count, "ixp", error) ||
      !check_segment_indices(v, dir->ixp, "ixp", error) ||
      !check_pool_span(dir->vpi, pool_count, "vpi", error) ||
      !check_segment_indices(v, dir->vpi, "vpi", error) ||
      !check_pool_span(dir->peer_asns, pool_count, "peer_asns", error) ||
      !check_pool_span(dir->pinned_metros, pool_count, "pinned_metros",
                       error) ||
      !check_pool_span(dir->conf_order, pool_count, "conf_order", error) ||
      !check_segment_indices(v, dir->conf_order, "conf_order", error))
    return false;
  if (dir->conf_order.len != dir->segment_count)
    return invalid(error, "conf_order does not cover every segment");
  for (std::uint32_t k = 1; k < dir->conf_order.len; ++k) {
    const double prev =
        v.segments[v.pool[dir->conf_order.off + k - 1]].confidence;
    const double cur = v.segments[v.pool[dir->conf_order.off + k]].confidence;
    if (prev < cur)
      return invalid(error, "conf_order is not descending by confidence");
  }
  for (std::uint32_t k = 1; k < dir->peer_asns.len; ++k)
    if (v.pool[dir->peer_asns.off + k - 1] >= v.pool[dir->peer_asns.off + k])
      return invalid(error, "peer_asns not sorted");
  for (std::uint32_t k = 1; k < dir->pinned_metros.len; ++k)
    if (v.pool[dir->pinned_metros.off + k - 1] >=
        v.pool[dir->pinned_metros.off + k])
      return invalid(error, "pinned_metros not sorted");
  return true;
}

// --- copying decoder ------------------------------------------------------

void decode_flat_fabric(const unsigned char* blob, RunSnapshot& out) {
  const V3View v = V3View::over(blob);
  const V3Directory& dir = *v.dir;

  out.segments.reserve(dir.segment_count);
  for (std::uint32_t i = 0; i < dir.segment_count; ++i) {
    const V3Segment& g = v.segments[i];
    SnapshotSegment seg;
    seg.abi = Ipv4(g.abi);
    seg.cbi = Ipv4(g.cbi);
    seg.prior_abi = Ipv4(g.prior_abi);
    seg.post_cbi = Ipv4(g.post_cbi);
    seg.first_round = g.first_round;
    seg.confirmation = static_cast<Confirmation>(g.confirmation);
    seg.shifted = (g.flags & 1) != 0;
    seg.ixp = (g.flags & 2) != 0;
    seg.vpi = (g.flags & 4) != 0;
    seg.group = g.group;
    seg.owner_hint = Asn{g.owner_hint};
    seg.peer_asn = Asn{g.peer_asn};
    seg.peer_org = OrgId{g.peer_org};
    seg.observations = g.observations;
    seg.rounds_mask = g.rounds_mask;
    seg.hop_density = g.hop_density;
    seg.confidence = g.confidence;
    seg.regions.assign(v.pool + g.regions.off,
                       v.pool + g.regions.off + g.regions.len);
    seg.dest_slash24s.assign(
        v.pool + g.dest_slash24s.off,
        v.pool + g.dest_slash24s.off + g.dest_slash24s.len);
    out.segments.push_back(std::move(seg));
  }

  out.pins.reserve(dir.pin_count);
  for (std::uint32_t i = 0; i < dir.pin_count; ++i) {
    const V3Pin& p = v.pins[i];
    SnapshotPin pin;
    pin.address = p.address;
    pin.metro = p.metro;
    pin.rule = p.rule;
    pin.anchor_source = p.anchor_source;
    pin.round = p.round;
    out.pins.push_back(pin);
  }

  out.regional.reserve(dir.regional_count);
  for (std::uint32_t i = 0; i < dir.regional_count; ++i)
    out.regional.emplace_back(v.regional[i].address, v.regional[i].region);

  out.alias_sets.reserve(dir.alias_count);
  for (std::uint32_t i = 0; i < dir.alias_count; ++i) {
    const V3Span& span = v.alias_sets[i];
    out.alias_sets.emplace_back(v.pool + span.off,
                                v.pool + span.off + span.len);
  }

  out.stage_reports.reserve(dir.report_count);
  for (std::uint32_t i = 0; i < dir.report_count; ++i) {
    const V3StageReport& r = v.reports[i];
    StageReport report;
    report.id = static_cast<StageId>(r.id);
    report.threads = r.threads;
    report.workers = r.workers;
    report.targets = r.targets;
    report.traceroutes = r.traceroutes;
    report.probes = r.probes;
    report.bgp_cache_hits = r.bgp_cache_hits;
    report.bgp_cache_misses = r.bgp_cache_misses;
    report.retries = r.retries;
    report.backoff_waits = r.backoff_waits;
    report.backoff_ticks = r.backoff_ticks;
    report.recovered_targets = r.recovered_targets;
    report.wall_ms = r.wall_ms;
    report.worker_utilization = r.worker_utilization;
    report.tallies.reserve(r.tally_len);
    for (std::uint32_t t = 0; t < r.tally_len; ++t) {
      const V3Tally& tally = v.tallies[r.tally_off + t];
      report.tallies.emplace_back(
          std::string(v.strings + tally.name_off, tally.name_len),
          tally.value);
    }
    out.stage_reports.push_back(std::move(report));
  }
}

}  // namespace cloudmap::snapv3
