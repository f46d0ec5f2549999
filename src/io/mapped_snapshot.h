// Zero-copy loader for format-v3 snapshot files: mmap the file read-only,
// check the container with the copying loader's own parser
// (parse_snapshot_container in io/snapshot.h: magic, version, section
// table, per-section CRC, meta and hazard sections), validate the
// flat-fabric blob (io/snapshot_v3.h), then hand out a pointer straight
// into the mapping. Nothing is decoded and nothing per-segment is
// allocated — a FabricView (query/fabric_view.h) built over blob() serves
// queries out of the page cache, which is what makes daemon hot-swaps cheap:
// opening a new snapshot costs one validation pass, not a rebuild. Because
// the container parser is shared, this loader accepts a file exactly when
// load_snapshot() does, with the same diagnostic when it does not — apart
// from the refusals below that only the zero-copy path has.
//
// Only version 3 files qualify (v1/v2 need the copying loader in
// io/snapshot.h, and are refused with a hint to re-save); the v3 writer
// pads the meta section so the blob sits 8-byte aligned at file offset 80,
// and the mapping itself is page-aligned, so the in-place record casts in
// V3View are always aligned (a hand-made file that moves the blob off that
// alignment is refused).
//
// The object owns the mapping: move-only, unmapped on destruction. Keep it
// alive as long as any view into blob() is in use (serve/server.h bundles
// the two in one ServedSnapshot for exactly this reason).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace cloudmap {

class MappedSnapshot {
 public:
  // Map and validate `path`. Returns nullopt (and a one-line diagnostic in
  // *error, when given) if the file cannot be mapped, fails any container
  // check, is not a v3 snapshot, or fails flat-fabric validation.
  static std::optional<MappedSnapshot> open(const std::string& path,
                                            std::string* error = nullptr);

  MappedSnapshot() = default;
  ~MappedSnapshot();
  MappedSnapshot(MappedSnapshot&& other) noexcept;
  MappedSnapshot& operator=(MappedSnapshot&& other) noexcept;
  MappedSnapshot(const MappedSnapshot&) = delete;
  MappedSnapshot& operator=(const MappedSnapshot&) = delete;

  // The validated flat-fabric blob inside the mapping (8-byte aligned).
  const unsigned char* blob() const { return blob_; }
  std::size_t blob_size() const { return blob_size_; }

  // Run meta carried next to the blob.
  std::uint64_t seed() const { return seed_; }
  std::int32_t threads() const { return threads_; }
  std::uint8_t subject() const { return subject_; }

  // Whole-file view, for tools that re-serve the raw bytes.
  const unsigned char* file_data() const {
    return static_cast<const unsigned char*>(map_);
  }
  std::size_t file_size() const { return map_size_; }

 private:
  void reset() noexcept;

  void* map_ = nullptr;
  std::size_t map_size_ = 0;
  const unsigned char* blob_ = nullptr;
  std::size_t blob_size_ = 0;
  std::uint64_t seed_ = 0;
  std::int32_t threads_ = 0;
  std::uint8_t subject_ = 0;
};

}  // namespace cloudmap
