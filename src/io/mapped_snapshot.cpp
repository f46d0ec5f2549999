#include "io/mapped_snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <utility>

#include "io/snapshot.h"
#include "io/snapshot_v3.h"

namespace cloudmap {
namespace {

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = "snapshot: " + message;
  return false;
}

}  // namespace

MappedSnapshot::~MappedSnapshot() { reset(); }

MappedSnapshot::MappedSnapshot(MappedSnapshot&& other) noexcept {
  *this = std::move(other);
}

MappedSnapshot& MappedSnapshot::operator=(MappedSnapshot&& other) noexcept {
  if (this != &other) {
    reset();
    map_ = std::exchange(other.map_, nullptr);
    map_size_ = std::exchange(other.map_size_, 0);
    blob_ = std::exchange(other.blob_, nullptr);
    blob_size_ = std::exchange(other.blob_size_, 0);
    seed_ = std::exchange(other.seed_, 0);
    threads_ = std::exchange(other.threads_, 0);
    subject_ = std::exchange(other.subject_, 0);
  }
  return *this;
}

void MappedSnapshot::reset() noexcept {
  if (map_ != nullptr) ::munmap(map_, map_size_);
  map_ = nullptr;
  map_size_ = 0;
  blob_ = nullptr;
  blob_size_ = 0;
}

std::optional<MappedSnapshot> MappedSnapshot::open(const std::string& path,
                                                   std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    fail(error, "cannot open " + path);
    return std::nullopt;
  }
  struct stat st = {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    fail(error, "cannot stat " + path);
    return std::nullopt;
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  // An empty file is not mapped (mmap refuses length 0); the container
  // parser rejects it as shorter than the header.
  void* map = size == 0 ? nullptr
                        : ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) {
    fail(error, "cannot mmap " + path);
    return std::nullopt;
  }

  MappedSnapshot snap;
  snap.map_ = map;
  snap.map_size_ = size;
  const auto reject = [&](const std::string& message)
      -> std::optional<MappedSnapshot> {
    fail(error, message);
    return std::nullopt;  // snap's destructor unmaps
  };

  // The container checks are the copying loader's own (one parser), so
  // both loaders refuse the same files with the same diagnostics. What is
  // left here is what only the zero-copy path needs.
  const std::optional<SnapshotContainer> container = parse_snapshot_container(
      static_cast<const unsigned char*>(map), size, error);
  if (!container) return std::nullopt;
  if (container->version != kSnapshotFormatVersion)
    return reject("zero-copy load needs format version " +
                  std::to_string(kSnapshotFormatVersion) + ", file is " +
                  std::to_string(container->version) +
                  " (load it with the copying loader and re-save)");
  const SnapshotPayload flat = container->sections[static_cast<std::size_t>(
      SnapshotSection::kFlatFabric)];
  // The mapping is page-aligned, so this is the section's file offset.
  if (reinterpret_cast<std::uintptr_t>(flat.data) % 8 != 0)
    return reject("flat fabric section is not 8-byte aligned");
  std::string flat_error;
  if (!snapv3::validate_flat_fabric(flat.data, flat.size, &flat_error))
    return reject(flat_error);
  snap.blob_ = flat.data;
  snap.blob_size_ = flat.size;
  snap.seed_ = container->seed;
  snap.threads_ = container->threads;
  snap.subject_ = container->subject;
  return snap;
}

}  // namespace cloudmap
