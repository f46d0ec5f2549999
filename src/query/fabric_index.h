// FabricIndex: a FabricView over a flat-fabric blob (io/snapshot_v3.h)
// encoded in memory from one RunSnapshot. It serves snapshots that arrive
// without a mappable v3 blob — v1/v2 files read by the copying loader, or a
// snapshot built in process — through the same code as the zero-copy path:
// snapv3::encode_flat_fabric() is the one index derivation, and this class
// only owns its output. After the constructor returns nothing is mutated,
// so any number of reader threads may query it concurrently with zero
// locking.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "query/fabric_view.h"
#include "query/snapshot.h"

namespace cloudmap {

namespace detail {

// The 8-byte-aligned storage a FabricIndex's view points into. A base
// class rather than a member so that it is built before the FabricView
// base is constructed over it.
struct FlatFabricBuffer {
  explicit FlatFabricBuffer(RunSnapshot snapshot);
  std::vector<std::uint64_t> words;
};

}  // namespace detail

class FabricIndex : private detail::FlatFabricBuffer, public FabricView {
 public:
  // Canonicalizes `snapshot` (hand-built snapshots may arrive unsorted),
  // encodes it, and validates the blob, so the view's "validated blob"
  // precondition holds here exactly as it does after MappedSnapshot::open.
  // Throws std::runtime_error when validation fails (a field out of the
  // range the format allows). Keeps no copy of the snapshot.
  explicit FabricIndex(RunSnapshot snapshot);

  // The encoded blob: byte-identical to the flat-fabric section a v3 save
  // of the same snapshot writes.
  const unsigned char* blob() const {
    return reinterpret_cast<const unsigned char*>(words.data());
  }
  std::size_t blob_size() const { return raw().dir->blob_size; }
};

}  // namespace cloudmap
