#include "query/fabric_index.h"

#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "io/snapshot_v3.h"

namespace cloudmap {

namespace detail {

FlatFabricBuffer::FlatFabricBuffer(RunSnapshot snapshot) {
  canonicalize(snapshot);
  const std::string blob = snapv3::encode_flat_fabric(snapshot);
  snapshot = RunSnapshot();  // release it before the aligned copy
  words.resize((blob.size() + 7) / 8);
  std::memcpy(words.data(), blob.data(), blob.size());
  std::string error;
  if (!snapv3::validate_flat_fabric(
          reinterpret_cast<const unsigned char*>(words.data()), blob.size(),
          &error))
    throw std::runtime_error("FabricIndex: " + error);
}

}  // namespace detail

FabricIndex::FabricIndex(RunSnapshot snapshot)
    : FlatFabricBuffer(std::move(snapshot)),
      FabricView(reinterpret_cast<const unsigned char*>(words.data())) {}

}  // namespace cloudmap
