// Fuzz the snapshot container end to end: the copying loader across
// format versions 1–3, the save→load→save byte-stability contract on
// anything it accepts, the FabricIndex → QueryEngine path the CLI takes for
// every loaded snapshot, and the zero-copy MappedSnapshot → FabricView →
// QueryEngine path over the same bytes. Both loaders parse the container
// with the one parse_snapshot_container(), so the mapper may refuse what
// the loader accepts (v1/v2 files, a misaligned blob) but never accept
// what it refuses. Any crash, sanitizer report, or broken invariant
// (accepted input that does not re-save stably; accepted input whose
// in-memory blob fails validation; mapper accepting what the loader
// refused) aborts.
#include <cstdint>
#include <exception>
#include <optional>
#include <sstream>
#include <string>

#include "fixup.h"
#include "harness.h"
#include "io/mapped_snapshot.h"
#include "io/snapshot.h"
#include "query/engine.h"
#include "query/fabric_index.h"
#include "query/fabric_view.h"
#include "query/request.h"

namespace {

// Every QueryKind once, with parameters that reach the filter and brief
// paths.
void run_every_kind(const cloudmap::FabricBackend& backend) {
  using namespace cloudmap;
  const QueryEngine engine(backend);
  QueryRequest request;
  request.asn = 64512;
  request.metro = 0;
  request.address = 0xCB007109u;  // 203.0.113.9
  request.min_confidence = 0.5;
  request.want_briefs = true;
  for (std::uint8_t kind = 0; kind < kQueryKindCount; ++kind) {
    request.kind = static_cast<QueryKind>(kind);
    (void)engine.execute(request);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  fuzzhn::maybe_trip_canary(data, size);
  using namespace cloudmap;

  const std::string bytes(reinterpret_cast<const char*>(data), size);
  std::istringstream in(bytes);
  std::string error;
  std::optional<RunSnapshot> snap = load_snapshot(in, &error);
  if (snap) {
    // Accepted input must re-save deterministically: save, reload, save
    // again, and the two saves must agree byte for byte.
    std::ostringstream first;
    save_snapshot(first, *snap);
    std::istringstream reload_in(first.str());
    std::optional<RunSnapshot> reloaded = load_snapshot(reload_in, &error);
    if (!reloaded) __builtin_trap();  // save emitted unloadable bytes
    std::ostringstream second;
    save_snapshot(second, *reloaded);
    if (first.str() != second.str()) __builtin_trap();
    try {
      run_every_kind(FabricIndex(*snap));
    } catch (const std::exception&) {
      __builtin_trap();  // the loader accepted what the blob validator refuses
    }
  }

  // The zero-copy path over the same bytes. v1/v2 files are refused here
  // by design; a file the mapper accepts but the loader refused means the
  // two validators disagree about what a well-formed v3 file is.
  fuzzhn::ScratchFile file(data, size);
  if (!file.ok()) return 0;
  std::optional<MappedSnapshot> mapped = MappedSnapshot::open(file.path(),
                                                              &error);
  if (mapped) {
    if (!snap) __builtin_trap();
    run_every_kind(FabricView(mapped->blob()));
  }
  return 0;
}

#ifdef CLOUDMAP_FUZZER_BUILD
extern "C" std::size_t LLVMFuzzerMutate(std::uint8_t* data, std::size_t size,
                                        std::size_t max_size);

extern "C" std::size_t LLVMFuzzerCustomMutator(std::uint8_t* data,
                                               std::size_t size,
                                               std::size_t max_size,
                                               unsigned seed) {
  (void)seed;
  const std::size_t mutated = LLVMFuzzerMutate(data, size, max_size);
  fuzzhn::fix_snapshot(data, mutated);
  return mutated;
}
#endif
