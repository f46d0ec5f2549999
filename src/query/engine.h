// QueryEngine: the read-mostly serving layer over a FabricBackend. One
// dispatcher — execute(QueryRequest) — answers every query class, so the
// metrics counters, min-confidence filtering, brief expansion, and error
// reporting live in a single place; the CLI, the serve daemon's wire
// protocol (serve/protocol.h), and the tests all go through it. execute()
// is const, allocates only its result, and touches nothing but the
// immutable backend plus (optionally) relaxed-atomic metrics counters — so
// any number of threads may share one engine with zero locking after build,
// and answers are bit-identical at every reader thread count.
//
// Counter names (all created at construction so they appear in a metrics
// artifact even when a query class was never exercised): query.lookups,
// query.peers_of, query.peer_list, query.interfaces_in,
// query.vpi_candidates, query.counts, query.min_confidence,
// query.confidence_histogram.
#pragma once

#include <array>
#include <cstddef>

#include "obs/metrics.h"
#include "query/backend.h"
#include "query/request.h"

namespace cloudmap {

class QueryEngine {
 public:
  // `metrics` may be null or disabled; counter handles are resolved once
  // here so the hot path is a relaxed atomic add, never a name lookup.
  explicit QueryEngine(const FabricBackend& backend,
                       MetricsRegistry* metrics = nullptr);

  // The one dispatch point: validates the request, bumps the per-kind
  // counter, applies min-confidence filtering and brief expansion, and
  // never throws — malformed requests come back as status kBadRequest.
  QueryResponse execute(const QueryRequest& request) const;

  const FabricBackend& backend() const noexcept { return *backend_; }

 private:
  MetricsRegistry::Counter* counter(QueryKind kind) const {
    return counters_[static_cast<std::size_t>(kind)];
  }

  const FabricBackend* backend_;
  std::array<MetricsRegistry::Counter*, kQueryKindCount> counters_{};
};

}  // namespace cloudmap
