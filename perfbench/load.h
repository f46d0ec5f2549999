// The serve half of the benchmark: request streams, the in-process answers
// every reply is checked against, and the closed- and open-loop load
// generators that drive a loopback cloudmap daemon through serve::Client.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "query/engine.h"
#include "serve/client.h"
#include "trace.h"

namespace perfbench {

enum class Mix {
  kLookup,     // point queries: lookups, peers_of, interfaces_in, peer_list
  kAnalytics,  // table-shaped aggregates: counts, thresholds, histogram, VPIs
};

// A finite set of requests; stream request `id` asks pool entry pick(id),
// (offset + id * stride) mod size. The stride is coprime to the size, so
// every `size` consecutive requests ask each entry once, and the pools lay
// their kinds out in a period that divides the size, so every period of
// consecutive requests has the exact mix. A window's latency quantiles
// then do not move with how many requests of each kind the draw put in it.
struct RequestPool {
  std::vector<cloudmap::QueryRequest> requests;
  std::uint64_t offset = 0;
  std::uint64_t stride = 1;
  std::size_t pick(std::uint64_t id) const;
};

// Builds the workload's pool over `backend` (hits are drawn from its
// segments), deterministically from `seed`.
RequestPool build_pool(Mix mix, const cloudmap::FabricBackend& backend,
                       std::uint64_t seed);

// The encoded in-process reply to every pool entry.
std::vector<std::string> expected_replies(const RequestPool& pool,
                                          const cloudmap::QueryEngine& engine);

// Which snapshot the daemon serves, for checking replies across hot-swaps.
// The swapping thread bumps `epoch` to odd before it sends a swap and back
// to even after `current` names the new snapshot, so a request that saw the
// same even epoch before and after its round trip was answered from
// `current`; any other request may have been answered from either.
struct SwapState {
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<int> current{0};
};

// What the load generators share: two client connections, the stream, the
// expected replies per snapshot (one or two), and the tracer.
struct LoadContext {
  std::vector<cloudmap::serve::Client>* clients = nullptr;
  const RequestPool* pool = nullptr;
  const std::vector<std::string>* expected[2] = {nullptr, nullptr};
  SwapState* swap = nullptr;
  Tracer* tracer = nullptr;
  std::atomic<std::uint64_t> next_request{1};
};

struct LoadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      // transport error or non-ok status
  std::uint64_t mismatched = 0;  // answered, but not as in-process
  // Closed loop: round trips, and replies completed per second in the best
  // kQpsWindowS window.
  std::vector<std::int64_t> round_trip_ns;
  double qps = 0.0;
  // Open loop: each scheduled request's latency from its due time (a failed
  // or unsent request counts as kNeverNs), generator lateness, and backlog.
  std::vector<double> latency_ns;
  std::vector<std::int64_t> generator_late_ns;
  std::uint64_t backlog = 0;  // requests due before the end, sent after it
};

inline constexpr double kNeverNs = 9.2e18;
// Closed-loop throughput is counted per window, so that a stall of a few
// milliseconds on a shared host spoils one window, not the round.
inline constexpr double kQpsWindowS = 0.1;

// Each connection sends its next request as soon as the previous reply is
// checked, for `seconds`.
LoadResult closed_loop(LoadContext& context, double seconds);

// Requests fall due every 1/rate seconds for `seconds`, whatever the replies
// do; the next due request goes out on whichever connection is free.
// Latency runs from the due time, so a stalled reply also counts against
// the requests queued behind it. Generator lateness is how long after a
// request could go out (due, and a connection free) it actually went out.
LoadResult open_loop(LoadContext& context, double rate, double seconds);

// Answers stream requests [first, first + count) in-process, each under a
// "query.<kind>" span and an encode span sharing the request id. Adds the
// reply sizes to `items` and `bytes`.
void replay_in_process(const RequestPool& pool,
                       const cloudmap::QueryEngine& engine, Tracer& tracer,
                       std::uint64_t first, std::uint64_t count,
                       std::uint64_t& items, std::uint64_t& bytes);

// Quantile q (linear interpolation) of nanosecond samples; 0 when empty.
double quantile_ns(const std::vector<std::int64_t>& values, double q);

}  // namespace perfbench
