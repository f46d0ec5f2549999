#include "load.h"

#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <thread>

#include "serve/protocol.h"
#include "util/rng.h"
#include "util/stats.h"

namespace perfbench {
namespace {

using namespace cloudmap;

const char* kind_span(QueryKind kind) {
  switch (kind) {
    case QueryKind::kCounts: return "query.counts";
    case QueryKind::kPeersOf: return "query.peers_of";
    case QueryKind::kPeerList: return "query.peer_list";
    case QueryKind::kInterfacesIn: return "query.interfaces_in";
    case QueryKind::kVpiCandidates: return "query.vpi_candidates";
    case QueryKind::kLookup: return "query.lookup";
    case QueryKind::kMinConfidence: return "query.min_confidence";
    case QueryKind::kConfidenceHistogram: return "query.histogram";
  }
  return "query.unknown";
}

// Spin this close to a due time instead of sleeping, so wake-up latency
// does not show up as generator lateness.
constexpr std::int64_t kSpinNs = 200'000;

// Sends one stream request on `client` and checks the reply. Returns false
// when the connection is gone.
bool send_one(LoadContext& context, serve::Client& client, std::uint64_t id,
              LoadResult& result, std::int64_t& sent_ns,
              std::int64_t& received_ns) {
  const std::size_t entry = context.pool->pick(id);
  const QueryRequest& request = context.pool->requests[entry];
  QueryResponse response;
  std::string error;
  const std::uint64_t epoch_before = context.swap->epoch.load();
  bool ok = false;
  {
    Span span(*context.tracer, "serve.query", id);
    sent_ns = now_ns();
    ok = client.query(request, response, &error);
    received_ns = now_ns();
  }
  const int current = context.swap->current.load();
  const std::uint64_t epoch_after = context.swap->epoch.load();
  ++result.attempted;
  if (!ok || response.status != QueryStatus::kOk) {
    ++result.failed;
    return ok;
  }
  const std::string encoded = serve::encode_query_response(response);
  const auto matches = [&](int snapshot) {
    const std::vector<std::string>* expected = context.expected[snapshot];
    return expected != nullptr && (*expected)[entry] == encoded;
  };
  const bool stable = epoch_before == epoch_after && epoch_before % 2 == 0;
  if (stable ? !matches(current) : !(matches(0) || matches(1)))
    ++result.mismatched;
  return true;
}

void merge_into(LoadResult& total, LoadResult&& part) {
  total.attempted += part.attempted;
  total.failed += part.failed;
  total.mismatched += part.mismatched;
  total.backlog += part.backlog;
  total.round_trip_ns.insert(total.round_trip_ns.end(),
                             part.round_trip_ns.begin(),
                             part.round_trip_ns.end());
  total.generator_late_ns.insert(total.generator_late_ns.end(),
                                 part.generator_late_ns.begin(),
                                 part.generator_late_ns.end());
}

// Runs `body(connection index, result)` on one thread per client
// connection and merges the results.
template <typename Body>
LoadResult on_each_connection(LoadContext& context, Body body) {
  std::vector<LoadResult> parts(context.clients->size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < parts.size(); ++c)
    threads.emplace_back([&, c] { body(c, parts[c]); });
  for (std::thread& thread : threads) thread.join();
  LoadResult total;
  for (LoadResult& part : parts) merge_into(total, std::move(part));
  return total;
}

}  // namespace

std::size_t RequestPool::pick(std::uint64_t id) const {
  return static_cast<std::size_t>((offset + id * stride) % requests.size());
}

namespace {

// Draws the pool's stream order: a start and a stride coprime to its size.
void draw_order(RequestPool& pool, Rng& rng) {
  const std::uint64_t size = pool.requests.size();
  pool.offset = rng.bounded(size);
  do {
    pool.stride = 1 + rng.bounded(size);
  } while (std::gcd(pool.stride, size) != 1);
}

}  // namespace

RequestPool build_pool(Mix mix, const FabricBackend& backend,
                       std::uint64_t seed) {
  RequestPool pool;
  Rng rng(seed);
  const auto request = [](QueryKind kind) {
    QueryRequest r;
    r.kind = kind;
    return r;
  };
  if (mix == Mix::kAnalytics) {
    // Out of 5: 2 counts, a threshold (0..0.9 over the tenths), a histogram
    // and the VPIs. Round trips on a 4-vCPU host: histogram ~60 us, VPIs
    // and threshold 0.9 ~270 us, thresholds 0..0.8 ~500 us, counts ~700
    // us. With these shares the median falls inside the 0..0.8 thresholds
    // (42% to 60% of the mix), not on the step between two kinds, where
    // it would jump with the host's speed.
    for (int tenth = 0; tenth < 10; ++tenth) {
      pool.requests.push_back(request(QueryKind::kCounts));
      pool.requests.push_back(request(QueryKind::kCounts));
      QueryRequest threshold = request(QueryKind::kMinConfidence);
      threshold.min_confidence = tenth / 10.0;
      pool.requests.push_back(threshold);
      pool.requests.push_back(request(QueryKind::kConfidenceHistogram));
      QueryRequest vpis = request(QueryKind::kVpiCandidates);
      vpis.want_briefs = true;
      pool.requests.push_back(vpis);
    }
    draw_order(pool, rng);
    return pool;
  }
  // Point queries, out of 16: 8 lookups (4 on an inferred ABI or CBI, 4 on
  // a random address), 4 peers_of with briefs, 2 interfaces_in, 2
  // peer_list.
  const Span32 peers = backend.asn_list();
  const Span32 metros = backend.metro_list();
  const std::size_t segments = backend.segment_count();
  for (int i = 0; i < 4096; ++i) {
    const int slot = i % 16;
    if (slot < 8) {
      QueryRequest lookup = request(QueryKind::kLookup);
      if (slot < 4 && segments > 0) {
        const SegmentFacts facts = backend.segment(
            static_cast<std::uint32_t>(rng.bounded(segments)));
        lookup.address = (slot % 2 == 0) ? facts.abi : facts.cbi;
      } else {
        lookup.address = static_cast<std::uint32_t>(rng.next());
      }
      pool.requests.push_back(lookup);
    } else if (slot < 12) {
      QueryRequest peers_of = request(QueryKind::kPeersOf);
      peers_of.asn = peers.empty() ? 0 : peers[rng.bounded(peers.size())];
      peers_of.want_briefs = true;
      pool.requests.push_back(peers_of);
    } else if (slot < 14) {
      QueryRequest interfaces = request(QueryKind::kInterfacesIn);
      interfaces.metro =
          metros.empty() ? 0 : metros[rng.bounded(metros.size())];
      pool.requests.push_back(interfaces);
    } else {
      pool.requests.push_back(request(QueryKind::kPeerList));
    }
  }
  draw_order(pool, rng);
  return pool;
}

std::vector<std::string> expected_replies(const RequestPool& pool,
                                          const QueryEngine& engine) {
  std::vector<std::string> out;
  out.reserve(pool.requests.size());
  for (const QueryRequest& request : pool.requests)
    out.push_back(serve::encode_query_response(engine.execute(request)));
  return out;
}

LoadResult closed_loop(LoadContext& context, double seconds) {
  const std::int64_t start = now_ns();
  const auto window_ns = static_cast<std::int64_t>(kQpsWindowS * 1e9);
  const auto windows = static_cast<std::size_t>(
      std::max(1.0, std::round(seconds / kQpsWindowS)));
  const std::int64_t end =
      start + static_cast<std::int64_t>(windows) * window_ns;
  // Completions per window, per connection.
  std::vector<std::vector<std::uint64_t>> completed(
      context.clients->size(), std::vector<std::uint64_t>(windows, 0));
  LoadResult total = on_each_connection(
      context, [&](std::size_t c, LoadResult& out) {
        serve::Client& client = (*context.clients)[c];
        std::int64_t sent = 0;
        std::int64_t received = start;
        while (received < end) {
          const std::uint64_t id = context.next_request.fetch_add(1);
          if (!send_one(context, client, id, out, sent, received)) return;
          out.round_trip_ns.push_back(received - sent);
          if (received < end)
            ++completed[c][static_cast<std::size_t>((received - start) /
                                                    window_ns)];
        }
      });
  for (std::size_t w = 0; w < windows; ++w) {
    std::uint64_t count = 0;
    for (const auto& per_connection : completed) count += per_connection[w];
    total.qps =
        std::max(total.qps, static_cast<double>(count) / kQpsWindowS);
  }
  return total;
}

LoadResult open_loop(LoadContext& context, double rate, double seconds) {
  const auto interval_ns = static_cast<std::int64_t>(1e9 / rate);
  const auto scheduled = static_cast<std::uint64_t>(seconds * rate);
  const std::int64_t start = now_ns() + 1'000'000;
  const std::int64_t end =
      start + static_cast<std::int64_t>(scheduled) * interval_ns;
  std::atomic<std::uint64_t> next{0};
  const std::uint64_t first_id = context.next_request.fetch_add(scheduled);
  // Latency by schedule index; a request that failed or was never sent
  // stays kNeverNs.
  std::vector<double> latency(scheduled, kNeverNs);
  LoadResult total = on_each_connection(
      context, [&](std::size_t c, LoadResult& out) {
        serve::Client& client = (*context.clients)[c];
        // Timer slack would otherwise round every sleep up by ~50 us.
        prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        std::int64_t free_since = start;
        for (;;) {
          const std::uint64_t index = next.fetch_add(1);
          if (index >= scheduled) return;
          const std::int64_t due =
              start + static_cast<std::int64_t>(index) * interval_ns;
          if (due - now_ns() > kSpinNs)
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(due - now_ns() - kSpinNs));
          while (now_ns() < due) {
          }
          std::int64_t sent = 0;
          std::int64_t received = 0;
          const std::uint64_t failed_before = out.failed;
          if (!send_one(context, client, first_id + index, out, sent,
                        received))
            return;
          if (out.failed == failed_before)
            latency[index] = static_cast<double>(received - due);
          out.generator_late_ns.push_back(sent - std::max(due, free_since));
          if (sent > end) ++out.backlog;
          free_since = now_ns();
        }
      });
  total.latency_ns = std::move(latency);
  return total;
}

void replay_in_process(const RequestPool& pool, const QueryEngine& engine,
                       Tracer& tracer, std::uint64_t first,
                       std::uint64_t count, std::uint64_t& items,
                       std::uint64_t& bytes) {
  for (std::uint64_t id = first; id < first + count; ++id) {
    const QueryRequest& request = pool.requests[pool.pick(id)];
    QueryResponse response;
    {
      Span span(tracer, kind_span(request.kind), id);
      response = engine.execute(request);
    }
    std::string encoded;
    {
      Span span(tracer, "serve.encode", id);
      encoded = serve::encode_query_response(response);
    }
    items += response.items.size();
    bytes += encoded.size();
  }
}

double quantile_ns(const std::vector<std::int64_t>& values, double q) {
  return quantile(std::vector<double>(values.begin(), values.end()), q);
}

}  // namespace perfbench
