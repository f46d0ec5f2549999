// cloudmap_perfbench: the end-to-end benchmark. One workload per run: map
// the fabric (world generation through a mapped, viewable v3 snapshot) and
// serve it from a loopback daemon, checking every output, then print every
// end-to-end metric (untraced run) or every per-layer metric (traced run)
// as the last line of stdout. See README.md in this directory.
//
//   cloudmap_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                      --work-dir DIR [--query-seed N] [--trace-out FILE]
//                      [--smoke] [--plant-mismatch]
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "load.h"
#include "mapping.h"
#include "serve/server.h"
#include "trace.h"
#include "util/stats.h"

namespace {

using namespace cloudmap;
using namespace perfbench;

struct Workload {
  const char* name;
  // Swap the daemon to each round's map; otherwise serve the set-up's two
  // snapshots, hot-swapping them under the load.
  bool remap;
  bool hazards;     // gauntlet hazards and a reprobe budget
  Mix mix;
  double closed_s;  // closed-loop slice per round
  double open_s;    // open-loop slice per round
  double rate;      // open-loop requests per second
};

// Why each workload exists is in README.md. Two connections sustain 40000
// to 77000 point queries/s or 4500 to 5300 aggregates/s closed-loop on a
// shared 4-vCPU host, as its speed varies, so the open-loop rates load the
// daemon to 5-10% and 11-13%, and each round's open loop has 3000 or 1200
// requests. Below that, queueing behind a slow reply would stretch the
// latencies whenever the host slows down.
constexpr Workload kWorkloads[] = {
    {"map_hazard", true, true, Mix::kLookup, 0.3, 0.75, 4000.0},
    {"serve_analytics", false, false, Mix::kAnalytics, 0.5, 2.0, 600.0},
};

constexpr int kSetups = 3;  // set-ups per run; setup_s is their median
// Rounds cycle over this many inputs (world and request stream), so every
// run, however fast the code, times the same inputs; quality is scored on
// the first cycle. Worlds of different seeds differ in size by 10% or
// more, so the more inputs a run has, the less the seed moves its medians.
constexpr int kInputs = 6;
// Round samples grouped by input.
using PerInput = std::array<std::vector<double>, kInputs>;
constexpr std::size_t kConnections = 2;  // load connections (plus one control)
constexpr double kSwapIntervalS = 0.25;  // serve_analytics hot-swap period
constexpr std::uint64_t kReplayPerRound = 400;
// Open-loop latency quantiles are taken per window of this much schedule,
// so that a stall on a shared host spoils a window, not the round.
constexpr double kLatencyWindowS = 0.25;
// A run whose load generator woke this late (median round, p99) did not
// keep its schedule; its record says so ("valid": false).
constexpr double kMaxGeneratorLateUs = 1000.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t query_seed = 0;
  bool query_seed_set = false;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool plant_mismatch = false;
  std::string work_dir;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--plant-mismatch") {
      args.plant_mismatch = true;
    } else if ((v = value()) == nullptr) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    } else if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--query-seed") {
      args.query_seed = std::strtoull(v, nullptr, 10);
      args.query_seed_set = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--work-dir") {
      args.work_dir = v;
    } else if (flag == "--trace-out") {
      args.trace_out = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (!args.query_seed_set) args.query_seed = args.seed;
  return !args.work_dir.empty() && args.seconds > 0.0;
}

// Pooled ground-truth score over several maps.
struct Quality {
  std::uint64_t inferred = 0, inferred_true = 0;
  std::uint64_t discoverable = 0, discovered = 0, router_level = 0;
  void add(const InferenceScore& score) {
    inferred += score.inferred_cbis;
    inferred_true += score.inferred_true_cbis;
    discoverable += score.discoverable_interconnects;
    discovered += score.discovered;
    router_level += score.discovered_router_level;
  }
};

double ratio(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double ms_since(std::int64_t start) {
  return static_cast<double>(now_ns() - start) / 1e6;
}

class Run {
 public:
  Run(const Args& args, const Workload& workload)
      : args_(args), workload_(workload) {
    map_config_.small_world = args.smoke;
    if (args.smoke) setups_ = 1;
    map_config_.hazards = workload.hazards;
    map_config_.threads =
        static_cast<int>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
    context_.clients = &clients_;
    context_.pool = &pool_;
    context_.swap = &swap_;
    context_.tracer = &tracer_;
  }
  ~Run() { teardown(); }

  int execute();

 private:
  std::string path(const std::string& name) const {
    return args_.work_dir + "/" + name + ".snap";
  }
  bool fail(const std::string& what) {
    std::fprintf(stderr, "perfbench: %s\n", what.c_str());
    return false;
  }

  bool map_and_check(std::uint64_t world_seed, const std::string& file,
                     MapResult& out, std::int64_t& checker_ns);
  std::shared_ptr<const serve::ServedSnapshot> load_reference(
      const std::string& file);
  bool set_up(int index);
  void teardown();
  bool swap_to(const std::string& file, int snapshot);
  bool round(int index, bool traced);
  void record_load(const LoadResult& closed, const LoadResult& open,
                   int input, bool traced);
  void use_expected(int snapshot, std::vector<std::string> replies);
  void print_result();

  const Args& args_;
  const Workload& workload_;
  MapConfig map_config_;
  Tracer tracer_;

  std::unique_ptr<serve::Server> server_;
  std::vector<serve::Client> clients_;
  std::optional<serve::Client> control_;
  std::shared_ptr<const serve::ServedSnapshot> reference_[2];
  std::string served_files_[2];
  RequestPool pool_;
  std::vector<std::string> expected_[2];
  SwapState swap_;
  LoadContext context_;

  // Samples.
  std::vector<double> setup_s_;
  PerInput map_s_;  // the round maps
  std::vector<MapResult> maps_;  // counters of every map (views released)
  Quality quality_;
  PerInput qps_, p50_us_, p90_us_, p99_us_;
  std::vector<double> late_p99_us_, swap_ms_;
  std::vector<double> closed_rtt_us_;
  std::vector<double> traced_p50_us_, untraced_p50_us_, map_overhead_;
  std::uint64_t backlog_max_ = 0;
  std::uint64_t attempted_ = 0, failed_ = 0, mismatched_ = 0;
  std::uint64_t maps_checked_ = 0, map_check_failures_ = 0;
  std::uint64_t swaps_ = 0, swap_failures_ = 0;
  std::uint64_t replayed_ = 0, replay_items_ = 0, replay_bytes_ = 0;
  std::mutex swap_mutex_;  // the control connection
  // A round is mapping: serve_analytics' timed swaps wait, so that its
  // map_s times the campaign alone, as on map_hazard.
  std::atomic<bool> mapping_{false};
  serve::ServerStats server_stats_;
  int rounds_ = 0;
  int setups_ = kSetups;
};

bool Run::map_and_check(std::uint64_t world_seed, const std::string& file,
                        MapResult& out, std::int64_t& checker_ns) {
  std::string error;
  if (!map_world(map_config_, world_seed, file, tracer_, world_seed, out,
                 &error))
    return fail("map of world " + std::to_string(world_seed) + ": " + error);
  const std::int64_t start = now_ns();
  const long mismatches =
      check_view_against_index(file, *out.view, world_seed, &error);
  checker_ns += now_ns() - start;
  ++maps_checked_;
  if (mismatches != 0) {
    ++map_check_failures_;
    std::fprintf(stderr,
                 "perfbench: world %llu: FabricView and FabricIndex disagree "
                 "on %ld requests %s\n",
                 static_cast<unsigned long long>(world_seed), mismatches,
                 error.c_str());
  }
  out.view.reset();  // borrows the mapping, so goes first
  out.mapping = MappedSnapshot();
  return true;
}

std::shared_ptr<const serve::ServedSnapshot> Run::load_reference(
    const std::string& file) {
  std::string error;
  Span span(tracer_, "serve.load_snapshot");
  auto served = serve::load_served_snapshot(file, nullptr, &error);
  if (served == nullptr) fail("load " + file + ": " + error);
  return served;
}

void Run::use_expected(int snapshot, std::vector<std::string> replies) {
  expected_[snapshot] = std::move(replies);
  // The self-test's planted fault: one wrong expected reply, on the entry
  // the first stream request asks for.
  if (args_.plant_mismatch && snapshot == 0)
    expected_[0][pool_.pick(context_.next_request.load())] += '!';
  context_.expected[snapshot] = &expected_[snapshot];
}

bool Run::set_up(int index) {
  Span root(tracer_, "bench.setup", static_cast<std::uint64_t>(index));
  const std::int64_t start = now_ns();
  // The benchmark's own work, which setup_s leaves out: the output checks,
  // the request pool and the in-process expected replies.
  std::int64_t checker_ns = 0;
  const auto unclocked = [&checker_ns](auto body) {
    const std::int64_t begin = now_ns();
    body();
    checker_ns += now_ns() - begin;
  };
  const int snapshots = workload_.remap ? 1 : 2;
  for (int s = 0; s < snapshots; ++s) {
    served_files_[s] = path(s == 0 ? "a" : "b");
    MapResult map;
    if (!map_and_check(args_.seed + static_cast<std::uint64_t>(s),
                       served_files_[s], map, checker_ns))
      return false;
    maps_.push_back(std::move(map));
    unclocked([&] { reference_[s] = load_reference(served_files_[s]); });
    if (reference_[s] == nullptr) return false;
  }

  std::string error;
  serve::Server::Config config;
  config.port = 0;
  server_ = std::make_unique<serve::Server>(config);
  {
    Span span(tracer_, "serve.start");
    if (!server_->start(served_files_[0], &error))
      return fail("daemon start: " + error);
  }
  {
    Span span(tracer_, "serve.connect");
    for (std::size_t c = 0; c <= kConnections; ++c) {
      auto client =
          serve::Client::connect("127.0.0.1", server_->port(), &error);
      if (!client) return fail("connect: " + error);
      if (c < kConnections)
        clients_.push_back(std::move(*client));
      else
        control_ = std::move(*client);
    }
  }
  unclocked([&] {
    pool_ = build_pool(workload_.mix, *reference_[0]->view, args_.query_seed);
    for (int s = 0; s < snapshots; ++s)
      use_expected(s, expected_replies(pool_, *reference_[s]->engine));
  });
  swap_.current = 0;
  setup_s_.push_back(static_cast<double>(now_ns() - start - checker_ns) /
                     1e9);
  return true;
}

void Run::teardown() {
  clients_.clear();
  control_.reset();
  if (server_ != nullptr) {
    server_stats_ = server_->stats();
    server_->stop();
    server_.reset();
  }
  for (auto& reference : reference_) reference.reset();
  std::error_code ignored;
  for (const auto& entry :
       std::filesystem::directory_iterator(args_.work_dir, ignored))
    std::filesystem::remove(entry.path(), ignored);
}

bool Run::swap_to(const std::string& file, int snapshot) {
  std::lock_guard<std::mutex> lock(swap_mutex_);
  std::string error;
  swap_.epoch.fetch_add(1);
  const std::int64_t start = now_ns();
  bool ok = false;
  {
    Span span(tracer_, "serve.swap");
    ok = control_->swap(file, &error);
  }
  swap_ms_.push_back(ms_since(start));
  ++swaps_;
  if (ok) swap_.current = snapshot;
  swap_.epoch.fetch_add(1);
  if (!ok) {
    ++swap_failures_;
    std::fprintf(stderr, "perfbench: swap to %s: %s\n", file.c_str(),
                 error.c_str());
  }
  return ok;
}

bool Run::round(int index, bool traced) {
  tracer_.set_recording(traced);
  const double slice = args_.smoke ? 0.5 : 1.0;
  const int input = index % kInputs;
  // Every workload maps round input i's world, so map_s always comes from
  // the same worlds; serve_analytics maps the paper-shape ones and then
  // keeps serving (and hot-swapping) the set-up's snapshots.
  const std::uint64_t world =
      1000 * args_.seed + static_cast<std::uint64_t>(input);
  const std::string file = path("round-" + std::to_string(index));
  MapResult map;
  std::int64_t checker_ns = 0;
  mapping_ = true;
  if (!map_and_check(world, file, map, checker_ns)) return false;
  if (args_.trace) {
    // The same world again with the other tracing state: the pair gives
    // the tracing overhead on map_s. The order alternates by round.
    tracer_.set_recording(!traced);
    MapResult twin;
    if (!map_and_check(world, path("twin"), twin, checker_ns)) return false;
    tracer_.set_recording(traced);
    const double with = traced ? map.map_s : twin.map_s;
    const double without = traced ? twin.map_s : map.map_s;
    map_overhead_.push_back(100.0 * (with / without - 1.0));
  }
  mapping_ = false;
  map_s_[static_cast<std::size_t>(input)].push_back(map.map_s);
  if (index < kInputs) quality_.add(map.score);
  maps_.push_back(std::move(map));

  std::error_code ignored;
  if (!workload_.remap) {
    std::filesystem::remove(file, ignored);
  } else {
    auto reference = load_reference(file);
    if (reference == nullptr) return false;
    pool_ = build_pool(workload_.mix, *reference->view,
                       args_.query_seed + static_cast<std::uint64_t>(input));
    use_expected(0, expected_replies(pool_, *reference->engine));
    reference_[0] = std::move(reference);
    swap_to(file, 0);
    std::filesystem::remove(served_files_[0], ignored);
    served_files_[0] = file;
  }

  const std::uint64_t first = context_.next_request.load();
  const LoadResult closed = closed_loop(context_, workload_.closed_s * slice);
  const LoadResult open =
      open_loop(context_, workload_.rate, workload_.open_s * slice);
  record_load(closed, open, input, traced);
  if (traced) {
    replay_in_process(pool_, *reference_[0]->engine, tracer_, first,
                      kReplayPerRound, replay_items_, replay_bytes_);
    replayed_ += kReplayPerRound;
  }
  tracer_.set_recording(false);
  ++rounds_;
  return true;
}

void Run::record_load(const LoadResult& closed, const LoadResult& open,
                      int input, bool traced) {
  for (const LoadResult* result : {&closed, &open}) {
    attempted_ += result->attempted;
    failed_ += result->failed;
    mismatched_ += result->mismatched;
  }
  const auto slot = static_cast<std::size_t>(input);
  qps_[slot].push_back(closed.qps);
  closed_rtt_us_.push_back(quantile_ns(closed.round_trip_ns, 0.5) / 1e3);
  const double p50_us = quantile(open.latency_ns, 0.5) / 1e3;
  const auto window = static_cast<std::ptrdiff_t>(
      std::max(1.0, workload_.rate * kLatencyWindowS));
  for (auto begin = open.latency_ns.begin();
       open.latency_ns.end() - begin >= window; begin += window) {
    const std::vector<double> part(begin, begin + window);
    p50_us_[slot].push_back(quantile(part, 0.5) / 1e3);
    p90_us_[slot].push_back(quantile(part, 0.90) / 1e3);
  }
  p99_us_[slot].push_back(quantile(open.latency_ns, 0.99) / 1e3);
  (traced ? traced_p50_us_ : untraced_p50_us_).push_back(p50_us);
  late_p99_us_.push_back(quantile_ns(open.generator_late_ns, 0.99) / 1e3);
  backlog_max_ = std::max(backlog_max_, open.backlog);
}

int Run::execute() {
  std::filesystem::create_directories(args_.work_dir);
  tracer_.set_recording(args_.trace);
  for (int s = 0; s < setups_; ++s) {
    if (!set_up(s)) return 2;
    if (s + 1 < setups_) teardown();
  }
  tracer_.set_recording(false);

  // serve_analytics: a control thread hot-swaps A <-> B under the load.
  bool stop_swapping = false;
  std::condition_variable swap_cv;
  std::mutex swap_wait;
  std::thread swapper;
  if (!workload_.remap) {
    swapper = std::thread([&] {
      int next = 1;
      std::unique_lock<std::mutex> lock(swap_wait);
      const std::chrono::duration<double> interval(kSwapIntervalS);
      while (!swap_cv.wait_for(lock, interval, [&] { return stop_swapping; })) {
        if (mapping_) continue;
        swap_to(served_files_[next], next);
        next ^= 1;
      }
    });
  }
  const std::int64_t start = now_ns();
  const int min_rounds = args_.smoke ? 1 : kInputs;
  bool ok = true;
  for (int r = 0; ok && (r < min_rounds ||
                         static_cast<double>(now_ns() - start) / 1e9 <
                             args_.seconds);
       ++r)
    ok = round(r, args_.trace && r % 2 == 0);
  if (swapper.joinable()) {
    {
      std::lock_guard<std::mutex> lock(swap_wait);
      stop_swapping = true;
    }
    swap_cv.notify_all();
    swapper.join();
  }
  teardown();
  if (!ok) return 2;
  print_result();
  return 0;
}

// Each input's quantile q, then the median over the inputs. Hypervisor
// steal on a shared host comes and goes within seconds and only ever slows
// a sample down, so a good-side quantile of an input's repeats tracks the
// program; the median over inputs keeps one input that was never timed
// cleanly from setting the result.
double per_input(const PerInput& samples, double q) {
  std::vector<double> good;
  for (const std::vector<double>& repeats : samples)
    if (!repeats.empty()) good.push_back(quantile(repeats, q));
  return median(good);
}

std::vector<double> flatten(const PerInput& samples) {
  std::vector<double> out;
  for (const std::vector<double>& repeats : samples)
    out.insert(out.end(), repeats.begin(), repeats.end());
  return out;
}

std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

void Run::print_result() {
  rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
  const double late_p99 = median(late_p99_us_);
  const bool valid = late_p99 <= kMaxGeneratorLateUs;
  if (!valid)
    std::fprintf(stderr,
                 "perfbench: INVALID run: load generator fell behind its own "
                 "schedule (lateness p99 %.0f us)\n",
                 late_p99);
  const std::uint64_t failed =
      failed_ + mismatched_ + swap_failures_ + map_check_failures_;
  const std::uint64_t attempted = attempted_ + swaps_ + maps_checked_;
  const bool correct = failed == 0;

  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;
  const auto put = [&metrics](const std::string& name, double value,
                              const char* unit) {
    metrics.push_back({name, {value, unit}});
  };
  const std::uint64_t requests = attempted_;
  if (!args_.trace) {
    put("setup_s", median(setup_s_), "s");
    put("map_s", per_input(map_s_, 0.0), "s");
    put("peak_rss_mib", peak_rss_mib, "MiB");
    put("cbi_precision",
        ratio(quality_.inferred_true, quality_.inferred), "ratio");
    put("cbi_recall",
        ratio(quality_.discovered, quality_.discoverable), "ratio");
    put("router_recall",
        ratio(quality_.router_level, quality_.discoverable), "ratio");
    put("qps", per_input(qps_, 1.0), "1/s");
    // Many windows per input, so their lower quartile, not the best.
    put("p50_us", per_input(p50_us_, 0.25), "us");
    put("ok_ratio",
        1.0 - ratio(failed_ + mismatched_, requests), "ratio");
    // One swap per round, or on serve_analytics a timer's: the lower
    // quartile of them all.
    put("swap_ms", quantile(swap_ms_, 0.25), "ms");
  } else {
    const std::vector<SpanRecord> spans = tracer_.spans();
    auto durations = durations_ms(spans);
    const auto span_ms = [&durations](const char* name) {
      return median(durations[name]);
    };
    const auto map_median = [this](auto field) {
      std::vector<double> values;
      for (const MapResult& map : maps_) values.push_back(field(map));
      return median(values);
    };
    std::uint64_t hits = 0, lookups = 0, retries = 0, recovered = 0;
    for (const MapResult& map : maps_) {
      hits += map.bgp_cache_hits;
      lookups += map.bgp_cache_hits + map.bgp_cache_misses;
      retries += map.retries;
      recovered += map.recovered;
    }
    const double round2_probes = map_median(
        [](const MapResult& m) {
          return static_cast<double>(m.round2_probes);
        });
    put("topology.generate_ms", span_ms("topology.generate_world"), "ms");
    put("controlplane.build_ms", span_ms("controlplane.pipeline_build"),
        "ms");
    put("scenario.world_hazards_ms", span_ms("scenario.world_hazards"), "ms");
    put("infer.round1_ms", span_ms("infer.round1"), "ms");
    put("infer.round2_ms", span_ms("infer.round2"), "ms");
    put("infer.round2_probes", round2_probes, "count");
    put("infer.round2_traceroutes",
        map_median([](const MapResult& m) {
          return static_cast<double>(m.round2_traceroutes);
        }),
        "count");
    put("infer.round2_ns_per_probe",
        round2_probes > 0 ? span_ms("infer.round2") * 1e6 / round2_probes
                          : 0.0,
        "ns");
    put("infer.worker_utilization",
        map_median([](const MapResult& m) { return m.worker_utilization; }),
        "ratio");
    put("infer.bgp_cache_hit_ratio", ratio(hits, lookups), "ratio");
    put("infer.heuristics_ms", span_ms("infer.heuristics"), "ms");
    put("infer.retries", map_median([](const MapResult& m) {
          return static_cast<double>(m.retries);
        }),
        "count");
    put("infer.recovered_per_retry", ratio(recovered, retries),
        "ratio");
    put("alias.verify_ms", span_ms("alias.verify"), "ms");
    put("vpi.detect_ms", span_ms("vpi.detect"), "ms");
    put("vpi.probes", map_median([](const MapResult& m) {
          return static_cast<double>(m.vpi_probes);
        }),
        "count");
    put("pinning.anchors_ms", span_ms("pinning.anchors"), "ms");
    put("pinning.propagate_ms", span_ms("pinning.propagate"), "ms");
    put("io.snapshot_build_ms", span_ms("io.snapshot_build"), "ms");
    put("io.save_ms", span_ms("io.save"), "ms");
    put("io.snapshot_bytes", map_median([](const MapResult& m) {
          return static_cast<double>(m.snapshot_bytes);
        }),
        "bytes");
    put("io.map_ms", span_ms("io.map"), "ms");
    put("query.view_build_ms", span_ms("query.view_build"), "ms");
    put("serve.load_snapshot_ms", span_ms("serve.load_snapshot"), "ms");
    for (const char* kind :
         {"counts", "min_confidence", "histogram", "vpi_candidates", "lookup",
          "peers_of", "interfaces_in", "peer_list"}) {
      put(std::string("query.") + kind + "_us",
          span_ms((std::string("query.") + kind).c_str()) * 1e3, "us");
    }
    put("query.items_per_reply", ratio(replay_items_, replayed_),
        "items");
    put("serve.reply_bytes", ratio(replay_bytes_, replayed_), "bytes");
    std::vector<double> executes;
    for (const SpanRecord& s : spans) {
      const std::string name = s.name;
      if (name.rfind("query.", 0) == 0 && name != "query.view_build")
        executes.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
    put("serve.overhead_us", median(closed_rtt_us_) - median(executes), "us");
    put("serve.served", static_cast<double>(server_stats_.served), "count");
    put("serve.failed", static_cast<double>(server_stats_.failed), "count");
    put("serve.swaps", static_cast<double>(server_stats_.swaps), "count");
    put("serve.fail_ratio", ratio(failed_ + mismatched_, requests),
        "ratio");
    put("loadgen.p90_us", per_input(p90_us_, 0.25), "us");
    put("loadgen.p99_us", per_input(p99_us_, 0.0), "us");
    put("loadgen.late_p99_us", late_p99, "us");
    put("loadgen.backlog", static_cast<double>(backlog_max_), "count");
    put("trace.unattributed_pct", unattributed_pct(spans, "bench.map"), "%");
    const double untraced_p50 = median(untraced_p50_us_);
    put("trace.overhead_pct",
        workload_.remap ? median(map_overhead_)
        : untraced_p50 > 0.0
            ? 100.0 * (median(traced_p50_us_) / untraced_p50 - 1.0)
            : 0.0,
        "%");
    const auto self = self_ms_by_module(spans);
    for (const char* module : {"topology", "scenario", "controlplane", "infer",
                               "alias", "vpi", "pinning", "io", "query",
                               "serve"}) {
      const auto it = self.find(module);
      put(std::string(module) + ".self_ms",
          it == self.end() ? 0.0 : it->second, "ms");
    }
    if (!args_.trace_out.empty() && !tracer_.write_json(args_.trace_out))
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args_.trace_out.c_str());
  }

  const auto join = [](const std::vector<double>& values) {
    std::string out;
    for (const double value : values)
      out += (out.empty() ? "" : ", ") + json_number(value);
    return out;
  };
  std::printf(
      "{\"record\": {\"workload\": \"%s\", \"world_seed\": %llu, "
      "\"query_seed\": %llu, \"nproc\": %ld, \"campaign_threads\": %d, "
      "\"client_connections\": %zu, \"control_connections\": 1, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"seconds\": %s, "
      "\"trace\": %d, \"smoke\": %d, \"setups\": %zu, \"rounds\": %d, "
      "\"maps\": %zu, \"open_loop_rate\": %s, \"requests\": %llu, "
      "\"generator_late_p99_us\": %s, \"backlog\": %llu, \"valid\": %s, "
      "\"map_s_samples\": [%s], \"p50_us_samples\": [%s], "
      "\"p90_us_samples\": [%s], \"p99_us_samples\": [%s], "
      "\"qps_samples\": [%s]}}\n",
      workload_.name, static_cast<unsigned long long>(args_.seed),
      static_cast<unsigned long long>(args_.query_seed),
      sysconf(_SC_NPROCESSORS_ONLN), map_config_.threads, kConnections,
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      json_number(args_.seconds).c_str(), args_.trace ? 1 : 0,
      args_.smoke ? 1 : 0, setup_s_.size(), rounds_, maps_.size(),
      json_number(workload_.rate).c_str(),
      static_cast<unsigned long long>(requests), json_number(late_p99).c_str(),
      static_cast<unsigned long long>(backlog_max_), valid ? "true" : "false",
      join(flatten(map_s_)).c_str(), join(flatten(p50_us_)).c_str(),
      join(flatten(p90_us_)).c_str(), join(flatten(p99_us_)).c_str(),
      join(flatten(qps_)).c_str());
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) line += ", ";
    line += "\"" + metrics[i].first + "\": {\"value\": " +
            json_number(metrics[i].second.first) + ", \"unit\": \"" +
            metrics[i].second.second + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: cloudmap_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--query-seed N] "
                 "[--trace-out FILE] [--smoke] [--plant-mismatch]\n");
    return 2;
  }
  for (const Workload& workload : kWorkloads) {
    if (args.workload == workload.name) {
      Run run(args, workload);
      return run.execute();
    }
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               args.workload.c_str());
  return 2;
}
