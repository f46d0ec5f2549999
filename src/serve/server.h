// cloudmap_serve's engine room: a loopback TCP daemon answering framed
// QueryRequests (serve/protocol.h) from many concurrent clients over one
// immutable, swappable snapshot.
//
// Snapshot hot-swap is RCU-style: the current ServedSnapshot (mmap +
// zero-copy FabricView + QueryEngine) lives behind one mutex-guarded
// shared_ptr slot. Each query copies the pointer under the mutex, answers
// from that snapshot without holding it, and drops the reference — so a
// kSwap installs the new snapshot with one guarded pointer store while
// readers are in flight: every request is answered entirely from the
// snapshot it started with (old or new, never a mixture), a reader waits
// at most for one pointer copy, and the old mapping is unmapped when its
// last in-flight reader finishes. A failed swap (missing file, corrupt
// blob) leaves the current snapshot untouched.
//
// Thread model: one accept thread plus one thread per client connection,
// all joined on stop(). Queries touch only the immutable snapshot, the
// pointer slot and relaxed atomic counters.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>  // lint: thread-ok(per-client serving threads; joined in stop())
#include <vector>

#include "io/mapped_snapshot.h"
#include "obs/metrics.h"
#include "query/engine.h"
#include "query/fabric_view.h"
#include "serve/protocol.h"
#include "util/thread_annotations.h"

namespace cloudmap::serve {

// One served snapshot: the mapping that owns the bytes, the zero-copy view
// over its blob, and the engine that answers requests. Immutable once
// built; shared by every in-flight query via shared_ptr.
struct ServedSnapshot {
  MappedSnapshot mapping;
  std::unique_ptr<FabricView> view;
  std::unique_ptr<QueryEngine> engine;
};

// mmap + validate `path` (format v3 only) and build the serving stack over
// it. Returns nullptr with a diagnostic on any failure.
std::shared_ptr<const ServedSnapshot> load_served_snapshot(
    const std::string& path, MetricsRegistry* metrics, std::string* error);

class Server {
 public:
  struct Config {
    int port = 0;         // 0 = kernel-assigned ephemeral port
    int max_clients = 64;
  };

  explicit Server(Config config, MetricsRegistry* metrics = nullptr);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Load the initial snapshot, bind 127.0.0.1, and spawn the accept
  // thread. False (with a diagnostic) if the snapshot or the socket fails.
  bool start(const std::string& snapshot_path, std::string* error);

  // The bound port (after start(); stable until stop()).
  std::uint16_t port() const { return port_; }

  // Atomically install the snapshot at `path`; the old snapshot keeps
  // serving its in-flight queries. Also reachable over the wire via kSwap.
  bool swap(const std::string& path, std::string* error);

  ServerStats stats() const;

  // Number of connection slots currently allocated. Slots are reused as
  // clients come and go, so this stays bounded by max_clients however many
  // connections the daemon has served (regression guard for the unbounded
  // per-connection growth this replaces).
  std::size_t client_slots() const;

  // Ask the server to shut down (idempotent; also triggered by kStop).
  void request_stop();
  // Block until a stop is requested, then join every thread. The daemon's
  // main thread parks here.
  void wait();
  // request_stop() + join; safe to call more than once.
  void stop();

 private:
  std::shared_ptr<const ServedSnapshot> snapshot() const
      CM_EXCLUDES(current_mutex_);
  void store_snapshot(std::shared_ptr<const ServedSnapshot> next)
      CM_EXCLUDES(current_mutex_);
  void accept_loop();
  void handle_client(int fd, std::size_t slot);
  void join_all();

  Config config_;
  MetricsRegistry* metrics_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;

  // The served snapshot; the mutex is held only to copy or replace the
  // pointer.
  mutable Mutex current_mutex_;
  std::shared_ptr<const ServedSnapshot> current_ CM_GUARDED_BY(current_mutex_);

  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> swaps_{0};
  std::atomic<int> active_clients_{0};

  std::atomic<bool> stopping_{false};
  bool joined_ = false;
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;

  // Per-connection bookkeeping. Slots are index-stable and REUSED: a client
  // thread marks its slot `done` on the way out, and the accept loop joins
  // that finished thread and hands the slot to the next connection. Because
  // a slot only stays not-done while its connection is counted in
  // active_clients_, the vector can never outgrow max_clients — a daemon
  // serving millions of short-lived connections holds at most max_clients
  // slots, where the previous push_back-per-connection scheme leaked one
  // thread object and one fd entry per connection for the process lifetime.
  struct ClientSlot {
    std::thread thread;  // lint: thread-ok(joined on slot reuse or in stop())
    int fd = -1;         // -1 once its connection has closed
    bool done = false;   // thread finished: joinable and reusable
  };

  std::thread accept_thread_;  // lint: thread-ok(joined in stop())
  mutable std::mutex clients_mutex_;
  std::vector<ClientSlot> clients_;
};

}  // namespace cloudmap::serve
