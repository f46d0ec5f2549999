#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

namespace cloudmap::serve {

std::shared_ptr<const ServedSnapshot> load_served_snapshot(
    const std::string& path, MetricsRegistry* metrics, std::string* error) {
  auto mapped = MappedSnapshot::open(path, error);
  if (!mapped) return nullptr;
  auto served = std::make_shared<ServedSnapshot>();
  served->mapping = std::move(*mapped);
  served->view = std::make_unique<FabricView>(served->mapping.blob());
  served->engine = std::make_unique<QueryEngine>(
      static_cast<const FabricBackend&>(*served->view), metrics);
  return served;
}

Server::Server(Config config, MetricsRegistry* metrics)
    : config_(config), metrics_(metrics) {}

Server::~Server() { stop(); }

std::shared_ptr<const ServedSnapshot> Server::snapshot() const {
  const MutexLock lock(&current_mutex_);
  return current_;
}

void Server::store_snapshot(std::shared_ptr<const ServedSnapshot> next) {
  // Swap under the lock, release outside it: the old snapshot's last
  // reference may be this one, and unmapping it need not block readers.
  {
    const MutexLock lock(&current_mutex_);
    current_.swap(next);
  }
}

bool Server::start(const std::string& snapshot_path, std::string* error) {
  auto served = load_served_snapshot(snapshot_path, metrics_, error);
  if (served == nullptr) return false;
  store_snapshot(std::move(served));

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = "serve: cannot create socket";
    return false;
  }
  const int reuse = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    if (error != nullptr)
      *error = "serve: cannot bind loopback port " +
               std::to_string(config_.port);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound = {};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);

  accept_thread_ = std::thread([this] { accept_loop(); });  // lint: thread-ok(joined in stop())
  return true;
}

bool Server::swap(const std::string& path, std::string* error) {
  auto next = load_served_snapshot(path, metrics_, error);
  if (next == nullptr) return false;
  store_snapshot(std::move(next));
  swaps_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::size_t Server::client_slots() const {
  std::lock_guard<std::mutex> lock(clients_mutex_);
  return clients_.size();
}

ServerStats Server::stats() const {
  ServerStats out;
  out.served = served_.load(std::memory_order_relaxed);
  out.failed = failed_.load(std::memory_order_relaxed);
  out.swaps = swaps_.load(std::memory_order_relaxed);
  out.clients = static_cast<std::uint64_t>(
      active_clients_.load(std::memory_order_relaxed));
  return out;
}

void Server::request_stop() {
  if (stopping_.exchange(true)) return;
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  std::lock_guard<std::mutex> lock(stop_mutex_);
  stop_cv_.notify_all();
}

void Server::wait() {
  {
    std::unique_lock<std::mutex> lock(stop_mutex_);
    stop_cv_.wait(lock, [this] { return stopping_.load(); });
  }
  join_all();
}

void Server::stop() {
  request_stop();
  join_all();
}

void Server::join_all() {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    if (joined_) return;
    joined_ = true;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // Unblock every client thread still parked in recv().
    std::lock_guard<std::mutex> lock(clients_mutex_);
    for (const ClientSlot& client : clients_)
      if (client.fd >= 0) ::shutdown(client.fd, SHUT_RDWR);
  }
  // The accept thread is joined, so no slot can be handed out or have its
  // thread object reassigned any more; joining outside the lock lets the
  // client threads take it to mark themselves done on the way out.
  for (ClientSlot& client : clients_)  // lint: thread-ok(join at shutdown)
    if (client.thread.joinable()) client.thread.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (stop) or failed
    }
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      break;
    }
    // Admission is a compare-and-increment: the load-then-add it replaces
    // could let a racing accept path pass the check while the counter was
    // already at the cap, exceeding max_clients.
    int admitted = active_clients_.load(std::memory_order_relaxed);
    bool admit = false;
    while (admitted < config_.max_clients) {
      if (active_clients_.compare_exchange_weak(admitted, admitted + 1,
                                                std::memory_order_relaxed)) {
        admit = true;
        break;
      }
    }
    if (!admit) {
      // Best-effort rejection. The peer may never drain its receive buffer,
      // so bound the send with a short SO_SNDTIMEO instead of letting a
      // full socket buffer wedge the accept loop; write_frame's write_all
      // handles partial writes, and the timeout turns a blocked send into a
      // failed one, which rejection can ignore.
      timeval reject_timeout = {};
      reject_timeout.tv_sec = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &reject_timeout,
                   sizeof(reject_timeout));
      write_frame(fd, MsgType::kError, encode_text("server full"));
      ::close(fd);
      continue;
    }
    std::lock_guard<std::mutex> lock(clients_mutex_);
    // Prefer a finished slot: reap its thread and hand the slot over.
    std::size_t slot = clients_.size();
    for (std::size_t s = 0; s < clients_.size(); ++s) {
      if (clients_[s].done) {
        slot = s;
        break;
      }
    }
    if (slot == clients_.size()) {
      clients_.emplace_back();
    } else if (clients_[slot].thread.joinable()) {
      // `done` is set on the thread's way out, so this join is momentary.
      clients_[slot].thread.join();
    }
    ClientSlot& client = clients_[slot];
    client.fd = fd;
    client.done = false;
    client.thread = std::thread(  // lint: thread-ok(one per client; joined on slot reuse or in stop())
        [this, fd, slot] { handle_client(fd, slot); });
  }
}

void Server::handle_client(int fd, std::size_t slot) {
  Frame frame;
  // Requests are small: a header declaring more is dropped before a payload
  // byte is read or a buffer allocated for it.
  FrameStatus status;
  while ((status = read_frame(fd, frame, kMaxRequestPayload)) ==
         FrameStatus::kOk) {
    switch (frame.type) {
      case MsgType::kQuery: {
        QueryRequest request;
        if (!decode_query_request(frame.payload, request)) {
          failed_.fetch_add(1, std::memory_order_relaxed);
          write_frame(fd, MsgType::kError,
                      encode_text("malformed query payload"));
          break;
        }
        // The shared_ptr copy pins this snapshot for the whole query, so a
        // concurrent swap never pulls the mapping out from under us.
        const std::shared_ptr<const ServedSnapshot> snap = snapshot();
        const QueryResponse response = snap->engine->execute(request);
        if (response.status == QueryStatus::kOk)
          served_.fetch_add(1, std::memory_order_relaxed);
        else
          failed_.fetch_add(1, std::memory_order_relaxed);
        write_frame(fd, MsgType::kReply, encode_query_response(response));
        break;
      }
      case MsgType::kSwap: {
        std::string path;
        if (!decode_text(frame.payload, path)) {
          failed_.fetch_add(1, std::memory_order_relaxed);
          write_frame(fd, MsgType::kError,
                      encode_text("malformed swap payload"));
          break;
        }
        std::string swap_error;
        if (swap(path, &swap_error)) {
          write_frame(fd, MsgType::kReply, encode_text(""));
        } else {
          failed_.fetch_add(1, std::memory_order_relaxed);
          write_frame(fd, MsgType::kError, encode_text(swap_error));
        }
        break;
      }
      case MsgType::kPing:
        write_frame(fd, MsgType::kReply, std::string());
        break;
      case MsgType::kStats:
        write_frame(fd, MsgType::kReply, encode_stats(stats()));
        break;
      case MsgType::kStop:
        write_frame(fd, MsgType::kReply, std::string());
        request_stop();
        break;
      default:
        failed_.fetch_add(1, std::memory_order_relaxed);
        write_frame(fd, MsgType::kError,
                    encode_text("unexpected message type"));
        break;
    }
  }
  // A close at a frame boundary is a client leaving; anything else (bad
  // CRC, oversized header, truncated frame) is a dropped frame.
  if (status != FrameStatus::kClosed)
    failed_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(clients_mutex_);
    clients_[slot].fd = -1;
    clients_[slot].done = true;
  }
  ::close(fd);
  // Decrement AFTER marking done: a slot that is not done is therefore
  // always covered by the active count, which is what bounds clients_ at
  // max_clients entries.
  active_clients_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace cloudmap::serve
