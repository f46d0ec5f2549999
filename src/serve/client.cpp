#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

namespace cloudmap::serve {

namespace {

bool set_error(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

std::optional<Client> Client::connect(const std::string& host,
                                      std::uint16_t port,
                                      std::string* error) {
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    set_error(error, "serve: not a numeric IPv4 address: " + host);
    return std::nullopt;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    set_error(error, "serve: cannot create socket");
    return std::nullopt;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    set_error(error, "serve: cannot connect to " + host + ":" +
                         std::to_string(port));
    return std::nullopt;
  }
  Client client;
  client.fd_ = fd;
  return client;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Client::Client(Client&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

bool Client::roundtrip(MsgType type, const std::string& payload, Frame& reply,
                       std::string* error) {
  if (fd_ < 0) return set_error(error, "serve: not connected");
  if (!write_frame(fd_, type, payload))
    return set_error(error, "serve: connection lost while sending");
  if (read_frame(fd_, reply, kMaxFramePayload) != FrameStatus::kOk)
    return set_error(error, "serve: connection lost while receiving");
  if (reply.type == MsgType::kError) {
    std::string message;
    if (!decode_text(reply.payload, message))
      message = "malformed error reply";
    return set_error(error, "serve: " + message);
  }
  if (reply.type != MsgType::kReply)
    return set_error(error, "serve: unexpected reply type");
  return true;
}

bool Client::query(const QueryRequest& request, QueryResponse& response,
                   std::string* error) {
  Frame reply;
  if (!roundtrip(MsgType::kQuery, encode_query_request(request), reply,
                 error))
    return false;
  if (!decode_query_response(reply.payload, response))
    return set_error(error, "serve: malformed query response");
  return true;
}

bool Client::swap(const std::string& path, std::string* error) {
  Frame reply;
  return roundtrip(MsgType::kSwap, encode_text(path), reply, error);
}

bool Client::ping(std::string* error) {
  Frame reply;
  return roundtrip(MsgType::kPing, std::string(), reply, error);
}

bool Client::stats(ServerStats& stats, std::string* error) {
  Frame reply;
  if (!roundtrip(MsgType::kStats, std::string(), reply, error)) return false;
  if (!decode_stats(reply.payload, stats))
    return set_error(error, "serve: malformed stats reply");
  return true;
}

bool Client::stop_server(std::string* error) {
  Frame reply;
  return roundtrip(MsgType::kStop, std::string(), reply, error);
}

}  // namespace cloudmap::serve
