// Fixture: a declared hot path reaching for node-based containers.
// lint: hot-path
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace cloudmap {

int count_routes() {
  std::map<int, int> routes;  // hot-path-container: std::map
  std::set<int> seen;         // hot-path-container: std::set
  routes[1] = 2;
  seen.insert(1);
  return static_cast<int>(routes.size() + seen.size());
}

int count_addresses() {
  std::unordered_map<int, int> by_ip;  // hot-path-container: unordered_map
  std::unordered_set<int> seen;        // hot-path-container: unordered_set
  by_ip[1] = 2;
  seen.insert(1);
  return static_cast<int>(by_ip.size() + seen.size());
}

}  // namespace cloudmap
