// FlatPrefixTrie, the repo's one longest-prefix-match structure: exact
// semantics (most specific wins, /0 default, /32 entries, matched prefix,
// address-order for_each, last insert wins), randomized cross-checks
// against a brute-force linear-scan oracle, covering/adjacent /24
// structure and batch-vs-scalar identity — plus the FlatHashMap probe
// table behind the World and forwarder indices.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/flat_hash.h"
#include "net/flat_prefix_trie.h"
#include "util/rng.h"

namespace cloudmap {
namespace {

// Brute-force LPM oracle: a linear scan for the longest containing prefix.
// Re-inserting a prefix overwrites its value (last insert wins).
template <typename Value>
class LinearScanOracle {
 public:
  void insert(const Prefix& prefix, Value value) {
    const auto [slot, added] = slot_.emplace(prefix, entries_.size());
    if (added)
      entries_.emplace_back(prefix, value);
    else
      entries_[slot->second].second = value;
  }

  const std::pair<Prefix, Value>* lookup(Ipv4 address) const {
    const std::pair<Prefix, Value>* best = nullptr;
    for (const auto& entry : entries_) {
      if (!entry.first.contains(address)) continue;
      if (best == nullptr || entry.first.length() > best->first.length())
        best = &entry;
    }
    return best;
  }

  std::size_t size() const { return entries_.size(); }

  // The distinct prefixes in (network, length) order.
  std::vector<std::pair<Prefix, Value>> sorted() const {
    std::vector<std::pair<Prefix, Value>> out = entries_;
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  std::map<Prefix, std::size_t> slot_;
  std::vector<std::pair<Prefix, Value>> entries_;
};

TEST(FlatPrefixTrie, MostSpecificWins) {
  FlatPrefixTrie<int> trie;
  trie.insert(Prefix(Ipv4(10, 0, 0, 0), 8), 8);
  trie.insert(Prefix(Ipv4(10, 1, 0, 0), 16), 16);
  trie.insert(Prefix(Ipv4(10, 1, 2, 0), 24), 24);
  trie.freeze();
  ASSERT_NE(trie.lookup(Ipv4(10, 1, 2, 3)), nullptr);
  EXPECT_EQ(*trie.lookup(Ipv4(10, 1, 2, 3)), 24);
  EXPECT_EQ(*trie.lookup(Ipv4(10, 1, 3, 1)), 16);
  EXPECT_EQ(*trie.lookup(Ipv4(10, 9, 9, 9)), 8);
  EXPECT_EQ(trie.lookup(Ipv4(11, 0, 0, 0)), nullptr);
}

TEST(FlatPrefixTrie, DefaultRouteAtLengthZero) {
  FlatPrefixTrie<int> trie;
  trie.insert(Prefix(Ipv4(0, 0, 0, 0), 0), 1);
  trie.freeze();
  ASSERT_NE(trie.lookup(Ipv4(200, 200, 200, 200)), nullptr);
  EXPECT_EQ(*trie.lookup(Ipv4(200, 200, 200, 200)), 1);
  const auto entry = trie.lookup_entry(Ipv4(200, 200, 200, 200));
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->first.to_string(), "0.0.0.0/0");
}

TEST(FlatPrefixTrie, Slash32Entries) {
  FlatPrefixTrie<int> trie;
  trie.insert(Prefix(Ipv4(10, 0, 0, 5), 32), 5);
  trie.insert(Prefix(Ipv4(10, 0, 0, 0), 24), 24);
  trie.freeze();
  EXPECT_EQ(*trie.lookup(Ipv4(10, 0, 0, 5)), 5);
  EXPECT_EQ(*trie.lookup(Ipv4(10, 0, 0, 6)), 24);
  EXPECT_EQ(*trie.lookup(Ipv4(10, 0, 0, 4)), 24);
}

TEST(FlatPrefixTrie, LookupEntryReportsMatchedPrefix) {
  FlatPrefixTrie<int> trie;
  trie.insert(Prefix(Ipv4(10, 1, 0, 0), 16), 7);
  trie.freeze();
  const auto entry = trie.lookup_entry(Ipv4(10, 1, 2, 3));
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->first.to_string(), "10.1.0.0/16");
  EXPECT_EQ(entry->second, 7);
}

TEST(FlatPrefixTrie, ForEachVisitsAllInAddressOrder) {
  FlatPrefixTrie<int> trie;
  trie.insert(Prefix(Ipv4(20, 0, 0, 0), 8), 1);
  trie.insert(Prefix(Ipv4(10, 5, 0, 0), 16), 3);
  trie.insert(Prefix(Ipv4(10, 0, 0, 0), 8), 2);
  trie.freeze();
  std::vector<std::string> seen;
  trie.for_each([&](const Prefix& p, int) { seen.push_back(p.to_string()); });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], "10.0.0.0/8");
  EXPECT_EQ(seen[1], "10.5.0.0/16");
  EXPECT_EQ(seen[2], "20.0.0.0/8");
}

TEST(FlatPrefixTrie, EmptyLookups) {
  FlatPrefixTrie<int> trie;
  trie.freeze();
  EXPECT_TRUE(trie.empty());
  EXPECT_EQ(trie.lookup(Ipv4(1, 2, 3, 4)), nullptr);
  EXPECT_EQ(trie.exact(Prefix(Ipv4(1, 2, 3, 0), 24)), nullptr);
  EXPECT_FALSE(trie.lookup_entry(Ipv4(1, 2, 3, 4)).has_value());
}

TEST(FlatPrefixTrie, CoveringAndAdjacentSlash24s) {
  // A /16 covering two adjacent /24s, one of which carries a /32: the walk
  // must pick the most specific match at every level, and the adjacent /24
  // must not bleed into its neighbour.
  FlatPrefixTrie<int> trie;
  trie.insert(Prefix(Ipv4(10, 1, 0, 0), 16), 160);
  trie.insert(Prefix(Ipv4(10, 1, 5, 0), 24), 240);
  trie.insert(Prefix(Ipv4(10, 1, 6, 0), 24), 241);
  trie.insert(Prefix(Ipv4(10, 1, 5, 99), 32), 320);
  trie.freeze();

  EXPECT_EQ(*trie.lookup(Ipv4(10, 1, 4, 7)), 160);    // /16 only
  EXPECT_EQ(*trie.lookup(Ipv4(10, 1, 5, 1)), 240);    // first /24
  EXPECT_EQ(*trie.lookup(Ipv4(10, 1, 5, 99)), 320);   // the /32 inside it
  EXPECT_EQ(*trie.lookup(Ipv4(10, 1, 6, 99)), 241);   // adjacent /24
  EXPECT_EQ(*trie.lookup(Ipv4(10, 1, 7, 0)), 160);    // past both /24s
  EXPECT_EQ(trie.lookup(Ipv4(10, 2, 0, 1)), nullptr); // outside the /16

  const auto entry = trie.lookup_entry(Ipv4(10, 1, 5, 99));
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->first, Prefix(Ipv4(10, 1, 5, 99), 32));
  EXPECT_EQ(entry->second, 320);
}

TEST(FlatPrefixTrie, DefaultRouteFallback) {
  FlatPrefixTrie<int> trie;
  trie.insert(Prefix(Ipv4(0, 0, 0, 0), 0), 7);
  trie.insert(Prefix(Ipv4(192, 168, 0, 0), 16), 16);
  trie.freeze();
  EXPECT_EQ(*trie.lookup(Ipv4(8, 8, 8, 8)), 7);
  EXPECT_EQ(*trie.lookup(Ipv4(255, 255, 255, 255)), 7);
  EXPECT_EQ(*trie.lookup(Ipv4(192, 168, 3, 4)), 16);
}

TEST(FlatPrefixTrie, LastInsertOfSamePrefixWins) {
  FlatPrefixTrie<int> trie;
  trie.insert(Prefix(Ipv4(10, 0, 0, 0), 8), 1);
  trie.insert(Prefix(Ipv4(10, 0, 0, 0), 8), 2);
  trie.freeze();
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_EQ(*trie.lookup(Ipv4(10, 9, 9, 9)), 2);
  EXPECT_EQ(*trie.exact(Prefix(Ipv4(10, 0, 0, 0), 8)), 2);
}

// The PrefixTrie suite keeps the names of the LPM contract tests written
// for the pointer trie that FlatPrefixTrie replaced; both run on
// FlatPrefixTrie.
TEST(PrefixTrie, EmptyLookups) {
  FlatPrefixTrie<int> trie;
  trie.freeze();
  trie.freeze();  // idempotent: still empty, still queryable
  EXPECT_TRUE(trie.empty());
  EXPECT_EQ(trie.lookup(Ipv4(1, 2, 3, 4)), nullptr);
  EXPECT_EQ(trie.exact(Prefix(Ipv4(1, 2, 3, 0), 24)), nullptr);
  int visited = 0;
  trie.for_each([&](const Prefix&, int) { ++visited; });
  EXPECT_EQ(visited, 0);
}

// A re-inserted prefix overwrites its value, and the overwritten value is
// gone: for_each sees one entry per prefix, in address order, with the
// last value.
TEST(PrefixTrie, InsertOverwritesAndEraseRemoves) {
  FlatPrefixTrie<int> trie;
  const Prefix p(Ipv4(10, 0, 0, 0), 8);
  const Prefix q(Ipv4(10, 1, 0, 0), 16);
  trie.insert(p, 1);
  trie.insert(q, 16);
  trie.insert(p, 2);
  trie.freeze();
  EXPECT_EQ(trie.size(), 2u);
  ASSERT_NE(trie.exact(p), nullptr);
  EXPECT_EQ(*trie.exact(p), 2);
  EXPECT_EQ(*trie.lookup(Ipv4(10, 0, 0, 1)), 2);
  EXPECT_EQ(*trie.lookup(Ipv4(10, 1, 0, 1)), 16);
  EXPECT_EQ(trie.lookup(Ipv4(11, 0, 0, 1)), nullptr);
  std::vector<std::pair<Prefix, int>> seen;
  trie.for_each([&](const Prefix& prefix, int value) {
    seen.emplace_back(prefix, value);
  });
  const std::vector<std::pair<Prefix, int>> expected = {{p, 2}, {q, 16}};
  EXPECT_EQ(seen, expected);
}

// Deterministic random prefix mix spanning every stride boundary the flat
// layout cares about (root <=16, level-1 17..24, level-2 25..32).
std::vector<Prefix> random_prefixes(Rng& rng, std::size_t count) {
  std::vector<Prefix> prefixes;
  prefixes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto length = static_cast<std::uint8_t>(rng.range(0, 32));
    prefixes.emplace_back(Ipv4(static_cast<std::uint32_t>(rng.next())),
                          length);
  }
  return prefixes;
}

TEST(FlatPrefixTrie, RandomizedCrossCheckAgainstBinaryTrie) {
  Rng rng(0xC10Dull);
  LinearScanOracle<std::uint32_t> reference;
  FlatPrefixTrie<std::uint32_t> flat;
  const std::vector<Prefix> prefixes = random_prefixes(rng, 10000);
  for (std::uint32_t i = 0; i < prefixes.size(); ++i) {
    reference.insert(prefixes[i], i);
    flat.insert(prefixes[i], i);
  }
  flat.freeze();
  ASSERT_EQ(flat.size(), reference.size());

  // Probe pure-random addresses plus the structured edges of every 50th
  // inserted prefix (network, last covered address, both neighbours).
  std::vector<Ipv4> probes;
  for (int i = 0; i < 20000; ++i)
    probes.emplace_back(static_cast<std::uint32_t>(rng.next()));
  for (std::size_t i = 0; i < prefixes.size(); i += 50) {
    const std::uint32_t network = prefixes[i].network().value();
    const std::uint32_t span =
        prefixes[i].length() == 0
            ? 0xFFFFFFFFu
            : (prefixes[i].length() == 32
                   ? 0u
                   : (0xFFFFFFFFu >> prefixes[i].length()));
    probes.emplace_back(network);
    probes.emplace_back(network + span);
    probes.emplace_back(network - 1);       // just below (wraps at 0: fine)
    probes.emplace_back(network + span + 1);  // just above
  }

  for (const Ipv4 probe : probes) {
    const auto* expected = reference.lookup(probe);
    const std::uint32_t* actual = flat.lookup(probe);
    const auto actual_entry = flat.lookup_entry(probe);
    if (expected == nullptr) {
      ASSERT_EQ(actual, nullptr) << "probe " << probe.value();
      ASSERT_FALSE(actual_entry.has_value()) << "probe " << probe.value();
    } else {
      ASSERT_NE(actual, nullptr) << "probe " << probe.value();
      ASSERT_EQ(*actual, expected->second) << "probe " << probe.value();
      ASSERT_TRUE(actual_entry.has_value()) << "probe " << probe.value();
      ASSERT_EQ(actual_entry->first, expected->first);
      ASSERT_EQ(actual_entry->second, expected->second);
    }
  }
}

// Property test: random prefix sets (with repeats) against the oracle —
// lookups, exact(), and the for_each sequence.
class FlatPrefixTrieProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlatPrefixTrieProperty, MatchesBruteForceOracle) {
  Rng rng(GetParam());
  LinearScanOracle<int> oracle;
  FlatPrefixTrie<int> trie;
  std::vector<Prefix> inserted;
  for (int i = 0; i < 200; ++i) {
    const auto length = static_cast<std::uint8_t>(rng.range(4, 30));
    // Every tenth insert repeats an earlier prefix: last insert wins.
    const Prefix p =
        (!inserted.empty() && i % 10 == 9)
            ? inserted[rng.bounded(inserted.size())]
            : Prefix(Ipv4(static_cast<std::uint32_t>(rng.next())), length);
    inserted.push_back(p);
    oracle.insert(p, i);
    trie.insert(p, i);
  }
  trie.freeze();
  ASSERT_EQ(trie.size(), oracle.size());

  std::vector<std::pair<Prefix, int>> visited;
  trie.for_each([&](const Prefix& p, int v) { visited.emplace_back(p, v); });
  ASSERT_EQ(visited.size(), oracle.size());
  std::size_t index = 0;
  for (const auto& [prefix, value] : oracle.sorted()) {
    EXPECT_EQ(visited[index].first, prefix) << "index " << index;
    EXPECT_EQ(visited[index].second, value) << "index " << index;
    ASSERT_NE(trie.exact(prefix), nullptr);
    EXPECT_EQ(*trie.exact(prefix), value);
    ++index;
  }

  for (int probe = 0; probe < 2000; ++probe) {
    // Half the probes land inside a random entry, half are uniform.
    Ipv4 address(static_cast<std::uint32_t>(rng.next()));
    if (probe % 2 == 0) {
      const Prefix& p = inserted[rng.bounded(inserted.size())];
      address = Ipv4(p.network().value() +
                     static_cast<std::uint32_t>(rng.bounded(p.size())));
    }
    const auto* best = oracle.lookup(address);
    const int* found = trie.lookup(address);
    if (best == nullptr) {
      EXPECT_EQ(found, nullptr) << address.to_string();
    } else {
      ASSERT_NE(found, nullptr) << address.to_string();
      EXPECT_EQ(*found, best->second) << address.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatPrefixTrieProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 99));

TEST(FlatPrefixTrie, BatchMatchesScalar) {
  Rng rng(0xBA7C4ull);
  FlatPrefixTrie<std::uint32_t> flat;
  const std::vector<Prefix> prefixes = random_prefixes(rng, 2000);
  for (std::uint32_t i = 0; i < prefixes.size(); ++i)
    flat.insert(prefixes[i], i);
  flat.freeze();

  std::vector<Ipv4> addresses;
  for (int i = 0; i < 4096; ++i)
    addresses.emplace_back(static_cast<std::uint32_t>(rng.next()));
  std::vector<const std::uint32_t*> batched(addresses.size());
  flat.lookup_batch(addresses.data(), addresses.size(), batched.data());
  for (std::size_t i = 0; i < addresses.size(); ++i)
    ASSERT_EQ(batched[i], flat.lookup(addresses[i])) << "index " << i;
}

TEST(FlatHashMap, FindAfterFreeze) {
  FlatHashMap<std::uint32_t, int> map;
  map.insert(42u, 1);
  map.insert(7u, 2);
  map.insert(42u, 3);  // duplicate: first insertion wins (emplace semantics)
  map.freeze();
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.find(42u), nullptr);
  EXPECT_EQ(*map.find(42u), 1);
  ASSERT_NE(map.find(7u), nullptr);
  EXPECT_EQ(*map.find(7u), 2);
  EXPECT_EQ(map.find(9u), nullptr);
}

TEST(FlatHashMap, RandomizedCrossCheckAgainstLinearScan) {
  Rng rng(0x4A5Full);
  FlatHashMap<std::uint64_t, std::uint32_t> map;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> entries;
  for (std::uint32_t i = 0; i < 5000; ++i) {
    std::uint64_t key = rng.next();
    if (key == 0) key = 1;  // 0 is the reserved empty sentinel
    entries.emplace_back(key, i);
    map.insert(key, i);
  }
  map.freeze();
  for (const auto& [key, value] : entries) {
    std::uint32_t expected = 0;
    for (const auto& [k, v] : entries) {
      if (k == key) {
        expected = v;  // first insertion wins
        break;
      }
    }
    const std::uint32_t* found = map.find(key);
    ASSERT_NE(found, nullptr);
    ASSERT_EQ(*found, expected);
  }
  for (int i = 0; i < 1000; ++i) {
    std::uint64_t probe = rng.next() | 0x8000000000000000ull;
    bool present = false;
    for (const auto& [k, v] : entries) present = present || k == probe;
    if (!present) {
      EXPECT_EQ(map.find(probe), nullptr);
    }
  }
}

}  // namespace
}  // namespace cloudmap
