#include "net/router.h"

#include <cstdlib>
#include <utility>

#include "common/check.h"

namespace spca::net {

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t RouteHash64(std::string_view data, uint64_t seed) {
  constexpr uint64_t kPrime = 0x100000001b3ull;
  uint64_t hash = 0xcbf29ce484222325ull ^ SplitMix64(seed);
  for (const char c : data) {
    hash ^= static_cast<uint8_t>(c);
    hash *= kPrime;
  }
  return SplitMix64(hash);
}

ConsistentHashRouter::ConsistentHashRouter(uint64_t seed, size_t vnodes)
    : seed_(seed), vnodes_(vnodes) {
  SPCA_CHECK_GT(vnodes_, 0u);
}

uint64_t ConsistentHashRouter::PointHash(const std::string& node,
                                         size_t replica) const {
  return RouteHash64(node, SplitMix64(seed_ + 0x517cc1b727220a95ull * replica));
}

void ConsistentHashRouter::AddNode(const std::string& node) {
  SPCA_CHECK(!node.empty());
  for (size_t r = 0; r < vnodes_; ++r) {
    const auto [it, inserted] = ring_.emplace(PointHash(node, r), node);
    if (!inserted && node < it->second) {
      // A 64-bit point collision between two nodes: deterministically keep
      // the smaller name so ring contents are independent of add order.
      it->second = node;
    }
  }
}

const std::string& ConsistentHashRouter::Route(std::string_view key) const {
  SPCA_CHECK(!ring_.empty());
  const uint64_t hash = RouteHash64(key, seed_);
  auto it = ring_.lower_bound(hash);
  if (it == ring_.end()) it = ring_.begin();  // wrap past the top of the ring
  return it->second;
}

ConsistentHashRouter ConsistentHashRouter::ForShards(size_t num_shards,
                                                     uint64_t seed,
                                                     size_t vnodes) {
  SPCA_CHECK_GT(num_shards, 0u);
  ConsistentHashRouter router(seed, vnodes);
  for (size_t s = 0; s < num_shards; ++s) {
    router.AddNode("shard-" + std::to_string(s));
  }
  return router;
}

size_t ConsistentHashRouter::RouteToShard(std::string_view key) const {
  const std::string& node = Route(key);
  SPCA_CHECK_GT(node.size(), 6u);  // "shard-N"
  return std::strtoul(node.c_str() + 6, nullptr, 10);
}

}  // namespace spca::net
