#ifndef SPCA_NET_ROUTER_H_
#define SPCA_NET_ROUTER_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace spca::net {

/// Consistent-hash ring mapping string keys (model names) onto nodes
/// (service shards). Each node contributes `vnodes` points to the ring —
/// points are a pure hash of (seed, node, replica), so a ring rebuilt from
/// the same seed and node set routes identically across processes and
/// runs. A key routes to the first ring point clockwise of its hash.
///
/// The consistent-hashing invariants the property test pins down:
///   - adding or removing a *key* (a model) never changes any other key's
///     route — routing is a pure function of (seed, nodes, key);
///   - a ring without some node routes every key that the full ring does
///     not send to that node exactly as the full ring does;
///   - adding a node to n existing ones re-routes roughly 1/(n+1) of the
///     keys (bounded well below a full reshuffle), and never moves a key
///     between two surviving nodes.
class ConsistentHashRouter {
 public:
  /// `vnodes` trades routing-table size for balance; 64 keeps the
  /// max/mean shard load under ~2x for realistic model counts.
  explicit ConsistentHashRouter(uint64_t seed = 0, size_t vnodes = 64);

  /// Adds a node (idempotent). Node names must be non-empty.
  void AddNode(const std::string& node);

  /// The node `key` routes to. Must not be called on an empty ring.
  const std::string& Route(std::string_view key) const;

  /// Convenience for the shard plane: ring of `num_shards` nodes named
  /// "shard-0" .. "shard-N-1"; Route(...) then maps back to the index.
  static ConsistentHashRouter ForShards(size_t num_shards, uint64_t seed = 0,
                                        size_t vnodes = 64);
  size_t RouteToShard(std::string_view key) const;

 private:
  uint64_t PointHash(const std::string& node, size_t replica) const;

  uint64_t seed_;
  size_t vnodes_;
  /// hash -> node name. Collisions resolve to the lexicographically
  /// smaller node (deterministic no matter the insertion order).
  std::map<uint64_t, std::string> ring_;
};

/// Seeded 64-bit string hash shared by the router and its tests
/// (FNV-1a folded through a splitmix64 finalizer so nearby keys spread).
uint64_t RouteHash64(std::string_view data, uint64_t seed);

}  // namespace spca::net

#endif  // SPCA_NET_ROUTER_H_
