// Symbol → shard routing for the online runtime.
//
// The router (the thread that assembles windows) owns the global
// window close and forwards every closed window, through this ring, to
// the shard that owns the window's head symbol. Consistent hashing —
// vnodes on a 64-bit ring — gives two properties plain modulo hashing
// lacks:
//
//   * a Zipf-tail symbol distribution spreads over shards roughly in
//     proportion to the vnode arcs, instead of aliasing hot symbols
//     onto one residue class, and
//   * changing the shard count remaps only the keys whose successor
//     vnode changed (≈ 1/N of them), so a future elastic resize moves
//     the minimum amount of per-symbol state.
//
// Routing never affects output: marks and matches are byte-identical
// at every shard count (the merge is ordered by dispatch sequence, see
// online.h). What symbol affinity buys is locality — a symbol's window
// sequence always lands on the same worker, keeping its scratch arena
// and any future per-symbol state shard-local.

#ifndef DLACEP_RUNTIME_SHARD_H_
#define DLACEP_RUNTIME_SHARD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stream/event.h"
#include "stream/stream.h"

namespace dlacep {

/// Deterministic consistent-hash ring over shard ids. The mapping is a
/// pure function of (num_shards, vnodes_per_shard, symbol) — identical
/// across runs, platforms, and processes.
class ConsistentHashRing {
 public:
  static constexpr size_t kDefaultVnodesPerShard = 64;

  explicit ConsistentHashRing(size_t num_shards,
                              size_t vnodes_per_shard = kDefaultVnodesPerShard);

  /// Owner shard of `symbol`, in [0, num_shards()).
  size_t ShardFor(TypeId symbol) const;

  size_t num_shards() const { return num_shards_; }

 private:
  struct Point {
    uint64_t hash = 0;
    uint32_t shard = 0;
  };
  std::vector<Point> ring_;  ///< sorted by hash
  size_t num_shards_;
};

/// Routing key of a closed window: the type of its first non-blank
/// event (the head symbol), or kBlankType for an all-blank window. The
/// key is a pure function of window content, so every shard count
/// routes the same window by the same symbol.
TypeId WindowRoutingSymbol(const EventStream& window);

}  // namespace dlacep

#endif  // DLACEP_RUNTIME_SHARD_H_
