// Per-machine query-result caching for the simulated DHT.
//
// The paper's largest single Figure-4 win is caching: each machine keeps
// the results of its recent DHT queries locally, so adaptive query
// processes that revisit hot structure (roots near convergence, hub
// adjacency heads, walk-frontier collisions) stop paying the network
// round trip for keys the machine has already seen. QueryCache models
// that client-side cache as a first-class citizen:
//
//   * Bounded, exact per-shard LRU: the key space is split over lock
//     shards by Hash64(key, 0x7163616368) % shards, each shard holds
//     capacity / shards entries, and a full shard evicts its own least
//     recently used entry. Get, Put and Update all count as a use. So
//     which entry a shard evicts depends only on the sequence of
//     operations on that shard — a cache footprint is a config knob
//     rather than an O(n) side array, and the hit/miss sequence (hence
//     every charged cost) is fixed by the operation order.
//   * Versioned: every entry is stamped with the epoch observed when it
//     was inserted, and Get() treats any entry from another epoch as
//     absent (and drops it). Read-through callers stamp entries with
//     kv::ShardedStore::version() captured *before* the underlying
//     lookup, so a cached value — including a cached negative — can
//     never survive a later write phase: stale reads are impossible.
//   * Thread-safe: each lock shard has one mutex (concurrency only —
//     nothing to do with the DHT's machine sharding). A machine's
//     worker slices share its caches but run one after another in
//     worker order (sim::Cluster::RunMapPhaseImpl), so within a map
//     phase each cache sees one fixed operation sequence.
//
// Layout. A lock shard is flat storage, with no per-entry heap node:
//   * a node slab (std::vector<Node>, Node = {key, epoch, value, prev,
//     next}) with the MRU -> LRU list threaded through it by int32
//     node ids, plus a free list that reuses the nodes of dropped entries;
//   * a power-of-two linear-probing index of int32 node ids, kept at
//     most half full and repaired by backward-shift deletion (no
//     tombstones). The in-shard slot comes from the high bits of
//     hash * 0x9e3779b97f4a7c15, which are independent of the shard
//     selector — every key of a shard shares the selector's residue.
// Both arrays start empty and grow by doubling as entries arrive; they
// are never preallocated to the capacity (every store mints one cache
// per machine each round). Bytes per entry: sizeof(Node) in the slab
// (32 for the read-through QueryCache<const V*>) plus 8-16 bytes of
// index, with no allocation per entry.
//
// Two uses share this type. MachineContext::Lookup/LookupMany consult a
// per-(store, machine) QueryCache<const V*> read-through instance
// (attached by sim::Cluster::MakeStore); hits are served locally with
// no trip and no owner bytes. Algorithms additionally park *derived*
// per-key facts — mis's three-valued states, matching's vertex status
// words — in per-machine caches minted by
// sim::Cluster::MakeMachineCaches<V>(), replacing the bespoke unbounded
// atomic arrays they owned before. Hit/miss accounting stays with the
// caller (MachineContext::CountCacheHit/Miss) in both cases.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/random.h"

namespace ampc::kv {

/// Type-erased handle to a cache that can be dropped wholesale — the
/// hook the fault model uses: when a simulated machine is lost, its
/// replacement starts with cold caches, so every cache attached to that
/// machine is cleared (see CacheDropRegistry). Epoch semantics make the
/// drop safe by construction: entries only ever mirror the backing
/// store (which recovery restores bit-identically), so a cleared cache
/// re-warms through the normal read-through path with no correctness
/// effect — only extra misses, which is exactly the cost a cold
/// replacement machine should pay.
class QueryCacheBase {
 public:
  virtual ~QueryCacheBase() = default;
  /// Drops every entry (all epochs, all lock shards).
  virtual void Clear() = 0;
};

/// A bounded, versioned, thread-safe key -> V cache (per-shard exact LRU).
template <typename V>
class QueryCache : public QueryCacheBase {
 public:
  /// Lock shards of every cache the library builds.
  static constexpr int kLockShards = 8;

  /// `capacity` total entries, split over `lock_shards` internal shards
  /// (each shard holds capacity / lock_shards entries and its own lock).
  /// Only unit tests pass a `lock_shards` other than kLockShards.
  /// Effective lock shards are clamped to min(lock_shards, capacity):
  /// with more shards than entries, the per-shard floor of one entry
  /// would silently inflate tiny budgets (a capacity-4 cache with 8
  /// lock shards could hold 8 entries), so capacity() never exceeds the
  /// requested bound.
  explicit QueryCache(int64_t capacity, int lock_shards = kLockShards) {
    AMPC_CHECK_GE(capacity, 1);
    num_shards_ = static_cast<int>(
        std::min<int64_t>(std::max(1, lock_shards), capacity));
    per_shard_capacity_ = std::max<int64_t>(1, capacity / num_shards_);
    // Node ids are int32 (kNil = -1 marks an empty slot / list end).
    AMPC_CHECK_LE(per_shard_capacity_, int64_t{1} << 30);
    shards_ = std::make_unique<Shard[]>(static_cast<size_t>(num_shards_));
  }

  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  /// The cached value for `key` at `epoch`, or nullopt. An entry stamped
  /// with a different epoch is stale — it is dropped and reported absent
  /// (epochs only move forward, so it can never become valid again).
  std::optional<V> Get(uint64_t key, uint64_t epoch) {
    const uint64_t h = HashKey(key);
    Shard& shard = ShardFor(h);
    std::lock_guard<std::mutex> lock(shard.mu);
    const size_t slot = shard.Find(key, h);
    if (slot == kNotFound) return std::nullopt;
    const int32_t id = shard.index[slot];
    if (shard.nodes[id].epoch != epoch) {
      shard.Drop(slot);
      return std::nullopt;
    }
    shard.MoveToFront(id);
    return shard.nodes[id].value;
  }

  /// Inserts (or refreshes) `key` -> `value` at `epoch`, evicting the
  /// least recently used entry of the key's lock shard when full.
  void Put(uint64_t key, uint64_t epoch, V value) {
    const uint64_t h = HashKey(key);
    Shard& shard = ShardFor(h);
    std::lock_guard<std::mutex> lock(shard.mu);
    const size_t slot = shard.Find(key, h);
    if (slot != kNotFound) {
      const int32_t id = shard.index[slot];
      shard.nodes[id].epoch = epoch;
      shard.nodes[id].value = std::move(value);
      shard.MoveToFront(id);
      return;
    }
    InsertLocked(shard, key, h, epoch, std::move(value));
  }

  /// Atomic read-modify-write under the key's shard lock:
  /// `fn(std::optional<V>)` receives the current epoch-valid value (or
  /// nullopt) and returns the value to store. Replaces the
  /// compare-exchange loops of the old bespoke atomic-array caches
  /// (e.g. matching's monotone prefix extension).
  template <typename Fn>
  void Update(uint64_t key, uint64_t epoch, Fn&& fn) {
    const uint64_t h = HashKey(key);
    Shard& shard = ShardFor(h);
    std::lock_guard<std::mutex> lock(shard.mu);
    const size_t slot = shard.Find(key, h);
    if (slot != kNotFound) {
      const int32_t id = shard.index[slot];
      Node& node = shard.nodes[id];
      if (node.epoch == epoch) {
        node.value = fn(std::optional<V>(node.value));
        shard.MoveToFront(id);
        return;
      }
      shard.Drop(slot);  // stale: replace wholesale
    }
    InsertLocked(shard, key, h, epoch, fn(std::nullopt));
  }

  /// Drops every entry. Used by the fault model when this cache's
  /// machine is lost: the replacement machine starts cold and re-warms
  /// through the read-through path. Not counted as eviction (capacity
  /// pressure) — the entries were lost with the machine, not displaced.
  void Clear() override {
    for (int s = 0; s < num_shards_; ++s) {
      Shard& shard = shards_[s];
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.Reset();
    }
  }

  /// Entries currently held (all lock shards). O(lock_shards).
  int64_t size() const {
    int64_t total = 0;
    for (int s = 0; s < num_shards_; ++s) {
      const Shard& shard = shards_[s];
      std::lock_guard<std::mutex> lock(shard.mu);
      total += shard.size;
    }
    return total;
  }

  /// Total entry budget across lock shards.
  int64_t capacity() const {
    return per_shard_capacity_ * static_cast<int64_t>(num_shards_);
  }

  /// LRU evictions so far (capacity pressure, not epoch staleness).
  int64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr int32_t kNil = -1;
  static constexpr size_t kNotFound = std::numeric_limits<size_t>::max();
  static constexpr size_t kMinIndexSlots = 16;

  struct Node {
    uint64_t key = 0;
    uint64_t epoch = 0;
    V value{};
    int32_t prev = kNil;  // towards the MRU end (head)
    int32_t next = kNil;  // towards the LRU end (tail); free-list link
  };

  static uint64_t HashKey(uint64_t key) {
    return Hash64(key, 0x7163616368ULL);
  }

  // One lock shard. Aligned so neighbouring shards' mutexes do not share
  // a cache line.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::vector<Node> nodes;       // slab; live entries + free list
    std::vector<int32_t> index;    // node id per slot, kNil = empty
    int shift = 64;                // 64 - log2(index.size())
    int32_t head = kNil;           // most recently used
    int32_t tail = kNil;           // least recently used
    int32_t free_head = kNil;      // nodes of dropped entries
    int64_t size = 0;              // live entries

    size_t Home(uint64_t h) const {
      return static_cast<size_t>((h * 0x9e3779b97f4a7c15ULL) >> shift);
    }

    // Index slot holding `key` (hash `h`), or kNotFound.
    size_t Find(uint64_t key, uint64_t h) const {
      if (index.empty()) return kNotFound;
      const size_t mask = index.size() - 1;
      for (size_t slot = Home(h);; slot = (slot + 1) & mask) {
        const int32_t id = index[slot];
        if (id == kNil) return kNotFound;
        if (nodes[id].key == key) return slot;
      }
    }

    // Places node `id` (hash `h`) in the first empty slot of its chain.
    void Place(int32_t id, uint64_t h) {
      const size_t mask = index.size() - 1;
      size_t slot = Home(h);
      while (index[slot] != kNil) slot = (slot + 1) & mask;
      index[slot] = id;
    }

    // Doubles the index (or allocates the first one) and re-places
    // every live node.
    void GrowIndex() {
      const size_t slots = std::max(kMinIndexSlots, 2 * index.size());
      index.assign(slots, kNil);
      shift = 64 - std::countr_zero(slots);
      for (int32_t id = head; id != kNil; id = nodes[id].next) {
        Place(id, HashKey(nodes[id].key));
      }
    }

    // Empties `slot`, then shifts later members of its probe chain back
    // so that every key stays reachable from its home slot.
    void EraseSlot(size_t slot) {
      const size_t mask = index.size() - 1;
      size_t hole = slot;
      for (size_t j = (slot + 1) & mask; index[j] != kNil;
           j = (j + 1) & mask) {
        const size_t home = Home(HashKey(nodes[index[j]].key));
        // The entry may fill the hole iff its probe from `home` passed
        // the hole, i.e. the hole lies cyclically in [home, j).
        if (((j - home) & mask) >= ((j - hole) & mask)) {
          index[hole] = index[j];
          hole = j;
        }
      }
      index[hole] = kNil;
    }

    void Unlink(int32_t id) {
      Node& node = nodes[id];
      if (node.prev != kNil) nodes[node.prev].next = node.next;
      else head = node.next;
      if (node.next != kNil) nodes[node.next].prev = node.prev;
      else tail = node.prev;
    }

    void PushFront(int32_t id) {
      nodes[id].prev = kNil;
      nodes[id].next = head;
      if (head != kNil) nodes[head].prev = id;
      else tail = id;
      head = id;
    }

    void MoveToFront(int32_t id) {
      if (id == head) return;
      Unlink(id);
      PushFront(id);
    }

    // Removes the entry at index `slot`; its node joins the free list
    // (stale drops and evictions alike).
    void Drop(size_t slot) {
      const int32_t id = index[slot];
      EraseSlot(slot);
      Unlink(id);
      nodes[id].next = free_head;
      free_head = id;
      --size;
    }

    void Reset() {
      nodes = std::vector<Node>();
      index = std::vector<int32_t>();
      shift = 64;
      head = tail = free_head = kNil;
      size = 0;
    }
  };

  Shard& ShardFor(uint64_t h) {
    return shards_[h % static_cast<uint64_t>(num_shards_)];
  }

  // Inserts absent `key` at the MRU end, evicting the shard's least
  // recently used entry first when the shard is full.
  void InsertLocked(Shard& shard, uint64_t key, uint64_t h, uint64_t epoch,
                    V value) {
    if (shard.size == per_shard_capacity_) {
      const uint64_t lru_key = shard.nodes[shard.tail].key;
      shard.Drop(shard.Find(lru_key, HashKey(lru_key)));
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    int32_t id = shard.free_head;
    if (id != kNil) {
      shard.free_head = shard.nodes[id].next;
    } else {
      id = static_cast<int32_t>(shard.nodes.size());
      shard.nodes.emplace_back();
    }
    Node& node = shard.nodes[id];
    node.key = key;
    node.epoch = epoch;
    node.value = std::move(value);
    if (2 * static_cast<size_t>(shard.size + 1) > shard.index.size()) {
      shard.GrowIndex();
    }
    shard.Place(id, h);
    shard.PushFront(id);
    ++shard.size;
  }

  int num_shards_ = 1;
  int64_t per_shard_capacity_ = 1;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<int64_t> evictions_{0};
};

/// One QueryCache per logical machine, for algorithms caching *derived*
/// per-key facts (sim::Cluster::MakeMachineCaches). Default-constructed
/// = caching disabled: every ForMachine() is nullptr and callers fall
/// back to uncached resolution.
template <typename V>
class MachineCaches {
 public:
  MachineCaches() = default;
  MachineCaches(int num_machines, int64_t capacity_per_machine) {
    caches_.reserve(num_machines);
    for (int m = 0; m < num_machines; ++m) {
      caches_.push_back(
          std::make_unique<QueryCache<V>>(capacity_per_machine));
    }
  }

  bool enabled() const { return !caches_.empty(); }
  QueryCache<V>* ForMachine(int m) {
    return caches_.empty() ? nullptr : caches_[m].get();
  }

 private:
  std::vector<std::unique_ptr<QueryCache<V>>> caches_;
};

/// Weak registry of every per-machine cache a cluster has minted,
/// keyed by machine id. Stores register their read-through caches at
/// creation (kv::ShardedStore::EnableQueryCache); when the fault model
/// kills machine m, DropMachine(m) clears whichever of m's caches are
/// still alive — the replacement machine's RAM starts cold — without
/// the registry ever owning a cache or extending its lifetime (stores
/// are minted and dropped every round; expired entries are pruned as
/// they are encountered).
class CacheDropRegistry {
 public:
  void Register(int machine, std::weak_ptr<QueryCacheBase> cache) {
    std::lock_guard<std::mutex> lock(mu_);
    if (machine >= static_cast<int>(by_machine_.size())) {
      by_machine_.resize(machine + 1);
    }
    by_machine_[machine].push_back(std::move(cache));
  }

  /// Clears machine `m`'s live caches; returns how many were cleared.
  int64_t DropMachine(int m) {
    std::lock_guard<std::mutex> lock(mu_);
    if (m < 0 || m >= static_cast<int>(by_machine_.size())) return 0;
    int64_t dropped = 0;
    auto& caches = by_machine_[m];
    size_t out = 0;
    for (size_t i = 0; i < caches.size(); ++i) {
      if (std::shared_ptr<QueryCacheBase> cache = caches[i].lock()) {
        cache->Clear();
        ++dropped;
        caches[out++] = std::move(caches[i]);
      }
    }
    caches.resize(out);
    return dropped;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::vector<std::weak_ptr<QueryCacheBase>>> by_machine_;
};

}  // namespace ampc::kv
