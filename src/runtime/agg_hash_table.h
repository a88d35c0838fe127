#ifndef AQE_RUNTIME_AGG_HASH_TABLE_H_
#define AQE_RUNTIME_AGG_HASH_TABLE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace aqe {

class QueryMemoryTracker;

namespace runtime_internal {
/// Worker-thread index plumbing shared by the runtime (set by the morsel
/// scheduler, read by thread-local runtime structures).
void SetThreadIndex(int index);
int GetThreadIndex();
}  // namespace runtime_internal

/// Linear-probing hash table for group-by aggregation. One instance per
/// worker thread (obtained via AggHashTableSet); generated code updates the
/// aggregate slots in place, the engine merges the per-thread tables when
/// the pipeline finishes.
///
/// Entry layout (seen by generated code): [key i64][slots...]; FindOrInsert
/// returns the pointer to the first aggregate slot.
class AggHashTable {
 public:
  /// `payload_slots` aggregate values per group, initialized to
  /// `init_values` (size payload_slots) on first touch. `tracker` (may be
  /// null) is charged for the backing arrays, including growth.
  AggHashTable(uint32_t payload_slots, std::vector<int64_t> init_values,
               QueryMemoryTracker* tracker = nullptr);
  ~AggHashTable();

  AggHashTable(const AggHashTable&) = delete;
  AggHashTable& operator=(const AggHashTable&) = delete;
  AggHashTable(AggHashTable&& other) noexcept;
  AggHashTable& operator=(AggHashTable&& other) noexcept;

  /// Payload pointer for `key`, inserting an initialized entry if new.
  void* FindOrInsert(int64_t key);

  /// Payload pointer for `key` or nullptr (no insert).
  void* Find(int64_t key) const;

  uint64_t size() const { return size_; }
  uint32_t payload_slots() const { return payload_slots_; }

  /// Bytes of the backing arrays: what a tracker is charged for this table.
  uint64_t footprint_bytes() const { return data_.size() + occupied_.size(); }

  /// Grows the table once so that `entries` groups fit without any further
  /// growth (a no-op when they already do).
  void Reserve(uint64_t entries);

  /// Iterates entries: fn(key, payload pointer).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint64_t i = 0; i < capacity_; ++i) {
      if (!occupied_[i]) continue;
      uint8_t* entry = EntryAt(i);
      fn(*reinterpret_cast<const int64_t*>(entry),
         static_cast<void*>(entry + 8));
    }
  }

 private:
  uint32_t entry_bytes() const { return 8 + payload_slots_ * 8; }
  uint8_t* EntryAt(uint64_t slot) const {
    return const_cast<uint8_t*>(data_.data()) + slot * entry_bytes();
  }
  /// Moves every entry into fresh arrays of `new_capacity` slots.
  void Rehash(uint64_t new_capacity);

  uint32_t payload_slots_;
  std::vector<int64_t> init_values_;
  uint64_t capacity_;  // power of two
  uint64_t mask_;
  uint64_t size_ = 0;
  std::vector<uint8_t> data_;      // capacity_ * entry_bytes()
  std::vector<uint8_t> occupied_;  // capacity_ bytes
  QueryMemoryTracker* tracker_ = nullptr;
  uint64_t charged_bytes_ = 0;  ///< what tracker_ was charged so far
};

/// The per-thread set of aggregation tables for one aggregation operator.
/// Generated code calls aqe_agg_local(set) to fetch its thread's table.
class AggHashTableSet {
 public:
  AggHashTableSet(uint32_t payload_slots, std::vector<int64_t> init_values,
                  int max_threads = 64);

  /// Memory accounting for tables created from now on (existing tables are
  /// not retro-charged; the engine attaches the tracker before execution).
  void set_memory_tracker(QueryMemoryTracker* tracker) { tracker_ = tracker; }

  /// Table of the calling worker thread (created lazily).
  AggHashTable* Local();

  /// All thread tables that were actually created.
  std::vector<AggHashTable*> NonEmptyTables() const;

  /// The engine-side merge of the per-thread tables: one table holding
  /// every group, charged to the set's memory tracker. `fold(slot_index,
  /// accumulator_ptr, value)` combines one aggregate slot; it is inlined
  /// into the merge loop (a lambda, not a std::function).
  template <typename Fold>
  AggHashTable Merge(Fold&& fold) const {
    AggHashTable merged(payload_slots_, init_values_, tracker_);
    MergeInto(&merged, std::forward<Fold>(fold));
    return merged;
  }

  /// Folds every per-thread table into `target`. The target is grown once,
  /// up front, for the sum of all input sizes (an upper bound on the merged
  /// group count), so no group is rehashed during the merge.
  template <typename Fold>
  void MergeInto(AggHashTable* target, Fold&& fold) const {
    uint64_t total = target->size();
    for (const auto& table : tables_) {
      if (table != nullptr) total += table->size();
    }
    target->Reserve(total);
    for (const auto& table : tables_) {
      if (table == nullptr) continue;
      table->ForEach([&](int64_t key, void* payload) {
        const auto* src = static_cast<const int64_t*>(payload);
        auto* dst = static_cast<int64_t*>(target->FindOrInsert(key));
        for (uint32_t s = 0; s < payload_slots_; ++s) fold(s, &dst[s], src[s]);
      });
    }
  }

 private:
  uint32_t payload_slots_;
  std::vector<int64_t> init_values_;
  std::vector<std::unique_ptr<AggHashTable>> tables_;
  QueryMemoryTracker* tracker_ = nullptr;
};

}  // namespace aqe

#endif  // AQE_RUNTIME_AGG_HASH_TABLE_H_
