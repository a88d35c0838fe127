#include "runtime/agg_hash_table.h"

#include <cstring>

#include "common/status.h"
#include "obs/memory_tracker.h"

namespace aqe {

namespace {
uint64_t HashKey(int64_t key) {
  uint64_t h = static_cast<uint64_t>(key) * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 32;
  return h;
}
}  // namespace

AggHashTable::AggHashTable(uint32_t payload_slots,
                           std::vector<int64_t> init_values,
                           QueryMemoryTracker* tracker)
    : payload_slots_(payload_slots),
      init_values_(std::move(init_values)),
      tracker_(tracker) {
  AQE_CHECK(init_values_.size() == payload_slots_);
  capacity_ = 64;
  mask_ = capacity_ - 1;
  data_.resize(capacity_ * entry_bytes());
  occupied_.assign(capacity_, 0);
  if (tracker_ != nullptr) {
    charged_bytes_ = data_.size() + occupied_.size();
    tracker_->Charge(charged_bytes_);
  }
}

AggHashTable::~AggHashTable() {
  if (tracker_ != nullptr && charged_bytes_ > 0) {
    tracker_->Release(charged_bytes_);
  }
}

AggHashTable::AggHashTable(AggHashTable&& other) noexcept
    : payload_slots_(other.payload_slots_),
      init_values_(std::move(other.init_values_)),
      capacity_(other.capacity_),
      mask_(other.mask_),
      size_(other.size_),
      data_(std::move(other.data_)),
      occupied_(std::move(other.occupied_)),
      tracker_(other.tracker_),
      charged_bytes_(other.charged_bytes_) {
  // The charge moves with the storage; the source must not double-release.
  other.tracker_ = nullptr;
  other.charged_bytes_ = 0;
}

AggHashTable& AggHashTable::operator=(AggHashTable&& other) noexcept {
  if (this == &other) return *this;
  if (tracker_ != nullptr && charged_bytes_ > 0) {
    tracker_->Release(charged_bytes_);
  }
  payload_slots_ = other.payload_slots_;
  init_values_ = std::move(other.init_values_);
  capacity_ = other.capacity_;
  mask_ = other.mask_;
  size_ = other.size_;
  data_ = std::move(other.data_);
  occupied_ = std::move(other.occupied_);
  tracker_ = other.tracker_;
  charged_bytes_ = other.charged_bytes_;
  other.tracker_ = nullptr;
  other.charged_bytes_ = 0;
  return *this;
}

void* AggHashTable::FindOrInsert(int64_t key) {
  if (size_ * 4 >= capacity_ * 3) Rehash(capacity_ * 2);
  uint64_t slot = HashKey(key) & mask_;
  for (;;) {
    if (!occupied_[slot]) {
      occupied_[slot] = 1;
      uint8_t* entry = EntryAt(slot);
      *reinterpret_cast<int64_t*>(entry) = key;
      std::memcpy(entry + 8, init_values_.data(), payload_slots_ * 8);
      ++size_;
      return entry + 8;
    }
    if (*reinterpret_cast<const int64_t*>(EntryAt(slot)) == key) {
      return EntryAt(slot) + 8;
    }
    slot = (slot + 1) & mask_;
  }
}

void* AggHashTable::Find(int64_t key) const {
  uint64_t slot = HashKey(key) & mask_;
  for (;;) {
    if (!occupied_[slot]) return nullptr;
    if (*reinterpret_cast<const int64_t*>(EntryAt(slot)) == key) {
      return EntryAt(slot) + 8;
    }
    slot = (slot + 1) & mask_;
  }
}

void AggHashTable::Reserve(uint64_t entries) {
  // FindOrInsert grows once size_ reaches 3/4 of the capacity.
  uint64_t capacity = capacity_;
  while (entries * 4 > capacity * 3) capacity <<= 1;
  if (capacity != capacity_) Rehash(capacity);
}

void AggHashTable::Rehash(uint64_t new_capacity) {
  uint64_t old_capacity = capacity_;
  std::vector<uint8_t> old_data = std::move(data_);
  std::vector<uint8_t> old_occupied = std::move(occupied_);
  capacity_ = new_capacity;
  mask_ = capacity_ - 1;
  data_.resize(capacity_ * entry_bytes());
  occupied_.assign(capacity_, 0);
  if (tracker_ != nullptr) {
    const uint64_t footprint = footprint_bytes();
    tracker_->Charge(footprint - charged_bytes_);
    charged_bytes_ = footprint;
  }
  const uint8_t* old_base = old_data.data();
  for (uint64_t i = 0; i < old_capacity; ++i) {
    if (!old_occupied[i]) continue;
    const uint8_t* entry = old_base + i * entry_bytes();
    int64_t key = *reinterpret_cast<const int64_t*>(entry);
    uint64_t slot = HashKey(key) & mask_;
    while (occupied_[slot]) slot = (slot + 1) & mask_;
    occupied_[slot] = 1;
    std::memcpy(EntryAt(slot), entry, entry_bytes());
  }
}

AggHashTableSet::AggHashTableSet(uint32_t payload_slots,
                                 std::vector<int64_t> init_values,
                                 int max_threads)
    : payload_slots_(payload_slots), init_values_(std::move(init_values)) {
  tables_.resize(static_cast<size_t>(max_threads));
}

AggHashTable* AggHashTableSet::Local() {
  int index = runtime_internal::GetThreadIndex();
  AQE_CHECK(static_cast<size_t>(index) < tables_.size());
  auto& table = tables_[static_cast<size_t>(index)];
  if (table == nullptr) {
    table = std::make_unique<AggHashTable>(payload_slots_, init_values_,
                                           tracker_);
  }
  return table.get();
}

std::vector<AggHashTable*> AggHashTableSet::NonEmptyTables() const {
  std::vector<AggHashTable*> result;
  for (const auto& table : tables_) {
    if (table != nullptr && table->size() > 0) result.push_back(table.get());
  }
  return result;
}

}  // namespace aqe
