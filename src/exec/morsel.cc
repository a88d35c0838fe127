#include "exec/morsel.h"

#include <algorithm>

#include "common/status.h"

namespace aqe {

std::shared_ptr<const ScanDomain> ScanDomain::Make(
    std::vector<MorselRange> ranges, uint64_t table_rows) {
  std::sort(ranges.begin(), ranges.end(),
            [](const MorselRange& a, const MorselRange& b) {
              return a.begin < b.begin;
            });
  auto domain = std::make_shared<ScanDomain>();
  domain->table_rows = table_rows;
  for (const MorselRange& r : ranges) {
    const uint64_t begin = r.begin;
    const uint64_t end = std::min(r.end, table_rows);
    if (begin >= end) continue;
    if (!domain->ranges.empty() && begin <= domain->ranges.back().end) {
      domain->ranges.back().end = std::max(domain->ranges.back().end, end);
    } else {
      domain->ranges.push_back({begin, end});
    }
  }
  domain->prefix.reserve(domain->ranges.size() + 1);
  uint64_t selected = 0;
  domain->prefix.push_back(0);
  for (const MorselRange& r : domain->ranges) {
    selected += r.end - r.begin;
    domain->prefix.push_back(selected);
  }
  return domain;
}

size_t ScanDomain::RangeIndexFor(uint64_t v) const {
  AQE_CHECK(v < selected());
  // First prefix entry strictly greater than v belongs to the next range.
  auto it = std::upper_bound(prefix.begin(), prefix.end(), v);
  return static_cast<size_t>(it - prefix.begin()) - 1;
}

MorselQueue::MorselQueue(uint64_t total, uint64_t initial_size,
                         uint64_t max_size, uint64_t grow_every)
    : total_(total),
      initial_size_(std::max<uint64_t>(1, initial_size)),
      max_size_(std::max(initial_size_, max_size)),
      grow_every_(std::max<uint64_t>(1, grow_every)) {}

MorselQueue::MorselQueue(std::shared_ptr<const ScanDomain> domain,
                         uint64_t vbase, uint64_t vend, uint64_t initial_size,
                         uint64_t max_size, uint64_t grow_every)
    : MorselQueue(vend - vbase, initial_size, max_size, grow_every) {
  AQE_CHECK(domain != nullptr && vbase <= vend && vend <= domain->selected());
  domain_ = std::move(domain);
  vbase_ = vbase;
}

uint64_t MorselQueue::SizeAt(uint64_t offset) const {
  // The first `grow_every_` morsels have size s0 and cover [0, g*s0); the
  // next `grow_every_` have size 2*s0; and so on until max_size_.
  uint64_t size = initial_size_;
  uint64_t boundary = grow_every_ * size;
  while (offset >= boundary && size < max_size_) {
    size = std::min(size * 2, max_size_);
    boundary += grow_every_ * size;
  }
  return size;
}

bool MorselQueue::Next(MorselBatch* out) {
  uint64_t begin = cursor_.load(std::memory_order_relaxed);
  uint64_t size;
  size_t first_idx = 0;
  do {
    if (begin >= total_) return false;
    size = std::min(SizeAt(begin), total_ - begin);
    if (domain_ != nullptr) {
      first_idx = domain_->RangeIndexFor(vbase_ + begin);
      // Clamp the claim at the farthest boundary the batch can hold, so the
      // cursor advances by exactly the rows handed out below.
      const size_t last = std::min(first_idx + MorselBatch::kMaxRanges,
                                   domain_->ranges.size());
      size = std::min(size, domain_->prefix[last] - vbase_ - begin);
    }
  } while (!cursor_.compare_exchange_weak(begin, begin + size,
                                          std::memory_order_relaxed));
  out->rows = size;
  if (domain_ == nullptr) {
    out->ranges[0] = {begin, begin + size};
    out->count = 1;
    return true;
  }
  out->count = 0;
  uint64_t v = vbase_ + begin;
  uint64_t left = size;
  for (size_t idx = first_idx; left > 0; ++idx) {
    const MorselRange& range = domain_->ranges[idx];
    const uint64_t offset_in_range = v - domain_->prefix[idx];
    const uint64_t take =
        std::min(left, (range.end - range.begin) - offset_in_range);
    out->ranges[out->count++] = {range.begin + offset_in_range,
                                 range.begin + offset_in_range + take};
    v += take;
    left -= take;
  }
  return true;
}

ShardedMorselQueue::ShardedMorselQueue(uint64_t total, int num_shards,
                                       uint64_t initial_size,
                                       uint64_t max_size, uint64_t grow_every)
    : total_(total) {
  AQE_CHECK(num_shards >= 1);
  const uint64_t n = static_cast<uint64_t>(num_shards);
  const uint64_t per_shard = total / n;
  uint64_t base = 0;
  shards_.reserve(static_cast<size_t>(num_shards));
  for (uint64_t s = 0; s < n; ++s) {
    const uint64_t rows = s + 1 == n ? total - base : per_shard;
    shards_.push_back({base, std::make_unique<MorselQueue>(
                                 rows, initial_size, max_size, grow_every)});
    base += rows;
  }
}

ShardedMorselQueue::ShardedMorselQueue(std::shared_ptr<const ScanDomain> domain,
                                       int num_shards, uint64_t initial_size,
                                       uint64_t max_size, uint64_t grow_every)
    : total_(domain ? domain->selected() : 0) {
  AQE_CHECK(domain != nullptr && num_shards >= 1);
  const uint64_t n = static_cast<uint64_t>(num_shards);
  const uint64_t per_shard = total_ / n;
  uint64_t vbase = 0;
  shards_.reserve(static_cast<size_t>(num_shards));
  for (uint64_t s = 0; s < n; ++s) {
    const uint64_t rows = s + 1 == n ? total_ - vbase : per_shard;
    // base = 0: a domain queue already emits physical coordinates.
    shards_.push_back(
        {0, std::make_unique<MorselQueue>(domain, vbase, vbase + rows,
                                          initial_size, max_size, grow_every)});
    vbase += rows;
  }
}

bool ShardedMorselQueue::NextFrom(size_t shard, MorselBatch* out) {
  if (!shards_[shard].queue->Next(out)) return false;
  const uint64_t base = shards_[shard].base;
  if (base != 0) {
    for (int i = 0; i < out->count; ++i) {
      out->ranges[i].begin += base;
      out->ranges[i].end += base;
    }
  }
  return true;
}

bool ShardedMorselQueue::Next(int shard, MorselBatch* out) {
  AQE_CHECK(shard >= 0 && shard < num_shards());
  if (NextFrom(static_cast<size_t>(shard), out)) return true;
  // Own shard dry: steal from the shard with the most remaining rows.
  // Loop because a near-empty victim can be drained between the size scan
  // and the claim.
  for (;;) {
    size_t victim = shards_.size();
    uint64_t victim_remaining = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
      uint64_t r = shards_[s].queue->remaining();
      if (r > victim_remaining) {
        victim_remaining = r;
        victim = s;
      }
    }
    if (victim == shards_.size()) return false;
    if (NextFrom(victim, out)) return true;
  }
}

uint64_t ShardedMorselQueue::remaining() const {
  uint64_t sum = 0;
  for (const Shard& shard : shards_) sum += shard.queue->remaining();
  return sum;
}

uint64_t ShardedMorselQueue::shard_remaining(int shard) const {
  AQE_CHECK(shard >= 0 && shard < num_shards());
  return shards_[static_cast<size_t>(shard)].queue->remaining();
}

}  // namespace aqe
