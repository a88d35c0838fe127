#include "cache/artifact_cache.h"

#include <algorithm>

#include "adaptive/controller.h"
#include "common/status.h"

namespace aqe {
namespace {

/// Column types are the one plan property only knowable at bind time
/// (temp-table schemas); artifacts recorded under other types don't fit.
bool TypesFit(const PipelineArtifact& a, const std::vector<DataType>& types) {
  return a.column_types.empty() || a.column_types == types;
}

/// Pinned constants (0/1, interned duplicates) have no private pool slot;
/// a literal variant must agree on them to patch-share the bytecode.
bool PinsMatch(const PipelineArtifact& a,
               const std::vector<uint64_t>& constants) {
  for (size_t k = 0; k < constants.size(); ++k) {
    if (a.patch_slots[k] == ConstantPatchTable::kPinned &&
        constants[k] != a.bytecode_constants[k]) {
      return false;
    }
  }
  return true;
}

/// The first publish of a pipeline records its cost-model inputs.
void AdoptOrigin(PipelineArtifact* a, const ArtifactOrigin& origin) {
  a->column_types = origin.column_types;
  if (a->instructions == 0) a->instructions = origin.instructions;
  if (a->runtime_call_fraction == 0) {
    a->runtime_call_fraction = origin.runtime_call_fraction;
  }
}

int64_t CodeBytes(const std::shared_ptr<CachedCode>& code) {
  return code != nullptr ? static_cast<int64_t>(code->approx_bytes) : 0;
}

}  // namespace

uint64_t BcProgramBytes(const BcProgram& program) {
  return sizeof(BcProgram) + program.code.size() * sizeof(BcInstruction) +
         program.constant_pool.size() * sizeof(BcProgram::PoolEntry) +
         program.literal_pool.size() * sizeof(uint64_t) +
         program.arg_offsets.size() * sizeof(uint32_t);
}

ArtifactCache::ArtifactCache(uint64_t byte_budget)
    : byte_budget_(byte_budget) {}

std::shared_ptr<CacheEntry> ArtifactCache::Intern(
    uint64_t key, size_t num_pipelines, const std::string& plan_name) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    ++entry_hits_;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
    // Both fields are fixed at creation, so no entry lock is needed.
    const CacheEntry& found = *it->second.entry;
    if (found.pipelines.size() != num_pipelines ||
        found.plan_name != plan_name) {
      return nullptr;
    }
    return it->second.entry;
  }
  ++entry_misses_;
  auto entry = std::make_shared<CacheEntry>();
  entry->key = key;
  entry->plan_name = plan_name;
  entry->pipelines.resize(num_pipelines);
  shard.lru.push_front(key);
  shard.map.emplace(key, Resident{entry, shard.lru.begin(), 0});
  return entry;
}

std::shared_ptr<CacheEntry> ArtifactCache::Peek(uint64_t key) const {
  const Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  return it == shard.map.end() ? nullptr : it->second.entry;
}

PipelineLookup ArtifactCache::Lookup(CacheEntry& entry, size_t p,
                                     const std::vector<uint64_t>& constants,
                                     const std::vector<DataType>& column_types,
                                     ExecutionStrategy strategy) {
  const bool interprets = StrategyInterprets(strategy);
  PipelineLookup out;
  CodeVariant code;
  std::shared_ptr<const BcProgram> patch_base;
  std::vector<uint32_t> patch_slots;
  {
    std::lock_guard<std::mutex> lock(entry.mu);
    PipelineArtifact& a = entry.pipelines[p];
    out.instructions = a.instructions;
    out.runtime_call_fraction = a.runtime_call_fraction;
    const CodeVariant* v = a.code_variants.Touch(constants);
    if (TypesFit(a, column_types)) {
      if (v != nullptr) code = *v;
      out.bytecode_publishable = a.bytecode == nullptr;
      if (interprets && a.bytecode != nullptr) {
        if (a.bytecode_constants == constants) {
          out.bytecode = a.bytecode;
        } else if (a.patchable && PinsMatch(a, constants)) {
          patch_base = a.bytecode;
          patch_slots = a.patch_slots;
        }
      }
    }
  }
  // Literal variant: clone the (small) program outside the lock and patch
  // this run's constants into their pool slots.
  if (patch_base != nullptr) {
    auto patched = std::make_shared<BcProgram>(*patch_base);
    for (size_t k = 0; k < constants.size(); ++k) {
      if (patch_slots[k] == ConstantPatchTable::kPinned) continue;
      patched->constant_pool[patch_slots[k]].value = constants[k];
    }
    out.bytecode = std::move(patched);
    out.patched = true;
  }
  if (interprets) {
    if (out.bytecode == nullptr) {
      ++bytecode_misses_;
    } else {
      ++(out.patched ? patched_hits_ : bytecode_hits_);
    }
  }
  // Machine code embeds its literals, so only the exact-constant variant
  // seeds: adaptive starts straight in the best mode the plan reached, a
  // static strategy skips its up-front compile when its mode is cached.
  const bool may_opt = strategy == ExecutionStrategy::kAdaptive ||
                       strategy == ExecutionStrategy::kOptimized;
  const bool may_unopt = strategy == ExecutionStrategy::kAdaptive ||
                         strategy == ExecutionStrategy::kUnoptimized;
  if (may_opt && code.opt != nullptr) {
    out.seed = std::move(code.opt);
    out.seed_mode = ExecMode::kOptimized;
  } else if (may_unopt && code.unopt != nullptr) {
    out.seed = std::move(code.unopt);
    out.seed_mode = ExecMode::kUnoptimized;
  }
  if (out.seed != nullptr) ++code_hits_;
  return out;
}

bool ArtifactCache::PublishBytecode(CacheEntry& entry, size_t p,
                                    const ArtifactOrigin& origin,
                                    std::shared_ptr<const BcProgram> program,
                                    ConstantPatchTable patch) {
  const auto bytes = static_cast<int64_t>(BcProgramBytes(*program));
  {
    std::lock_guard<std::mutex> lock(entry.mu);
    PipelineArtifact& a = entry.pipelines[p];
    if (a.bytecode != nullptr || !TypesFit(a, origin.column_types)) {
      return false;
    }
    a.bytecode = std::move(program);
    a.bytecode_constants = origin.constants;
    a.patchable = patch.patchable;
    a.patch_slots = std::move(patch.pool_indices);
    AdoptOrigin(&a, origin);
  }
  OnPublished(entry, bytes);
  return true;
}

bool ArtifactCache::PublishCode(CacheEntry& entry, size_t p,
                                const ArtifactOrigin& origin, ExecMode mode,
                                std::shared_ptr<CachedCode> code) {
  CodeVariant evicted;  // released after the entry lock
  int64_t delta = CodeBytes(code);
  {
    std::lock_guard<std::mutex> lock(entry.mu);
    PipelineArtifact& a = entry.pipelines[p];
    if (!TypesFit(a, origin.column_types)) return false;
    CodeVariant& v = a.code_variants.TouchOrInsert(origin.constants, &evicted);
    std::shared_ptr<CachedCode>& slot =
        mode == ExecMode::kOptimized ? v.opt : v.unopt;
    delta -= CodeBytes(slot) + CodeBytes(evicted.unopt) +
             CodeBytes(evicted.opt);
    slot = std::move(code);
    AdoptOrigin(&a, origin);
    a.best_mode = std::max(a.best_mode, mode);
  }
  OnPublished(entry, delta);
  return true;
}

std::optional<PruningDecision> ArtifactCache::FindPruning(
    CacheEntry& entry, size_t p, const std::vector<uint64_t>& constants,
    uint64_t literals_hash) {
  std::lock_guard<std::mutex> lock(entry.mu);
  const PruningDecision* d =
      entry.pipelines[p].pruning_variants.Touch({constants, literals_hash});
  if (d == nullptr) return std::nullopt;
  return *d;
}

void ArtifactCache::StorePruning(CacheEntry& entry, size_t p,
                                 const std::vector<uint64_t>& constants,
                                 uint64_t literals_hash,
                                 PruningDecision decision) {
  PruningDecision evicted;  // released after the entry lock
  std::lock_guard<std::mutex> lock(entry.mu);
  entry.pipelines[p].pruning_variants.TouchOrInsert(
      {constants, literals_hash}, &evicted) = std::move(decision);
}

void ArtifactCache::RecordPipelineRun(CacheEntry& entry, size_t p,
                                      ExecMode final_mode, uint64_t tuples,
                                      double exec_seconds) {
  std::lock_guard<std::mutex> lock(entry.mu);
  PipelineArtifact& a = entry.pipelines[p];
  a.best_mode = std::max(a.best_mode, final_mode);
  a.observed_tuples = tuples;
  a.observed_seconds = exec_seconds;
}

void ArtifactCache::RecordQueryRun(CacheEntry& entry, double service_ms,
                                   uint64_t peak_bytes, bool truncated) {
  constexpr double kAlpha = 0.3;
  const double peak = static_cast<double>(peak_bytes);
  {
    std::lock_guard<std::mutex> lock(entry.mu);
    const bool first = entry.observed_queries == 0;
    const auto fold = [first](double sample, double ewma) {
      return first ? sample : kAlpha * sample + (1 - kAlpha) * ewma;
    };
    entry.ewma_service_ms = fold(service_ms, entry.ewma_service_ms);
    entry.ewma_peak_bytes = fold(peak, entry.ewma_peak_bytes);
    if (truncated) {
      entry.ewma_peak_bytes = std::max(entry.ewma_peak_bytes, peak);
    }
    ++entry.observed_queries;
  }
  if (!truncated) ++cost_feedback_updates_;
}

AdmissionEstimate ArtifactCache::EstimateAdmission(
    CacheEntry& entry, const PlanFingerprint& fingerprint,
    ExecutionStrategy strategy) {
  const bool interprets = StrategyInterprets(strategy);
  AdmissionEstimate est;
  est.fully_cached = true;
  double observed_ms = 0;
  std::lock_guard<std::mutex> lock(entry.mu);
  for (size_t p = 0; p < entry.pipelines.size() && est.fully_cached; ++p) {
    const PipelineArtifact& a = entry.pipelines[p];
    est.fully_cached =
        (interprets && a.bytecode != nullptr) ||
        a.code_variants.Find(fingerprint.PipelineConstants(p)) != nullptr;
    observed_ms += a.observed_seconds * 1e3;
  }
  if (entry.observed_queries > 0) {
    est.cost_ms = std::max(0.05, entry.ewma_service_ms);
    // Only a plan with earlier runs has a peak estimate: a cold plan is
    // admitted optimistically and caught by the runtime soft limit.
    est.peak_bytes = static_cast<uint64_t>(entry.ewma_peak_bytes);
  } else if (est.fully_cached) {
    est.cost_ms = std::max(0.05, observed_ms);
  }
  return est;
}

void ArtifactCache::OnPublished(const CacheEntry& entry, int64_t delta) {
  ++publishes_;
  std::vector<uint64_t> victims;
  {
    Shard& shard = ShardFor(entry.key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(entry.key);
    // Publishing into an evicted entry — including one whose key has since
    // been re-interned as a *different* CacheEntry — must not be charged to
    // the shard: those artifacts die with the queries holding the old entry.
    // The identity check makes accounting follow the object, not the key.
    if (it == shard.map.end() || it->second.entry.get() != &entry) return;
    int64_t updated = static_cast<int64_t>(it->second.bytes) + delta;
    it->second.bytes = static_cast<uint64_t>(std::max<int64_t>(updated, 0));
    int64_t total = static_cast<int64_t>(shard.bytes) + delta;
    shard.bytes = static_cast<uint64_t>(std::max<int64_t>(total, 0));
    EvictOverBudgetLocked(&shard, &victims);
  }
  NotifyEvicted(victims);
}

void ArtifactCache::set_byte_budget(uint64_t bytes) {
  byte_budget_.store(bytes);
  std::vector<uint64_t> victims;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    EvictOverBudgetLocked(&shard, &victims);
  }
  NotifyEvicted(victims);
}

void ArtifactCache::Clear() {
  std::vector<uint64_t> victims;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const uint64_t key : shard.lru) victims.push_back(key);
    evictions_ += shard.map.size();
    shard.map.clear();
    shard.lru.clear();
    shard.bytes = 0;
  }
  NotifyEvicted(victims);
}

void ArtifactCache::EvictOverBudgetLocked(Shard* shard,
                                          std::vector<uint64_t>* victims) {
  const uint64_t shard_budget =
      std::max<uint64_t>(byte_budget_.load() / kNumShards, 1);
  // Evict from the cold end; the most recently touched entry always stays
  // (a single over-budget plan must remain usable).
  while (shard->bytes > shard_budget && shard->lru.size() > 1) {
    uint64_t victim = shard->lru.back();
    shard->lru.pop_back();
    auto it = shard->map.find(victim);
    AQE_CHECK(it != shard->map.end());
    shard->bytes -= std::min(shard->bytes, it->second.bytes);
    shard->map.erase(it);
    ++evictions_;
    victims->push_back(victim);
  }
}

void ArtifactCache::NotifyEvicted(const std::vector<uint64_t>& victims) const {
  if (!eviction_listener_) return;
  for (const uint64_t key : victims) eviction_listener_(key);
}

ArtifactCacheStats ArtifactCache::stats() const {
  ArtifactCacheStats s;
  s.entry_hits = entry_hits_.load();
  s.entry_misses = entry_misses_.load();
  s.bytecode_hits = bytecode_hits_.load();
  s.patched_hits = patched_hits_.load();
  s.bytecode_misses = bytecode_misses_.load();
  s.code_hits = code_hits_.load();
  s.publishes = publishes_.load();
  s.evictions = evictions_.load();
  s.cost_feedback_updates = cost_feedback_updates_.load();
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    s.bytes += shard.bytes;
    s.entries += shard.map.size();
  }
  return s;
}

void ArtifactCache::ResetStats() {
  entry_hits_.store(0);
  entry_misses_.store(0);
  bytecode_hits_.store(0);
  patched_hits_.store(0);
  bytecode_misses_.store(0);
  code_hits_.store(0);
  publishes_.store(0);
  evictions_.store(0);
  cost_feedback_updates_.store(0);
}

}  // namespace aqe
