#ifndef AQE_CACHE_ARTIFACT_CACHE_H_
#define AQE_CACHE_ARTIFACT_CACHE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/fingerprint.h"
#include "exec/function_handle.h"
#include "index/access_path.h"
#include "jit/jit_compiler.h"
#include "storage/column.h"
#include "vm/bytecode.h"

namespace aqe {

enum class ExecutionStrategy;  // adaptive/controller.h

/// Counters of the plan-keyed artifact cache (QueryEngine's stats API).
/// `bytes`/`entries` are resident footprint; the rest are monotonic.
struct ArtifactCacheStats {
  uint64_t entry_hits = 0;      ///< Submit found the plan's entry
  uint64_t entry_misses = 0;    ///< Submit created a fresh entry
  uint64_t bytecode_hits = 0;   ///< pipeline reused cached bytecode as-is
  uint64_t patched_hits = 0;    ///< ...via the constant-patch table
  uint64_t bytecode_misses = 0; ///< pipeline had to translate
  uint64_t code_hits = 0;       ///< pipeline seeded cached machine code
  uint64_t publishes = 0;       ///< artifacts written back
  uint64_t evictions = 0;       ///< entries dropped by the LRU byte budget
  /// Completed queries that fed their observed service time back into
  /// their plan's admission-cost EWMA (CacheEntry::ewma_service_ms) — the
  /// cold-query estimate WFQ admission charges converges as this grows.
  uint64_t cost_feedback_updates = 0;
  uint64_t bytes = 0;
  uint64_t entries = 0;
};

/// Difference of the monotonic counters (phase deltas: snapshot before a
/// phase, subtract after). `bytes`/`entries` describe the current residency
/// and keep the left-hand side's values.
inline ArtifactCacheStats operator-(const ArtifactCacheStats& a,
                                    const ArtifactCacheStats& b) {
  ArtifactCacheStats d = a;
  d.entry_hits -= b.entry_hits;
  d.entry_misses -= b.entry_misses;
  d.bytecode_hits -= b.bytecode_hits;
  d.patched_hits -= b.patched_hits;
  d.bytecode_misses -= b.bytecode_misses;
  d.code_hits -= b.code_hits;
  d.publishes -= b.publishes;
  d.evictions -= b.evictions;
  d.cost_feedback_updates -= b.cost_feedback_updates;
  return d;
}

/// One JIT compilation kept alive by shared ownership: the cache holds a
/// reference while the artifact is resident, every query that uses or
/// produced the code holds another — so LRU eviction can never free machine
/// code a query is still executing.
struct CachedCode {
  std::unique_ptr<CompiledModule> module;
  WorkerFn fn = nullptr;
  uint64_t approx_bytes = 0;
};

/// A bounded set of variants keyed by `Key` with least-recently-used
/// eviction: the one LRU both per-pipeline variant sets use. Linear scans —
/// the sets are tiny and the owning entry's mutex is already held.
template <typename Key, typename Value, size_t kCapacity>
class VariantLru {
 public:
  size_t size() const { return slots_.size(); }

  /// The value under `key` (nullptr when absent), without touching it.
  const Value* Find(const Key& key) const {
    for (const Slot& s : slots_) {
      if (s.key == key) return &s.value;
    }
    return nullptr;
  }

  /// Find, marking the variant most recently used.
  Value* Touch(const Key& key) {
    for (Slot& s : slots_) {
      if (s.key != key) continue;
      s.last_use = ++clock_;
      return &s.value;
    }
    return nullptr;
  }

  /// Touch, inserting a default value when `key` is absent. A full set
  /// first evicts its least recently used variant, moved into `*evicted`.
  Value& TouchOrInsert(const Key& key, Value* evicted) {
    if (Value* v = Touch(key)) return *v;
    if (slots_.size() == kCapacity) {
      auto lru = std::min_element(
          slots_.begin(), slots_.end(),
          [](const Slot& a, const Slot& b) { return a.last_use < b.last_use; });
      *evicted = std::move(lru->value);
      slots_.erase(lru);
    }
    slots_.push_back(Slot{key, Value{}, ++clock_});
    return slots_.back().value;
  }

 private:
  struct Slot {
    Key key;
    Value value;
    uint64_t last_use = 0;  ///< clock_ at the last touch
  };
  std::vector<Slot> slots_;
  uint64_t clock_ = 0;  ///< bumped on every touch
};

/// Machine code compiled for one exact constant vector (code embeds the
/// literals; only the bytecode is patchable).
struct CodeVariant {
  std::shared_ptr<CachedCode> unopt;
  std::shared_ptr<CachedCode> opt;
};

/// One cached scan-pruning decision (src/index/access_path.h).
struct PruningDecision {
  std::shared_ptr<const ScanDomain> domain;  ///< null = full scan decided
  PruningStats stats;
};

/// Cached artifacts of one pipeline, filled in as stages complete. All
/// fields are guarded by the owning CacheEntry's mutex and written only by
/// ArtifactCache.
struct PipelineArtifact {
  /// Position-independent bytecode. Shared directly on exact-constant hits;
  /// cloned + patched for literal-only variants.
  std::shared_ptr<const BcProgram> bytecode;
  /// The pipeline-constant values `bytecode` was translated with (the
  /// pipeline's slice of the inserting query's fingerprint constants).
  std::vector<uint64_t> bytecode_constants;
  bool patchable = false;
  std::vector<uint32_t> patch_slots;  ///< per-constant constant_pool index
  /// Bind-time validation: the artifact only fits when the scanned column
  /// types match (temp-table schemas are only knowable at run time).
  std::vector<DataType> column_types;
  uint64_t instructions = 0;  ///< LLVM instruction count (cost model input)
  /// Runtime-call density of the worker's loop body (cost model input;
  /// recorded at first publish so cache hits skip IR generation entirely).
  double runtime_call_fraction = 0;

  /// Machine-code variants, keyed by the exact constant vector each embeds,
  /// so queries alternating between a few parameter values don't evict each
  /// other's compilations. The bytecode slot above needs no such set — one
  /// program patch-shares across all literal variants.
  static constexpr size_t kMaxCodeVariants = 4;
  VariantLru<std::vector<uint64_t>, CodeVariant, kMaxCodeVariants>
      code_variants;

  /// Scan-pruning decisions, so warm runs skip the index analysis. Keyed
  /// by the constant slice *plus* PlanFingerprint::literals_hash: bytecode
  /// patch-shares across literal variants and LIKE patterns are not
  /// constants at all, so the constants alone under-key a pruning outcome.
  static constexpr size_t kMaxPruningVariants = 4;
  VariantLru<std::pair<std::vector<uint64_t>, uint64_t>, PruningDecision,
             kMaxPruningVariants>
      pruning_variants;

  ExecMode best_mode = ExecMode::kBytecode;  ///< best mode ever reached
  uint64_t observed_tuples = 0;              ///< morsel stats, last run
  double observed_seconds = 0;
};

/// One cached plan. Entries are handed out as shared_ptr: eviction only
/// unlinks them from the cache index — queries mid-flight keep using (and
/// publishing into) their snapshot safely. To everyone but ArtifactCache an
/// entry is an opaque handle (tests may read it under `mu`).
struct CacheEntry {
  uint64_t key = 0;  ///< ArtifactCacheKey(fingerprint, translator options)
  std::string plan_name;

  std::mutex mu;  ///< guards `pipelines` and the run statistics below
  std::vector<PipelineArtifact> pipelines;

  /// Admission feedback (RecordQueryRun): EWMAs of runs' service time
  /// (queue wait excluded) and tracked peak bytes. Once `observed_queries >
  /// 0` they replace the cold-query default in weighted-fair admission and
  /// are checked against the query class's byte budget at Submit.
  double ewma_service_ms = 0;
  double ewma_peak_bytes = 0;
  uint64_t observed_queries = 0;
};

/// What one pipeline can reuse from its plan's entry (ArtifactCache::Lookup).
struct PipelineLookup {
  /// Bytecode to interpret (null when the strategy does not interpret or
  /// none fits): the resident program, or a private clone patched with
  /// this run's constants.
  std::shared_ptr<const BcProgram> bytecode;
  bool patched = false;  ///< `bytecode` is a private patched clone
  /// Machine code for this run's exact constants to start in (adaptive: the
  /// best mode cached; a static strategy: its own mode), or null.
  std::shared_ptr<CachedCode> seed;
  ExecMode seed_mode = ExecMode::kBytecode;
  uint64_t instructions = 0;  ///< cost-model inputs, 0 = not recorded yet
  double runtime_call_fraction = 0;
  /// No bytecode is resident and the types fit: PublishBytecode would keep
  /// a fresh translation, so its patch table is worth building.
  bool bytecode_publishable = false;
};

/// Where a published artifact came from: the constant slice and bound
/// column types it is valid for, and its codegen cost-model inputs.
struct ArtifactOrigin {
  std::vector<uint64_t> constants;
  std::vector<DataType> column_types;
  uint64_t instructions = 0;
  double runtime_call_fraction = 0;
};

/// Cache-aware admission estimate (ArtifactCache::EstimateAdmission).
struct AdmissionEstimate {
  double cost_ms = 10.0;     ///< estimated service time (cold default)
  uint64_t peak_bytes = 0;   ///< 0 = no run to go by
  bool fully_cached = false; ///< may overtake cold waiters
};

/// Concurrent plan-fingerprint → artifact map (sharded locks, per-shard LRU
/// under a global byte budget, counters) and the per-plan protocol the
/// engine drives; each per-plan operation takes the entry's mutex once.
/// See src/cache/DESIGN.md for the engine/controller handshake.
class ArtifactCache {
 public:
  static constexpr int kNumShards = 8;
  static constexpr uint64_t kDefaultByteBudget = 256ull << 20;

  explicit ArtifactCache(uint64_t byte_budget = kDefaultByteBudget);

  /// Returns the entry for `key`, creating it (with `num_pipelines` empty
  /// artifact slots) on first sight. Counts an entry hit or miss and bumps
  /// the entry's LRU position. nullptr on a 64-bit key collision (pipeline
  /// count or plan name differs): the query runs uncached.
  std::shared_ptr<CacheEntry> Intern(uint64_t key, size_t num_pipelines,
                                     const std::string& plan_name);

  /// Lookup without creating; nullptr on miss. Does not touch counters
  /// (introspection / tests).
  std::shared_ptr<CacheEntry> Peek(uint64_t key) const;

  /// What pipeline `p` can reuse under `strategy`, for this run's constant
  /// slice and bound column types. Counts bytecode hits (exact or patched)
  /// and misses for interpreting strategies, and code hits.
  PipelineLookup Lookup(CacheEntry& entry, size_t p,
                        const std::vector<uint64_t>& constants,
                        const std::vector<DataType>& column_types,
                        ExecutionStrategy strategy);

  /// Inserts freshly translated bytecode with its constant-patch table
  /// unless bytecode is already resident or the column types differ.
  /// Returns true when kept (counted as a publish).
  bool PublishBytecode(CacheEntry& entry, size_t p,
                       const ArtifactOrigin& origin,
                       std::shared_ptr<const BcProgram> program,
                       ConstantPatchTable patch);

  /// Stores freshly compiled code as the `mode` slot of the code variant
  /// for `origin.constants`, evicting the least recently used variant when
  /// the set is full. Returns false, publishing nothing, when the column
  /// types differ (a temp-table schema drifted).
  bool PublishCode(CacheEntry& entry, size_t p, const ArtifactOrigin& origin,
                   ExecMode mode, std::shared_ptr<CachedCode> code);

  /// The cached pruning decision for (constants, literals_hash), marked
  /// most recently used; nullopt on miss.
  std::optional<PruningDecision> FindPruning(
      CacheEntry& entry, size_t p, const std::vector<uint64_t>& constants,
      uint64_t literals_hash);
  void StorePruning(CacheEntry& entry, size_t p,
                    const std::vector<uint64_t>& constants,
                    uint64_t literals_hash, PruningDecision decision);

  /// What one run of pipeline `p` achieved: its final mode and observed
  /// morsel stats.
  void RecordPipelineRun(CacheEntry& entry, size_t p, ExecMode final_mode,
                         uint64_t tuples, double exec_seconds);

  /// The one fold of a query's service time (queue wait excluded) and peak
  /// bytes into the plan's admission EWMAs (alpha 0.3: tracks drift, smooths
  /// scheduler noise). `truncated` marks a run failed at its memory budget:
  /// its peak is a lower bound, already over budget, so the EWMA never
  /// drops below it. Only completed runs count as cost feedback.
  void RecordQueryRun(CacheEntry& entry, double service_ms,
                      uint64_t peak_bytes, bool truncated);

  /// Service time, best source first: the EWMA of earlier runs, else the
  /// last observed pipeline times when every pipeline is resident, else the
  /// cold default. A pipeline is resident when a code variant matches the
  /// query's constant slice, or bytecode is present and `strategy`
  /// interprets.
  AdmissionEstimate EstimateAdmission(CacheEntry& entry,
                                      const PlanFingerprint& fingerprint,
                                      ExecutionStrategy strategy);

  void set_byte_budget(uint64_t bytes);

  /// Evicts every entry (ops flush / deterministic eviction in tests).
  /// In-flight queries keep their entries alive via shared ownership.
  void Clear();

  /// Called with each evicted entry's key, outside any shard lock (the
  /// engine routes this into the regression sentinel so a post-eviction
  /// slowdown can name its cause). Set once, before traffic — not
  /// synchronized against concurrent eviction.
  void set_eviction_listener(std::function<void(uint64_t)> listener) {
    eviction_listener_ = std::move(listener);
  }

  ArtifactCacheStats stats() const;

  /// Zeroes the monotonic counters (residency is untouched — artifacts stay
  /// cached). Benches call this between a cold and a warm phase so warm
  /// hit/miss numbers aren't polluted by cold-phase traffic.
  void ResetStats();

 private:
  /// A resident entry's cache-side bookkeeping, all under the shard lock
  /// (entry *contents* stay under the entry mutex). The stored iterator
  /// makes the per-submission LRU bump O(1).
  struct Resident {
    std::shared_ptr<CacheEntry> entry;
    std::list<uint64_t>::iterator lru_pos;
    uint64_t bytes = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, Resident> map;
    std::list<uint64_t> lru;  ///< keys, most recent first
    uint64_t bytes = 0;
  };

  Shard& ShardFor(uint64_t key) { return shards_[key % kNumShards]; }
  const Shard& ShardFor(uint64_t key) const { return shards_[key % kNumShards]; }
  /// Records a publish that added `delta` bytes to `entry` (negative when
  /// it replaced artifacts), then enforces the byte budget by evicting
  /// least-recently-used entries (the most recent entry is never evicted).
  /// Called without the entry mutex held.
  void OnPublished(const CacheEntry& entry, int64_t delta);
  /// Evicts into `victims` (keys, for the listener — invoked by the caller
  /// after the shard lock is released).
  void EvictOverBudgetLocked(Shard* shard, std::vector<uint64_t>* victims);
  void NotifyEvicted(const std::vector<uint64_t>& victims) const;

  Shard shards_[kNumShards];
  std::atomic<uint64_t> byte_budget_;
  std::function<void(uint64_t)> eviction_listener_;

  mutable std::atomic<uint64_t> entry_hits_{0}, entry_misses_{0};
  std::atomic<uint64_t> bytecode_hits_{0}, patched_hits_{0};
  std::atomic<uint64_t> bytecode_misses_{0}, code_hits_{0};
  std::atomic<uint64_t> publishes_{0}, evictions_{0};
  std::atomic<uint64_t> cost_feedback_updates_{0};
};

/// Approximate resident footprint of a translated program.
uint64_t BcProgramBytes(const BcProgram& program);

}  // namespace aqe

#endif  // AQE_CACHE_ARTIFACT_CACHE_H_
