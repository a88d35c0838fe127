#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "plan/plan.h"
#include "queries/tpch_queries.h"

namespace perfbench {

/// Small deterministic generator (splitmix64): the same seed yields the same
/// workload on every platform and standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (size_t i = items->size(); i > 1; --i) {
      std::swap((*items)[i - 1], (*items)[Below(i)]);
    }
  }

 private:
  uint64_t state_;
};

enum class PlanKind { kTpch, kQ6Variant, kQ14Variant, kGenerated };

/// One distinct plan of a workload: what the client builds and submits.
struct PlanSpec {
  std::string name;
  PlanKind kind = PlanKind::kTpch;
  int number = 0;             ///< kTpch
  aqe::TpchQ6Literals q6{};   ///< kQ6Variant
  std::string pattern;        ///< kQ14Variant p_type LIKE pattern
  int width = 0;              ///< kGenerated aggregate count
};

/// A closed-loop client: submits plans in scheduling class `query_class`,
/// dealing them from `deck`, which holds each plan id as often as its share
/// of the client's mix. The client reshuffles the deck each time it runs
/// out, so every run gets the mix's exact proportions, not a random draw.
struct ClientSpec {
  int query_class = 0;
  std::vector<int> deck;
};

struct Workload {
  std::string name;
  double sf = 0;
  bool use_artifact_cache = false;
  /// Scheduler weight of class 3 (the short-query class of warm_serve).
  int class3_weight = 1;
  std::vector<PlanSpec> plans;
  /// Empty: one client runs every plan once per round, in an order the seed
  /// shuffles each round (the cold workloads).
  std::vector<ClientSpec> clients;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Builds the named workload from `seed`. `sf` > 0 overrides the
/// workload's scale factor (smoke runs). Returns false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, double sf,
                  Workload* out);

aqe::QueryProgram BuildPlan(const PlanSpec& spec, const aqe::Catalog& catalog);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
