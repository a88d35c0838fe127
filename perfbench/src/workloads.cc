#include "src/workloads.h"

#include <cmath>

#include "queries/generated_queries.h"

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

std::vector<PlanSpec> TpchPlans() {
  std::vector<PlanSpec> plans;
  for (int number : aqe::ImplementedTpchQueries()) {
    PlanSpec spec;
    spec.name = "q" + std::to_string(number);
    spec.number = number;
    plans.push_back(spec);
  }
  return plans;
}

/// §V-E generated aggregate family: one width per stratum of a log-uniform
/// split of [lo, hi), then the widest query, `hi`. Inside its stratum each
/// width sits at one of the offsets 0.3, 0.4, ..., 0.7, and the seed deals
/// the offsets to the strata. Every seed thus covers the range with the
/// same spacing and the same geomean width, and every seed shares the
/// tail plan, so the seed moves which widths run but not the run's figures.
std::vector<PlanSpec> GeneratedPlans(Rng* rng, int strata, int lo, int hi) {
  std::vector<int> offsets(static_cast<size_t>(strata));
  for (int i = 0; i < strata; ++i) offsets[static_cast<size_t>(i)] = i;
  rng->Shuffle(&offsets);
  std::vector<int> widths;
  const double span = std::log(static_cast<double>(hi) / lo);
  for (int i = 0; i < strata; ++i) {
    double offset = 0.3 + 0.4 * offsets[static_cast<size_t>(i)] / (strata - 1);
    double u = (i + offset) / strata;
    widths.push_back(static_cast<int>(std::lround(lo * std::exp(span * u))));
  }
  widths.push_back(hi);
  std::vector<PlanSpec> plans;
  for (int width : widths) {
    PlanSpec spec;
    spec.kind = PlanKind::kGenerated;
    spec.width = width;
    spec.name = "gen_w" + std::to_string(width);
    plans.push_back(spec);
  }
  return plans;
}

/// Q6 literal variants (ship year, discount band, quantity cap) drawn
/// without replacement from an 80-entry candidate grid.
std::vector<PlanSpec> Q6Variants(Rng* rng, size_t count) {
  std::vector<PlanSpec> candidates;
  const aqe::TpchQ6Literals base = aqe::DefaultQ6Literals();
  for (int year = -1; year <= 3; ++year) {
    for (int discount = 2; discount <= 9; ++discount) {
      for (int64_t quantity : {2400, 2500}) {
        PlanSpec spec;
        spec.kind = PlanKind::kQ6Variant;
        spec.q6 = base;
        spec.q6.ship_date_lo += 365 * year;
        spec.q6.ship_date_hi = spec.q6.ship_date_lo + 365;
        spec.q6.discount_lo = discount - 1;
        spec.q6.discount_hi = discount + 1;
        spec.q6.quantity_limit = quantity;
        spec.name = "q6_y" + std::to_string(year) + "_d" +
                    std::to_string(discount) + "_q" + std::to_string(quantity);
        candidates.push_back(spec);
      }
    }
  }
  rng->Shuffle(&candidates);
  candidates.resize(count);
  return candidates;
}

/// Q14 p_type prefix patterns (one or two type syllables) drawn without
/// replacement from the 36 candidates.
std::vector<PlanSpec> Q14Variants(Rng* rng, size_t count) {
  static const char* kFirst[] = {"STANDARD", "SMALL",   "MEDIUM",
                                 "LARGE",    "ECONOMY", "PROMO"};
  static const char* kSecond[] = {"ANODIZED", "BURNISHED", "PLATED",
                                  "POLISHED", "BRUSHED"};
  std::vector<PlanSpec> candidates;
  auto add = [&candidates](const std::string& prefix) {
    PlanSpec spec;
    spec.kind = PlanKind::kQ14Variant;
    spec.pattern = prefix + "%";
    spec.name = "q14_" + prefix;
    for (char& c : spec.name) c = c == ' ' ? '_' : c;
    candidates.push_back(spec);
  };
  for (const char* first : kFirst) {
    add(first);
    for (const char* second : kSecond) add(std::string(first) + " " + second);
  }
  rng->Shuffle(&candidates);
  candidates.resize(count);
  return candidates;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"cold_tpch", "cold_wide",
                                                 "warm_serve"};
  return names;
}

bool MakeWorkload(const std::string& name, uint64_t seed, double sf,
                  Workload* out) {
  Workload w;
  w.name = name;
  uint64_t name_hash = 1469598103934665603ull;
  for (char c : name) name_hash = (name_hash ^ static_cast<uint8_t>(c)) * 1099511628211ull;
  Rng rng(seed * 0x2545F4914F6CDD1Dull + name_hash);
  if (name == "cold_tpch") {
    w.sf = 0.3;
    w.plans = TpchPlans();
  } else if (name == "cold_wide") {
    w.sf = 0.01;
    w.plans = TpchPlans();
    for (PlanSpec& spec : GeneratedPlans(&rng, 5, 25, 400)) {
      w.plans.push_back(spec);
    }
  } else if (name == "warm_serve") {
    w.sf = 0.1;
    w.use_artifact_cache = true;
    w.class3_weight = 8;
    w.plans = TpchPlans();
    // Zipf over query-number order: the rank-r query gets 24/r cards.
    ClientSpec long_client;
    for (size_t i = 0; i < w.plans.size(); ++i) {
      long_client.deck.insert(long_client.deck.end(),
                              static_cast<size_t>(std::lround(24.0 / (i + 1))),
                              static_cast<int>(i));
    }
    ClientSpec short_client;
    short_client.query_class = 3;
    for (auto* variants : {&Q6Variants, &Q14Variants}) {
      for (PlanSpec& spec : (*variants)(&rng, 12)) {
        short_client.deck.push_back(static_cast<int>(w.plans.size()));
        w.plans.push_back(spec);
      }
    }
    w.clients = {long_client, long_client, short_client, short_client};
  } else {
    return false;
  }
  if (sf > 0) w.sf = sf;
  *out = std::move(w);
  return true;
}

aqe::QueryProgram BuildPlan(const PlanSpec& spec, const aqe::Catalog& catalog) {
  switch (spec.kind) {
    case PlanKind::kTpch:
      return aqe::BuildTpchQuery(spec.number, catalog);
    case PlanKind::kQ6Variant:
      return aqe::BuildTpchQ6Variant(catalog, spec.q6);
    case PlanKind::kQ14Variant:
      return aqe::BuildTpchQ14Variant(catalog, spec.pattern);
    case PlanKind::kGenerated:
      break;
  }
  return aqe::BuildGeneratedAggregateQuery(spec.width, catalog);
}

}  // namespace perfbench
