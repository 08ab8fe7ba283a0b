#include "reference.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "service/protocol.h"
#include "workload/tpch.h"

namespace perfbench {

using apq::Catalog;
using apq::Column;
using apq::Intermediate;
using apq::kTpchDate0;

namespace {

const Column& Col(const Catalog& cat, const char* table, const char* col) {
  const apq::Table* t = cat.GetTable(table);
  const Column* c = t != nullptr ? t->GetColumn(col) : nullptr;
  if (c == nullptr) {
    throw std::runtime_error(std::string("reference: no column ") + table +
                             "." + col);
  }
  return *c;
}

// Per dictionary code of `col`: does the string contain `needle`?
std::vector<uint8_t> ContainsByCode(const Column& col, const char* needle) {
  std::vector<uint8_t> out(col.dictionary().size());
  for (size_t c = 0; c < out.size(); ++c) {
    out[c] = col.dictionary()[c].find(needle) != std::string::npos;
  }
  return out;
}

// Accumulates (key -> sum, count) with groups numbered by first occurrence,
// then orders them by value (ascending or descending), ties by first
// occurrence: the query's ORDER BY over its GROUP BY.
class Groups {
 public:
  void Add(int64_t key, double v) {
    auto it = index_.find(key);
    size_t g;
    if (it == index_.end()) {
      g = keys_.size();
      index_.emplace(key, g);
      keys_.push_back(key);
      sums_.push_back(0);
      counts_.push_back(0);
    } else {
      g = it->second;
    }
    sums_[g] += v;
    ++counts_[g];
  }

  Answer Sorted(bool descending, bool counts_as_values) const {
    const std::vector<double> vals =
        counts_as_values ? std::vector<double>(counts_.begin(), counts_.end())
                         : sums_;
    std::vector<size_t> order(keys_.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return descending ? vals[a] > vals[b] : vals[a] < vals[b];
    });
    Answer ans;
    ans.grouped = true;
    ans.exact_vals = counts_as_values;
    for (size_t g : order) {
      ans.keys.push_back(keys_[g]);
      ans.vals.push_back(vals[g]);
      ans.counts.push_back(counts_[g]);
    }
    return ans;
  }

 private:
  std::unordered_map<int64_t, size_t> index_;
  std::vector<int64_t> keys_;
  std::vector<double> sums_;
  std::vector<int64_t> counts_;
};

Answer Scalar(double v, int64_t count) {
  Answer a;
  a.scalar = v;
  a.scalar_count = count;
  return a;
}

Answer RefQ4(const Catalog& cat) {
  const auto& odate = Col(cat, "orders", "o_orderdate").i64();
  const auto& prio = Col(cat, "orders", "o_orderpriority").i64();
  Groups g;
  for (size_t i = 0; i < odate.size(); ++i) {
    if (odate[i] >= kTpchDate0 + 730 && odate[i] <= kTpchDate0 + 819) {
      g.Add(prio[i], 1.0);
    }
  }
  return g.Sorted(/*descending=*/false, /*counts_as_values=*/true);
}

Answer RefQ6(const Catalog& cat) {
  const auto& ship = Col(cat, "lineitem", "l_shipdate").i64();
  const auto& disc = Col(cat, "lineitem", "l_discount").f64();
  const auto& qty = Col(cat, "lineitem", "l_quantity").i64();
  const auto& price = Col(cat, "lineitem", "l_extendedprice").f64();
  double sum = 0;
  int64_t n = 0;
  for (size_t i = 0; i < ship.size(); ++i) {
    if (ship[i] >= kTpchDate0 + 365 && ship[i] <= kTpchDate0 + 729 &&
        disc[i] >= 0.05 && disc[i] <= 0.07 && qty[i] >= 1 && qty[i] <= 23) {
      sum += price[i] * disc[i];
      ++n;
    }
  }
  return Scalar(sum, n);
}

// Q8 and Q9: per lineitem row (every row joins exactly one part and one
// supplier), a flagged value grouped by the supplier's nation, sorted
// descending.
template <typename ValueFn>
Answer RefByNation(const Catalog& cat, const char* type_needle,
                   ValueFn value_of) {
  const auto& pkey = Col(cat, "lineitem", "l_partkey").i64();
  const auto& skey = Col(cat, "lineitem", "l_suppkey").i64();
  const Column& ptype = Col(cat, "part", "p_type");
  const auto& snat = Col(cat, "supplier", "s_nationkey").i64();
  const std::vector<uint8_t> match = ContainsByCode(ptype, type_needle);
  Groups g;
  for (size_t i = 0; i < pkey.size(); ++i) {
    const double flag = match[ptype.i64()[pkey[i]]] ? 1.0 : 0.0;
    g.Add(snat[skey[i]], value_of(i) * flag);
  }
  return g.Sorted(/*descending=*/true, /*counts_as_values=*/false);
}

Answer RefQ8(const Catalog& cat) {
  const auto& price = Col(cat, "lineitem", "l_extendedprice").f64();
  const auto& disc = Col(cat, "lineitem", "l_discount").f64();
  return RefByNation(cat, "ECONOMY ANODIZED STEEL", [&](size_t i) {
    return price[i] * (1.0 - disc[i]);
  });
}

Answer RefQ9(const Catalog& cat) {
  const auto& price = Col(cat, "lineitem", "l_extendedprice").f64();
  const auto& disc = Col(cat, "lineitem", "l_discount").f64();
  const auto& qty = Col(cat, "lineitem", "l_quantity").i64();
  return RefByNation(cat, "BRASS", [&](size_t i) {
    return price[i] * (1.0 - disc[i]) - static_cast<double>(qty[i]) * 1.2;
  });
}

Answer RefQ14(const Catalog& cat) {
  const auto& ship = Col(cat, "lineitem", "l_shipdate").i64();
  const auto& pkey = Col(cat, "lineitem", "l_partkey").i64();
  const auto& disc = Col(cat, "lineitem", "l_discount").f64();
  const auto& price = Col(cat, "lineitem", "l_extendedprice").f64();
  const Column& ptype = Col(cat, "part", "p_type");
  const std::vector<uint8_t> promo_code = ContainsByCode(ptype, "PROMO");
  double promo = 0, total = 0;
  for (size_t i = 0; i < ship.size(); ++i) {
    if (ship[i] < kTpchDate0 + 1000 || ship[i] > kTpchDate0 + 1029) continue;
    const double rev = price[i] * (1.0 - disc[i]);
    total += rev;
    if (promo_code[ptype.i64()[pkey[i]]]) promo += rev;
  }
  return Scalar(total > 0 ? promo / total : 0, 0);
}

Answer RefQ19(const Catalog& cat) {
  const auto& pkey = Col(cat, "lineitem", "l_partkey").i64();
  const auto& qty = Col(cat, "lineitem", "l_quantity").i64();
  const auto& disc = Col(cat, "lineitem", "l_discount").f64();
  const auto& price = Col(cat, "lineitem", "l_extendedprice").f64();
  const Column& brand = Col(cat, "part", "p_brand");
  const Column& cont = Col(cat, "part", "p_container");
  const std::vector<uint8_t> b12 = ContainsByCode(brand, "Brand#12");
  const std::vector<uint8_t> sm = ContainsByCode(cont, "SM");
  double sum = 0;
  for (size_t i = 0; i < pkey.size(); ++i) {
    const size_t p = static_cast<size_t>(pkey[i]);
    if (b12[brand.i64()[p]] && sm[cont.i64()[p]] && qty[i] >= 1 &&
        qty[i] <= 11) {
      sum += price[i] * (1.0 - disc[i]);
    }
  }
  return Scalar(sum, static_cast<int64_t>(pkey.size()));
}

Answer RefQ22(const Catalog& cat) {
  const auto& bal = Col(cat, "customer", "c_acctbal").f64();
  const auto& nk = Col(cat, "customer", "c_nationkey").i64();
  Groups g;
  for (size_t i = 0; i < bal.size(); ++i) {
    if (bal[i] >= 0.0 && bal[i] <= 1e9) g.Add(nk[i], bal[i]);
  }
  return g.Sorted(/*descending=*/true, /*counts_as_values=*/false);
}

bool Near(double got, double want) {
  return std::fabs(got - want) <=
         kSumRelTol * std::max(std::fabs(want), 1e-300) ||
         got == want;
}

std::string Num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

Answer ReferenceTpch(const Catalog& cat, const std::string& name) {
  if (name == "Q4") return RefQ4(cat);
  if (name == "Q6") return RefQ6(cat);
  if (name == "Q8") return RefQ8(cat);
  if (name == "Q9") return RefQ9(cat);
  if (name == "Q14") return RefQ14(cat);
  if (name == "Q19") return RefQ19(cat);
  if (name == "Q22") return RefQ22(cat);
  throw std::runtime_error("reference: unknown query " + name);
}

Answer ReferenceSkewedSum(const Catalog& cat, int64_t hi) {
  const auto& v = Col(cat, "skewed", "v").i64();
  double sum = 0;
  int64_t n = 0;
  for (int64_t x : v) {
    if (x >= 0 && x <= hi) {
      sum += static_cast<double>(x);
      ++n;
    }
  }
  return Scalar(sum, n);
}

std::string CheckAnswer(const Intermediate& got, const Answer& want) {
  if (!want.grouped) {
    double v = 0;
    int64_t n = 0;
    if (got.kind == Intermediate::Kind::kScalar) {
      v = got.scalar;
      n = got.scalar_count;
    } else if (got.kind == Intermediate::Kind::kGroupedAgg &&
               got.agg_vals.size() == 1) {
      v = got.agg_vals[0];
      n = got.agg_counts.empty() ? 0 : got.agg_counts[0];
    } else {
      return std::string("expected a scalar, got kind ") +
             Intermediate::KindName(got.kind) + " with " +
             std::to_string(got.NumRows()) + " rows";
    }
    if (!Near(v, want.scalar)) {
      return "value " + Num(v) + " != reference " + Num(want.scalar);
    }
    if (n != want.scalar_count) {
      return "count " + std::to_string(n) + " != reference " +
             std::to_string(want.scalar_count);
    }
    return "";
  }
  if (got.kind != Intermediate::Kind::kGroupedAgg) {
    return std::string("expected grouped rows, got kind ") +
           Intermediate::KindName(got.kind);
  }
  if (got.agg_vals.size() != want.keys.size()) {
    return "groups " + std::to_string(got.agg_vals.size()) +
           " != reference " + std::to_string(want.keys.size());
  }
  for (size_t g = 0; g < want.keys.size(); ++g) {
    const int64_t key = got.group_keys.AsInt(g);
    const int64_t cnt = g < got.agg_counts.size() ? got.agg_counts[g] : -1;
    const std::string at = "row " + std::to_string(g) + ": ";
    if (key != want.keys[g]) {
      return at + "group key " + std::to_string(key) + " != reference " +
             std::to_string(want.keys[g]) + " (group order)";
    }
    if (cnt != want.counts[g]) {
      return at + "count " + std::to_string(cnt) + " != reference " +
             std::to_string(want.counts[g]);
    }
    const bool ok = want.exact_vals ? got.agg_vals[g] == want.vals[g]
                                    : Near(got.agg_vals[g], want.vals[g]);
    if (!ok) {
      return at + "value " + Num(got.agg_vals[g]) + " != reference " +
             Num(want.vals[g]);
    }
  }
  return "";
}

std::string CompareResults(const Intermediate& a, const Intermediate& b,
                           bool float_bits_ok, bool* bit_diff) {
  const std::string sa = apq::service::SerializeResult(a);
  const std::string sb = apq::service::SerializeResult(b);
  if (sa == sb) return "";
  if (float_bits_ok && a.kind == Intermediate::Kind::kGroupedAgg &&
      b.kind == Intermediate::Kind::kGroupedAgg &&
      a.agg_vals.size() == b.agg_vals.size() &&
      a.agg_counts == b.agg_counts && a.group_keys.i64 == b.group_keys.i64) {
    bool near = true;
    for (size_t g = 0; g < a.agg_vals.size() && near; ++g) {
      near = Near(a.agg_vals[g], b.agg_vals[g]);
    }
    if (near) {
      if (bit_diff != nullptr) *bit_diff = true;
      return "";
    }
  }
  size_t i = 0;
  while (i < sa.size() && i < sb.size() && sa[i] == sb[i]) ++i;
  const size_t from = sa.rfind('\n', i) == std::string::npos
                          ? 0
                          : sa.rfind('\n', i) + 1;
  return "results differ at byte " + std::to_string(i) + ": '" +
         sa.substr(from, sa.find('\n', from) - from) + "' vs '" +
         sb.substr(from, sb.find('\n', from) - from) + "'";
}

}  // namespace perfbench
