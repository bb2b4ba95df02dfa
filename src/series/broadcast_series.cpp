#include "series/broadcast_series.hpp"

#include <algorithm>
#include <limits>

#include "util/contracts.hpp"
#include "util/math.hpp"

namespace vodbcast::series {

std::vector<std::uint64_t> BroadcastSeries::prefix(int k,
                                                   std::uint64_t width) const {
  VB_EXPECTS(k >= 0);
  VB_EXPECTS(width >= 1);
  std::vector<std::uint64_t> values;
  values.reserve(static_cast<std::size_t>(k));
  // Once the cap binds, every later element is >= width (the series is
  // non-decreasing), so stop evaluating the recurrence — for narrow widths
  // with many channels the raw elements would overflow 64 bits long before
  // the prefix ends.
  bool capped = false;
  for (int n = 1; n <= k; ++n) {
    if (capped) {
      values.push_back(width);
      continue;
    }
    const std::uint64_t value = element(n);
    if (value >= width) {
      capped = true;
      values.push_back(width);
    } else {
      values.push_back(value);
    }
  }
  return values;
}

std::uint64_t BroadcastSeries::prefix_sum(int k, std::uint64_t width) const {
  std::uint64_t sum = 0;
  for (const std::uint64_t value : prefix(k, width)) {
    sum = util::add_or_die(sum, value);
  }
  return sum;
}

namespace {

/// f(m) from f(m - 1) by the skyscraper recurrence (m >= 4); throws on
/// 64-bit overflow.
std::uint64_t skyscraper_step(int m, std::uint64_t prev) {
  switch (m % 4) {
    case 0:
      return util::add_or_die(util::mul_or_die(2, prev), 1);
    case 2:
      return util::add_or_die(util::mul_or_die(2, prev), 2);
    default:
      return prev;
  }
}

/// table[n] = f(n) for every n whose value fits in 64 bits; index 0 unused.
/// Built on first use; the function-local static makes that thread-safe.
const std::vector<std::uint64_t>& skyscraper_table() {
  static const std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> t{0, 1, 2, 2};
    for (int m = 4;; ++m) {
      // Even steps grow to 2 f(m-1) + 1 or + 2; stop before one overflows.
      const std::uint64_t add = m % 4 == 0 ? 1 : 2;
      if (m % 2 == 0 &&
          t.back() > (std::numeric_limits<std::uint64_t>::max() - add) / 2) {
        return t;
      }
      t.push_back(skyscraper_step(m, t.back()));
    }
  }();
  return table;
}

}  // namespace

std::uint64_t SkyscraperSeries::element(int n) const {
  VB_EXPECTS(n >= 1);
  const auto& table = skyscraper_table();
  const auto idx = static_cast<std::size_t>(n);
  if (idx < table.size()) {
    return table[idx];
  }
  // Past the table the recurrence overflows; the checked step throws.
  return skyscraper_step(static_cast<int>(table.size()), table.back());
}

std::uint64_t FastSeries::element(int n) const {
  VB_EXPECTS(n >= 1);
  VB_EXPECTS_MSG(n <= 63, "fast series overflows past n = 63");
  return std::uint64_t{1} << (n - 1);
}

std::uint64_t FlatSeries::element(int n) const {
  VB_EXPECTS(n >= 1);
  return 1;
}

std::unique_ptr<BroadcastSeries> make_series(const std::string& name) {
  if (name == "skyscraper") {
    return std::make_unique<SkyscraperSeries>();
  }
  if (name == "fast") {
    return std::make_unique<FastSeries>();
  }
  if (name == "flat") {
    return std::make_unique<FlatSeries>();
  }
  VB_EXPECTS_MSG(false, "unknown broadcast series: " + name);
  return nullptr;  // unreachable
}

namespace skyscraper {

bool is_odd_group_element(std::uint64_t value) noexcept {
  return value % 2 == 1;
}

int first_index_reaching(std::uint64_t value) {
  if (value == 0) {
    return 0;
  }
  const SkyscraperSeries series;
  for (int n = 1;; ++n) {
    if (series.element(n) >= value) {
      return n;
    }
  }
}

}  // namespace skyscraper
}  // namespace vodbcast::series
