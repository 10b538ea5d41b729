#include "common/time.h"

#include <cmath>
#include <ostream>
#include <sstream>

#include "common/diag.h"

namespace tsf::common {

Duration Duration::from_tu(double tu) {
  const double ticks = tu * static_cast<double>(kTicksPerTimeUnit);
  // Doubles this large are whole numbers, so a value below the sentinel
  // also rounds below it.
  TSF_ASSERT(std::isfinite(ticks) &&
                 std::fabs(ticks) < static_cast<double>(infinite().count()),
             "Duration::from_tu(" << tu
                                  << "): not a finite duration below 2^60 "
                                     "ticks");
  return Duration::ticks(static_cast<std::int64_t>(std::llround(ticks)));
}

namespace {

std::string format_ticks_as_tu(std::int64_t t) {
  std::ostringstream oss;
  if (t < 0) {
    oss << '-';
    t = -t;
  }
  const std::int64_t whole = t / Duration::kTicksPerTimeUnit;
  const std::int64_t frac = t % Duration::kTicksPerTimeUnit;
  oss << whole;
  if (frac != 0) {
    std::string digits = std::to_string(frac);
    digits.insert(digits.begin(), 3 - digits.size(), '0');
    while (!digits.empty() && digits.back() == '0') digits.pop_back();
    oss << '.' << digits;
  }
  oss << "tu";
  return oss.str();
}

}  // namespace

std::string to_string(Duration d) {
  if (d.is_infinite()) return "inf";
  return format_ticks_as_tu(d.count());
}

std::string to_string(TimePoint t) {
  if (t.is_never()) return "never";
  return format_ticks_as_tu(t.ticks());
}

std::ostream& operator<<(std::ostream& os, Duration d) {
  return os << to_string(d);
}

std::ostream& operator<<(std::ostream& os, TimePoint t) {
  return os << to_string(t);
}

}  // namespace tsf::common
