// Diagnostics: always-on assertions for engine invariants.
//
// The schedulers and capacity accounts in this library are full of invariants
// that must hold for the reproduction to be meaningful (capacity never
// negative, time never flows backwards, ...). These checks are cheap relative
// to the surrounding work, so they stay enabled in release builds.
#pragma once

#include <sstream>
#include <string>

namespace tsf::common {

[[noreturn]] void panic(const char* file, int line, const std::string& message);

// Names what the calling thread is busy with: while a PanicContext lives,
// a panic on its thread ends with "[while <what>]", so a failure deep in a
// worker still says which piece of work it belongs to. Contexts nest; each
// restores the one it replaced.
class PanicContext {
 public:
  explicit PanicContext(std::string what);
  ~PanicContext();
  PanicContext(const PanicContext&) = delete;
  PanicContext& operator=(const PanicContext&) = delete;

 private:
  std::string what_;
  const std::string* previous_;
};

}  // namespace tsf::common

// Assert `cond`; on failure aborts with file:line and the streamed message.
// Usage: TSF_ASSERT(x >= 0, "x must be non-negative, got " << x);
#define TSF_ASSERT(cond, msg)                                 \
  do {                                                        \
    if (!(cond)) {                                            \
      std::ostringstream tsf_assert_oss;                      \
      tsf_assert_oss << "assertion failed: " #cond " — "      \
                     << msg; /* NOLINT */                     \
      ::tsf::common::panic(__FILE__, __LINE__,                \
                           tsf_assert_oss.str());             \
    }                                                         \
  } while (false)

// Unconditional failure with message.
#define TSF_PANIC(msg)                                        \
  do {                                                        \
    std::ostringstream tsf_panic_oss;                         \
    tsf_panic_oss << msg; /* NOLINT */                        \
    ::tsf::common::panic(__FILE__, __LINE__,                  \
                         tsf_panic_oss.str());                \
  } while (false)
