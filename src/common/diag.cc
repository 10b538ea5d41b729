#include "common/diag.h"

#include <cstdlib>
#include <iostream>
#include <utility>

namespace tsf::common {

namespace {
thread_local const std::string* current_context = nullptr;
}  // namespace

PanicContext::PanicContext(std::string what)
    : what_(std::move(what)), previous_(current_context) {
  current_context = &what_;
}

PanicContext::~PanicContext() { current_context = previous_; }

void panic(const char* file, int line, const std::string& message) {
  std::cerr << "[tsf panic] " << file << ":" << line << ": " << message;
  if (current_context != nullptr) {
    std::cerr << " [while " << *current_context << "]";
  }
  std::cerr << std::endl;
  std::abort();
}

}  // namespace tsf::common
