// Transparent hashing for std::string-keyed unordered maps. Declared as
//   std::unordered_map<std::string, V, StringHash, std::equal_to<>>
// a map's find() takes a std::string_view as is, so looking up a name
// never builds (and, past the small-string buffer, heap-allocates) a
// std::string; only inserting a new key copies it.
#pragma once

#include <cstddef>
#include <functional>
#include <string_view>

namespace tsf::common {

struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

}  // namespace tsf::common
