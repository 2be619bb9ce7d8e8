// Stable names for value-parameterized cases whose params are plain
// structs. gtest names such a case from the raw bytes of the struct,
// padding included, and the padding holds whatever the stack held, so
// the discovered test names changed between builds. print_param_bytes
// prints the same "N-byte object <..>" form from the listed fields only,
// with every padding byte as 00: the names keep their readable prefix
// and no longer change.
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <ostream>

namespace fluxion::testing_support {

template <class T, class... Fields>
void print_param_bytes(const T& value, std::ostream* os,
                       Fields T::*... fields) {
  unsigned char bytes[sizeof(T)] = {};
  const auto* base =
      reinterpret_cast<const unsigned char*>(std::addressof(value));
  auto copy_field = [&](const auto& field) {
    const auto* at =
        reinterpret_cast<const unsigned char*>(std::addressof(field));
    std::memcpy(bytes + (at - base), at, sizeof(field));
  };
  (copy_field(value.*fields), ...);
  ::testing::internal::PrintBytesInObjectTo(bytes, sizeof(T), os);
}

}  // namespace fluxion::testing_support
