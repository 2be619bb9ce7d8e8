#include "util/interner.hpp"

#include <gtest/gtest.h>

namespace fluxion::util {
namespace {

TEST(Interner, AssignsDenseIds) {
  Interner in;
  EXPECT_EQ(in.intern("core"), 0u);
  EXPECT_EQ(in.intern("gpu"), 1u);
  EXPECT_EQ(in.intern("memory"), 2u);
  EXPECT_EQ(in.size(), 3u);
}

TEST(Interner, InternIsIdempotent) {
  Interner in;
  const auto a = in.intern("node");
  const auto b = in.intern("node");
  EXPECT_EQ(a, b);
  EXPECT_EQ(in.size(), 1u);
}

TEST(Interner, RoundTripsNames) {
  Interner in;
  const auto id = in.intern("burst-buffer");
  EXPECT_EQ(in.name(id), "burst-buffer");
}

TEST(Interner, FindSeenAndUnseen) {
  Interner in;
  in.intern("rack");
  EXPECT_EQ(in.find("rack"), std::optional<InternId>{0});
  EXPECT_EQ(in.find("pdu"), std::nullopt);
}

TEST(Interner, ManyStringsStayStable) {
  Interner in;
  std::vector<InternId> ids;
  const auto name = [](int i) {
    return std::string("t").append(std::to_string(i));
  };
  for (int i = 0; i < 500; ++i) ids.push_back(in.intern(name(i)));
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(in.name(ids[i]), name(i));
    EXPECT_EQ(in.intern(name(i)), ids[i]);
  }
}

}  // namespace
}  // namespace fluxion::util
