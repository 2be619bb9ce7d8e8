#include "yaml/json.hpp"

#include <gtest/gtest.h>

namespace fluxion::yaml {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_EQ(parse_json("42")->as_i64(), 42);
  EXPECT_EQ(parse_json("-1.5")->as_double(), -1.5);
  EXPECT_EQ(parse_json("\"hi\"")->scalar(), "hi");
  EXPECT_EQ(parse_json("true")->as_bool(), true);
  EXPECT_EQ(parse_json("false")->as_bool(), false);
  EXPECT_TRUE(parse_json("null")->is_null());
}

TEST(JsonParse, NestedStructures) {
  auto r = parse_json(R"({"a": [1, {"b": "x"}], "c": {}})");
  ASSERT_TRUE(r) << r.error().message;
  EXPECT_EQ(r->get("a")->items()[0].as_i64(), 1);
  EXPECT_EQ(r->get("a")->items()[1].get("b")->scalar(), "x");
  EXPECT_TRUE(r->get("c")->is_mapping());
  EXPECT_EQ(r->get("c")->size(), 0u);
}

TEST(JsonParse, WhitespaceAndPrettyPrinting) {
  auto r = parse_json("\n{\n  \"k\" : [\n    1 ,\n    2\n  ]\n}\n");
  ASSERT_TRUE(r);
  EXPECT_EQ(r->get("k")->size(), 2u);
}

TEST(JsonParse, StringEscapes) {
  auto r = parse_json(R"("a\"b\\c\ndA")");
  ASSERT_TRUE(r);
  EXPECT_EQ(r->scalar(), "a\"b\\c\ndA");
}

TEST(JsonParse, UnicodeEscapesUtf8) {
  EXPECT_EQ(parse_json(R"("é")")->scalar(), "\xc3\xa9");    // é
  EXPECT_EQ(parse_json(R"("€")")->scalar(), "\xe2\x82\xac");  // €
}

TEST(JsonParse, Errors) {
  EXPECT_FALSE(parse_json(""));
  EXPECT_FALSE(parse_json("{"));
  EXPECT_FALSE(parse_json("[1, 2"));
  EXPECT_FALSE(parse_json("{\"a\": }"));
  EXPECT_FALSE(parse_json("{\"a\": 1,}"));  // trailing comma
  EXPECT_FALSE(parse_json("\"unterminated"));
  EXPECT_FALSE(parse_json("truish"));
  EXPECT_FALSE(parse_json("1 2"));
  EXPECT_FALSE(parse_json("{a: 1}"));  // unquoted key
}

TEST(JsonParse, ErrorsCarryOffsets) {
  auto r = parse_json("[1, oops]");
  ASSERT_FALSE(r);
  EXPECT_NE(r.error().message.find("json:"), std::string::npos);
}

TEST(JsonParse, NestingDepthCapped) {
  // Unbounded recursion used to overflow the stack on 1 MB of '['.
  auto deep = parse_json(std::string(1 << 20, '['));
  ASSERT_FALSE(deep);
  EXPECT_EQ(deep.error().code, util::Errc::parse_error);
  EXPECT_NE(deep.error().message.find("nesting deeper than"),
            std::string::npos)
      << deep.error().message;
  // The byte offset points at the first bracket past the cap.
  EXPECT_NE(deep.error().message.find(
                "json:" + std::to_string(kMaxNestingDepth) + ":"),
            std::string::npos)
      << deep.error().message;
  EXPECT_FALSE(parse_json(std::string(1 << 20, '{')));

  // Exactly at the cap still parses.
  const auto n = static_cast<std::size_t>(kMaxNestingDepth);
  EXPECT_TRUE(parse_json(std::string(n, '[') + std::string(n, ']')));
  EXPECT_FALSE(parse_json(std::string(n + 1, '[') + std::string(n + 1, ']')));
}

TEST(JsonParse, RoundTripWithWriter) {
  // The writers::Json emitter and this parser must agree.
  const char* doc =
      R"({"version":1,"items":[{"name":"a b","size":16},{"name":"c\"d"}]})";
  auto r = parse_json(doc);
  ASSERT_TRUE(r);
  EXPECT_EQ(r->get("items")->items()[0].get("size")->as_i64(), 16);
  EXPECT_EQ(r->get("items")->items()[1].get("name")->scalar(), "c\"d");
}

}  // namespace
}  // namespace fluxion::yaml
