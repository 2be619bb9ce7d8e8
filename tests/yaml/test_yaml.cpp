#include "yaml/yaml.hpp"

#include <gtest/gtest.h>

namespace fluxion::yaml {
namespace {

TEST(Yaml, EmptyDocumentIsNull) {
  auto r = parse("");
  ASSERT_TRUE(r);
  EXPECT_TRUE(r->is_null());
  auto r2 = parse("# only a comment\n\n---\n");
  ASSERT_TRUE(r2);
  EXPECT_TRUE(r2->is_null());
}

TEST(Yaml, ScalarDocument) {
  auto r = parse("hello");
  ASSERT_TRUE(r);
  ASSERT_TRUE(r->is_scalar());
  EXPECT_EQ(r->scalar(), "hello");
}

TEST(Yaml, SimpleMapping) {
  auto r = parse("version: 1\nname: fluxion\n");
  ASSERT_TRUE(r);
  ASSERT_TRUE(r->is_mapping());
  EXPECT_EQ(r->get("version")->as_i64(), 1);
  EXPECT_EQ(r->get("name")->as_string(), "fluxion");
  EXPECT_EQ(r->get("missing"), nullptr);
}

TEST(Yaml, NestedMapping) {
  auto r = parse(
      "attributes:\n"
      "  system:\n"
      "    duration: 3600\n");
  ASSERT_TRUE(r);
  const Node* d = r->get("attributes")->get("system")->get("duration");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->as_i64(), 3600);
}

TEST(Yaml, BlockSequenceOfScalars) {
  auto r = parse("- a\n- b\n- c\n");
  ASSERT_TRUE(r);
  ASSERT_TRUE(r->is_sequence());
  ASSERT_EQ(r->size(), 3u);
  EXPECT_EQ(r->items()[1].scalar(), "b");
}

TEST(Yaml, SequenceOfMappingsCompact) {
  auto r = parse(
      "- type: node\n"
      "  count: 2\n"
      "- type: core\n"
      "  count: 16\n");
  ASSERT_TRUE(r);
  ASSERT_TRUE(r->is_sequence());
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ(r->items()[0].get("type")->scalar(), "node");
  EXPECT_EQ(r->items()[0].get("count")->as_i64(), 2);
  EXPECT_EQ(r->items()[1].get("type")->scalar(), "core");
}

TEST(Yaml, CanonicalJobspecShape) {
  const char* doc =
      "version: 1\n"
      "resources:\n"
      "  - type: slot\n"
      "    count: 1\n"
      "    label: default\n"
      "    with:\n"
      "      - type: core\n"
      "        count: 10\n"
      "      - type: memory\n"
      "        count: 8\n"
      "attributes:\n"
      "  system:\n"
      "    duration: 3600\n";
  auto r = parse(doc);
  ASSERT_TRUE(r);
  const Node* res = r->get("resources");
  ASSERT_NE(res, nullptr);
  ASSERT_TRUE(res->is_sequence());
  const Node& slot = res->items()[0];
  EXPECT_EQ(slot.get("type")->scalar(), "slot");
  const Node* with = slot.get("with");
  ASSERT_EQ(with->size(), 2u);
  EXPECT_EQ(with->items()[1].get("type")->scalar(), "memory");
  EXPECT_EQ(with->items()[1].get("count")->as_i64(), 8);
}

TEST(Yaml, SequenceAtSameIndentAsKey) {
  auto r = parse(
      "resources:\n"
      "- type: node\n"
      "- type: core\n");
  ASSERT_TRUE(r);
  const Node* res = r->get("resources");
  ASSERT_NE(res, nullptr);
  ASSERT_TRUE(res->is_sequence());
  EXPECT_EQ(res->size(), 2u);
}

TEST(Yaml, FlowSequence) {
  auto r = parse("ids: [1, 2, 3]\n");
  ASSERT_TRUE(r);
  const Node* ids = r->get("ids");
  ASSERT_TRUE(ids->is_sequence());
  ASSERT_EQ(ids->size(), 3u);
  EXPECT_EQ(ids->items()[2].as_i64(), 3);
}

TEST(Yaml, FlowMapping) {
  auto r = parse("count: {min: 4, max: 8}\n");
  ASSERT_TRUE(r);
  const Node* c = r->get("count");
  ASSERT_TRUE(c->is_mapping());
  EXPECT_EQ(c->get("min")->as_i64(), 4);
  EXPECT_EQ(c->get("max")->as_i64(), 8);
}

TEST(Yaml, NestedFlow) {
  auto r = parse("m: {a: [1, 2], b: {c: 3}}\n");
  ASSERT_TRUE(r);
  const Node* m = r->get("m");
  EXPECT_EQ(m->get("a")->items()[1].as_i64(), 2);
  EXPECT_EQ(m->get("b")->get("c")->as_i64(), 3);
}

TEST(Yaml, EmptyFlowCollections) {
  auto r = parse("a: []\nb: {}\n");
  ASSERT_TRUE(r);
  EXPECT_TRUE(r->get("a")->is_sequence());
  EXPECT_EQ(r->get("a")->size(), 0u);
  EXPECT_TRUE(r->get("b")->is_mapping());
  EXPECT_EQ(r->get("b")->size(), 0u);
}

TEST(Yaml, QuotedScalars) {
  auto r = parse(
      "a: 'single quoted'\n"
      "b: \"double: quoted\"\n"
      "'c d': plain\n");
  ASSERT_TRUE(r);
  EXPECT_EQ(r->get("a")->scalar(), "single quoted");
  EXPECT_EQ(r->get("b")->scalar(), "double: quoted");
  EXPECT_EQ(r->get("c d")->scalar(), "plain");
}

TEST(Yaml, CommentsStripped) {
  auto r = parse(
      "# header\n"
      "a: 1  # trailing\n"
      "b: '#not a comment'\n");
  ASSERT_TRUE(r);
  EXPECT_EQ(r->get("a")->as_i64(), 1);
  EXPECT_EQ(r->get("b")->scalar(), "#not a comment");
}

TEST(Yaml, BoolAndNullScalars) {
  auto r = parse("t: true\nf: false\nn: null\nt2: ~\n");
  ASSERT_TRUE(r);
  EXPECT_EQ(r->get("t")->as_bool(), true);
  EXPECT_EQ(r->get("f")->as_bool(), false);
  EXPECT_TRUE(r->get("n")->is_null());
  EXPECT_TRUE(r->get("t2")->is_null());
}

TEST(Yaml, TypedAccessorMismatchesReturnNullopt) {
  auto r = parse("a: hello\nb: [1]\n");
  ASSERT_TRUE(r);
  EXPECT_EQ(r->get("a")->as_i64(), std::nullopt);
  EXPECT_EQ(r->get("a")->as_bool(), std::nullopt);
  EXPECT_EQ(r->get("b")->as_string(), std::nullopt);
}

TEST(Yaml, EmptyValueIsNull) {
  auto r = parse("a:\nb: 1\n");
  ASSERT_TRUE(r);
  EXPECT_TRUE(r->get("a")->is_null());
  EXPECT_EQ(r->get("b")->as_i64(), 1);
}

TEST(Yaml, DeeplyNestedSequences) {
  auto r = parse(
      "- \n"
      "  - 1\n"
      "  - 2\n"
      "- \n"
      "  - 3\n");
  ASSERT_TRUE(r);
  ASSERT_TRUE(r->is_sequence());
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ(r->items()[0].items()[1].as_i64(), 2);
  EXPECT_EQ(r->items()[1].items()[0].as_i64(), 3);
}

TEST(YamlErrors, TabsRejected) {
  auto r = parse("a:\n\tb: 1\n");
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, util::Errc::parse_error);
}

TEST(YamlErrors, DuplicateKeysRejected) {
  auto r = parse("a: 1\na: 2\n");
  ASSERT_FALSE(r);
  EXPECT_NE(r.error().message.find("duplicate"), std::string::npos);
}

TEST(YamlErrors, UnterminatedFlow) {
  EXPECT_FALSE(parse("a: [1, 2\n"));
  EXPECT_FALSE(parse("a: {k: 1\n"));
  EXPECT_FALSE(parse("a: 'oops\n"));
}

TEST(YamlErrors, BadIndentation) {
  auto r = parse(
      "a:\n"
      "    b: 1\n"
      "  c: 2\n");
  ASSERT_FALSE(r);
}

TEST(YamlErrors, ErrorsCarryLineNumbers) {
  auto r = parse("a: 1\na: 2\n");
  ASSERT_FALSE(r);
  EXPECT_NE(r.error().message.find("yaml:2"), std::string::npos);
}

TEST(Yaml, MixedNestingSequenceUnderMappingUnderSequence) {
  auto r = parse(
      "- name: a\n"
      "  items:\n"
      "    - 1\n"
      "    - sub:\n"
      "        - x\n"
      "- name: b\n");
  ASSERT_TRUE(r) << r.error().message;
  ASSERT_TRUE(r->is_sequence());
  const Node& a = r->items()[0];
  EXPECT_EQ(a.get("items")->items()[0].as_i64(), 1);
  EXPECT_EQ(a.get("items")->items()[1].get("sub")->items()[0].scalar(), "x");
  EXPECT_EQ(r->items()[1].get("name")->scalar(), "b");
}

TEST(Yaml, ScalarsWithSpecialCharacters) {
  auto r = parse(
      "path: /a/b-c_d.e\n"
      "expr: a=b\n"
      "neg: -42\n"
      "float: 2.5e3\n");
  ASSERT_TRUE(r);
  EXPECT_EQ(r->get("path")->scalar(), "/a/b-c_d.e");
  EXPECT_EQ(r->get("expr")->scalar(), "a=b");
  EXPECT_EQ(r->get("neg")->as_i64(), -42);
  EXPECT_DOUBLE_EQ(*r->get("float")->as_double(), 2500.0);
}

TEST(Yaml, ColonInsideValueNotASplit) {
  auto r = parse("url: http://host:8080/x\n");
  ASSERT_TRUE(r);
  // find_colon requires ": " or line end; "://" does not split.
  EXPECT_EQ(r->get("url")->scalar(), "http://host:8080/x");
}

TEST(Yaml, WindowsLineEndings) {
  auto r = parse("a: 1\r\nb:\r\n  c: 2\r\n");
  ASSERT_TRUE(r);
  EXPECT_EQ(r->get("b")->get("c")->as_i64(), 2);
}

TEST(Yaml, DeepNestingTenLevels) {
  std::string doc;
  for (int i = 0; i < 10; ++i) {
    doc += std::string(static_cast<std::size_t>(i) * 2, ' ') + "k" +
           std::to_string(i) + ":\n";
  }
  doc += std::string(20, ' ') + "leaf: 1\n";
  auto r = parse(doc);
  ASSERT_TRUE(r) << r.error().message;
  const Node* n = &*r;
  for (int i = 0; i < 10; ++i) {
    n = n->get(std::string("k").append(std::to_string(i)));
    ASSERT_NE(n, nullptr) << i;
  }
  EXPECT_EQ(n->get("leaf")->as_i64(), 1);
}

TEST(YamlErrors, FlowNestingDepthCapped) {
  // Unbounded recursion used to overflow the stack on "a: " + 1 MB of '['.
  auto r = parse("a: " + std::string(1 << 20, '['));
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, util::Errc::parse_error);
  EXPECT_NE(r.error().message.find("yaml:1: nesting deeper than"),
            std::string::npos)
      << r.error().message;
  EXPECT_FALSE(parse("a: " + std::string(1 << 20, '{')));

  // The mapping takes one level, so 255 flow levels fit under it.
  const auto n = static_cast<std::size_t>(kMaxNestingDepth) - 1;
  EXPECT_TRUE(parse("a: " + std::string(n, '[') + std::string(n, ']')));
  EXPECT_FALSE(
      parse("a: " + std::string(n + 1, '[') + std::string(n + 1, ']')));
}

TEST(YamlErrors, BlockNestingDepthCapped) {
  // "- - - ... x" nests one block sequence per dash on a single line.
  std::string dashes;
  for (int i = 0; i < 1 << 19; ++i) dashes += "- ";
  auto r = parse("# deep\n" + dashes + "x\n");
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, util::Errc::parse_error);
  EXPECT_NE(r.error().message.find("yaml:2: nesting deeper than"),
            std::string::npos)
      << r.error().message;

  // Exactly at the cap still parses: kMaxNestingDepth - 1 sequences
  // around the scalar line, which is a block of its own.
  std::string at_cap;
  for (int i = 0; i < kMaxNestingDepth - 1; ++i) at_cap += "- ";
  auto ok = parse(at_cap + "x\n");
  ASSERT_TRUE(ok) << ok.error().message;
  EXPECT_FALSE(parse("- " + at_cap + "x\n"));
}

TEST(Yaml, DumpRendersFlowStyle) {
  auto r = parse("a: [1, x]\nb: {c: 2}\n");
  ASSERT_TRUE(r);
  EXPECT_EQ(r->dump(), "{a: [\"1\", \"x\"], b: {c: \"2\"}}");
}

}  // namespace
}  // namespace fluxion::yaml
