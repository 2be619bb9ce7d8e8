// Minimal YAML-subset parser for Flux canonical jobspecs (paper §4.2).
//
// Supported (the subset jobspecs and recipes use):
//   * block mappings and sequences nested by indentation (spaces only)
//   * "- key: value" compact sequence-of-mapping items
//   * flow sequences [a, b] and flow mappings {k: v}
//   * plain / 'single' / "double" scalars, # comments, --- document marker
//
// Out of scope (rejected or ignored deliberately): anchors/aliases, tags,
// multi-document streams, block scalars (| and >), tabs for indentation.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/expected.hpp"

namespace fluxion::yaml {

class Node;
using MapEntry = std::pair<std::string, Node>;

/// A parsed YAML node: null, scalar, sequence, or mapping. Mappings keep
/// insertion order; lookups are linear (documents here are tiny).
class Node {
 public:
  enum class Kind { null, scalar, sequence, mapping };

  Node() = default;
  static Node make_scalar(std::string s);
  static Node make_sequence(std::vector<Node> items);
  static Node make_mapping(std::vector<MapEntry> entries);

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::null; }
  bool is_scalar() const noexcept { return kind_ == Kind::scalar; }
  bool is_sequence() const noexcept { return kind_ == Kind::sequence; }
  bool is_mapping() const noexcept { return kind_ == Kind::mapping; }

  /// Raw scalar text (unquoted). Empty for non-scalars.
  const std::string& scalar() const noexcept { return scalar_; }

  /// Typed scalar accessors; nullopt when the node is not a scalar of the
  /// requested shape.
  std::optional<std::int64_t> as_i64() const;
  std::optional<double> as_double() const;
  std::optional<bool> as_bool() const;
  std::optional<std::string> as_string() const;

  const std::vector<Node>& items() const noexcept { return items_; }
  const std::vector<MapEntry>& entries() const noexcept { return entries_; }
  std::size_t size() const noexcept {
    return is_sequence() ? items_.size() : entries_.size();
  }

  /// Mapping lookup; nullptr when absent or not a mapping.
  const Node* get(std::string_view key) const;
  bool has(std::string_view key) const { return get(key) != nullptr; }

  /// Debug rendering (flow style), used in tests and error messages.
  std::string dump() const;

 private:
  Kind kind_ = Kind::null;
  std::string scalar_;
  std::vector<Node> items_;
  std::vector<MapEntry> entries_;
};

/// Deepest container nesting either parser accepts. Parsing recurses
/// once per level, so the cap keeps adversarial input ("[[[[...",
/// "- - - ...") a parse error rather than a stack overflow; real
/// jobspecs and JGF documents nest a few dozen levels at most.
inline constexpr int kMaxNestingDepth = 256;

/// Parse one YAML document. Errors carry 1-based line numbers. Block and
/// flow containers together nest at most kMaxNestingDepth deep.
util::Expected<Node> parse(std::string_view text);

}  // namespace fluxion::yaml
