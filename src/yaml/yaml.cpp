#include "yaml/yaml.hpp"

#include <algorithm>
#include <cassert>

#include "util/strings.hpp"

namespace fluxion::yaml {

using util::Errc;

Node Node::make_scalar(std::string s) {
  Node n;
  n.kind_ = Kind::scalar;
  n.scalar_ = std::move(s);
  return n;
}

Node Node::make_sequence(std::vector<Node> items) {
  Node n;
  n.kind_ = Kind::sequence;
  n.items_ = std::move(items);
  return n;
}

Node Node::make_mapping(std::vector<MapEntry> entries) {
  Node n;
  n.kind_ = Kind::mapping;
  n.entries_ = std::move(entries);
  return n;
}

std::optional<std::int64_t> Node::as_i64() const {
  if (!is_scalar()) return std::nullopt;
  return util::parse_i64(scalar_);
}

std::optional<double> Node::as_double() const {
  if (!is_scalar()) return std::nullopt;
  return util::parse_double(scalar_);
}

std::optional<bool> Node::as_bool() const {
  if (!is_scalar()) return std::nullopt;
  if (scalar_ == "true" || scalar_ == "True" || scalar_ == "yes") return true;
  if (scalar_ == "false" || scalar_ == "False" || scalar_ == "no") {
    return false;
  }
  return std::nullopt;
}

std::optional<std::string> Node::as_string() const {
  if (!is_scalar()) return std::nullopt;
  return scalar_;
}

const Node* Node::get(std::string_view key) const {
  if (!is_mapping()) return nullptr;
  for (const auto& [k, v] : entries_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string Node::dump() const {
  switch (kind_) {
    case Kind::null:
      return "null";
    case Kind::scalar:
      return "\"" + scalar_ + "\"";
    case Kind::sequence: {
      std::string out = "[";
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += ", ";
        out += items_[i].dump();
      }
      return out + "]";
    }
    case Kind::mapping: {
      std::string out = "{";
      for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (i > 0) out += ", ";
        out += entries_[i].first + ": " + entries_[i].second.dump();
      }
      return out + "}";
    }
  }
  return "?";
}

namespace {

struct Line {
  std::size_t indent;
  std::string_view text;  // content after indentation, comments stripped
  int lineno;
};

/// Strip a trailing comment: '#' outside quotes, preceded by whitespace or
/// at the start of the content.
std::string_view strip_comment(std::string_view s) {
  char quote = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (quote != 0) {
      if (c == quote) quote = 0;
      continue;
    }
    if (c == '\'' || c == '"') {
      quote = c;
    } else if (c == '#' && (i == 0 || s[i - 1] == ' ' || s[i - 1] == '\t')) {
      return s.substr(0, i);
    }
  }
  return s;
}

class Parser {
 public:
  explicit Parser(std::string_view text) {
    int lineno = 0;
    for (std::string_view raw : util::split_lines(text)) {
      ++lineno;
      if (raw.find('\t') != std::string_view::npos) {
        fail(lineno, "tab character in YAML input");
        return;
      }
      const std::size_t ind = util::indent_of(raw);
      std::string_view content = util::trim(strip_comment(raw.substr(ind)));
      if (content.empty() || content == "---") continue;
      lines_.push_back({ind, content, lineno});
    }
  }

  util::Expected<Node> run() {
    if (failed_) return error_;
    if (lines_.empty()) return Node{};
    Node root = parse_block(lines_[0].indent);
    if (failed_) return error_;
    if (pos_ != lines_.size()) {
      fail(lines_[pos_].lineno, "unexpected de-indented content");
      return error_;
    }
    return root;
  }

 private:
  bool done() const { return pos_ >= lines_.size() || failed_; }
  const Line& cur() const { return lines_[pos_]; }

  void fail(int lineno, std::string msg) {
    if (failed_) return;
    failed_ = true;
    error_ = util::Error{Errc::parse_error,
                         "yaml:" + std::to_string(lineno) + ": " + msg};
  }

  static bool is_dash_item(std::string_view t) {
    return t == "-" || util::starts_with(t, "- ");
  }

  /// Find the key/value split of a mapping entry: a ':' outside quotes
  /// followed by a space or end of content. Returns npos if none.
  static std::size_t find_colon(std::string_view t) {
    char quote = 0;
    int flow_depth = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
      const char c = t[i];
      if (quote != 0) {
        if (c == quote) quote = 0;
        continue;
      }
      switch (c) {
        case '\'':
        case '"':
          quote = c;
          break;
        case '[':
        case '{':
          ++flow_depth;
          break;
        case ']':
        case '}':
          --flow_depth;
          break;
        case ':':
          if (flow_depth == 0 && (i + 1 == t.size() || t[i + 1] == ' ')) {
            return i;
          }
          break;
        default:
          break;
      }
    }
    return std::string_view::npos;
  }

  static std::string unquote(std::string_view s) {
    s = util::trim(s);
    if (s.size() >= 2 &&
        ((s.front() == '\'' && s.back() == '\'') ||
         (s.front() == '"' && s.back() == '"'))) {
      return std::string(s.substr(1, s.size() - 2));
    }
    return std::string(s);
  }

  /// Counts one nesting level for its lifetime; false once past the cap.
  class Nest {
   public:
    explicit Nest(int& depth) : depth_(depth) { ++depth_; }
    ~Nest() { --depth_; }
    bool ok() const { return depth_ <= kMaxNestingDepth; }

   private:
    int& depth_;
  };

  void fail_too_deep(int lineno) {
    fail(lineno, "nesting deeper than " + std::to_string(kMaxNestingDepth) +
                     " levels");
  }

  /// A block of sibling items, all at exactly `indent`.
  Node parse_block(std::size_t indent) {
    if (done()) return Node{};
    if (cur().indent != indent) {
      fail(cur().lineno, "inconsistent indentation");
      return Node{};
    }
    const Nest nest(depth_);
    if (!nest.ok()) {
      fail_too_deep(cur().lineno);
      return Node{};
    }
    if (is_dash_item(cur().text)) return parse_sequence(indent);
    if (find_colon(cur().text) != std::string_view::npos) {
      return parse_mapping(indent);
    }
    // A lone scalar line.
    Node n = parse_inline(cur().text, cur().lineno);
    ++pos_;
    return n;
  }

  Node parse_sequence(std::size_t indent) {
    std::vector<Node> items;
    while (!done() && cur().indent == indent && is_dash_item(cur().text)) {
      const Line line = cur();
      std::string_view rest =
          line.text == "-" ? std::string_view{} : line.text.substr(2);
      const std::size_t skipped = line.text.size() - rest.size();
      rest = util::trim(rest);
      if (rest.empty()) {
        ++pos_;
        // Nested block under the dash, if any, is more indented.
        if (!done() && cur().indent > indent) {
          items.push_back(parse_block(cur().indent));
        } else {
          items.push_back(Node{});
        }
      } else {
        // "- content": content behaves like a line at its own column.
        lines_[pos_].indent = indent + skipped;
        lines_[pos_].text = rest;
        items.push_back(parse_block(indent + skipped));
      }
      if (failed_) return Node{};
    }
    if (!done() && cur().indent > indent) {
      fail(cur().lineno, "bad indentation inside sequence");
      return Node{};
    }
    return Node::make_sequence(std::move(items));
  }

  Node parse_mapping(std::size_t indent) {
    std::vector<MapEntry> entries;
    while (!done() && cur().indent == indent &&
           !is_dash_item(cur().text)) {
      const Line line = cur();
      const std::size_t colon = find_colon(line.text);
      if (colon == std::string_view::npos) {
        fail(line.lineno, "expected 'key: value'");
        return Node{};
      }
      std::string key = unquote(line.text.substr(0, colon));
      if (key.empty()) {
        fail(line.lineno, "empty mapping key");
        return Node{};
      }
      for (const auto& [k, v] : entries) {
        if (k == key) {
          fail(line.lineno, "duplicate mapping key '" + key + "'");
          return Node{};
        }
      }
      std::string_view value = util::trim(line.text.substr(colon + 1));
      ++pos_;
      if (!value.empty()) {
        entries.emplace_back(std::move(key),
                             parse_inline(value, line.lineno));
      } else if (!done() && cur().indent > indent) {
        entries.emplace_back(std::move(key), parse_block(cur().indent));
      } else if (!done() && cur().indent == indent &&
                 is_dash_item(cur().text)) {
        // Block sequences may sit at the same indent as their key.
        entries.emplace_back(std::move(key), parse_sequence(indent));
      } else {
        entries.emplace_back(std::move(key), Node{});
      }
      if (failed_) return Node{};
    }
    return Node::make_mapping(std::move(entries));
  }

  /// Inline value: flow sequence/mapping or scalar.
  Node parse_inline(std::string_view text, int lineno) {
    std::size_t pos = 0;
    Node n = parse_flow(text, pos, lineno);
    if (failed_) return Node{};
    if (util::trim(text.substr(pos)) != "") {
      fail(lineno, "trailing characters after value");
      return Node{};
    }
    return n;
  }

  Node parse_flow(std::string_view text, std::size_t& pos, int lineno) {
    while (pos < text.size() && text[pos] == ' ') ++pos;
    if (pos >= text.size()) return Node{};
    const char c = text[pos];
    const Nest nest(depth_);
    if ((c == '[' || c == '{') && !nest.ok()) {
      fail_too_deep(lineno);
      return Node{};
    }
    if (c == '[') {
      ++pos;
      std::vector<Node> items;
      while (true) {
        while (pos < text.size() && text[pos] == ' ') ++pos;
        if (pos >= text.size()) {
          fail(lineno, "unterminated flow sequence");
          return Node{};
        }
        if (text[pos] == ']') {
          ++pos;
          break;
        }
        items.push_back(parse_flow(text, pos, lineno));
        if (failed_) return Node{};
        while (pos < text.size() && text[pos] == ' ') ++pos;
        if (pos < text.size() && text[pos] == ',') {
          ++pos;
        } else if (pos < text.size() && text[pos] == ']') {
          ++pos;
          break;
        } else {
          fail(lineno, "expected ',' or ']' in flow sequence");
          return Node{};
        }
      }
      return Node::make_sequence(std::move(items));
    }
    if (c == '{') {
      ++pos;
      std::vector<MapEntry> entries;
      while (true) {
        while (pos < text.size() && text[pos] == ' ') ++pos;
        if (pos >= text.size()) {
          fail(lineno, "unterminated flow mapping");
          return Node{};
        }
        if (text[pos] == '}') {
          ++pos;
          break;
        }
        const std::size_t key_start = pos;
        while (pos < text.size() && text[pos] != ':' && text[pos] != '}' &&
               text[pos] != ',') {
          ++pos;
        }
        if (pos >= text.size() || text[pos] != ':') {
          fail(lineno, "expected ':' in flow mapping");
          return Node{};
        }
        std::string key =
            unquote(text.substr(key_start, pos - key_start));
        ++pos;  // ':'
        entries.emplace_back(std::move(key), parse_flow(text, pos, lineno));
        if (failed_) return Node{};
        while (pos < text.size() && text[pos] == ' ') ++pos;
        if (pos < text.size() && text[pos] == ',') {
          ++pos;
        } else if (pos < text.size() && text[pos] == '}') {
          ++pos;
          break;
        } else {
          fail(lineno, "expected ',' or '}' in flow mapping");
          return Node{};
        }
      }
      return Node::make_mapping(std::move(entries));
    }
    if (c == '\'' || c == '"') {
      const char quote = c;
      ++pos;
      const std::size_t start = pos;
      while (pos < text.size() && text[pos] != quote) ++pos;
      if (pos >= text.size()) {
        fail(lineno, "unterminated quoted scalar");
        return Node{};
      }
      std::string s(text.substr(start, pos - start));
      ++pos;
      return Node::make_scalar(std::move(s));
    }
    // Plain scalar: up to a flow delimiter.
    const std::size_t start = pos;
    while (pos < text.size() && text[pos] != ',' && text[pos] != ']' &&
           text[pos] != '}') {
      ++pos;
    }
    std::string s(util::trim(text.substr(start, pos - start)));
    if (s == "~" || s == "null") return Node{};
    return Node::make_scalar(std::move(s));
  }

  std::vector<Line> lines_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  bool failed_ = false;
  util::Error error_;
};

}  // namespace

util::Expected<Node> parse(std::string_view text) {
  return Parser(text).run();
}

}  // namespace fluxion::yaml
