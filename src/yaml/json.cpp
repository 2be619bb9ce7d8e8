#include "yaml/json.hpp"

#include <cctype>
#include <string>

namespace fluxion::yaml {

using util::Errc;

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  util::Expected<Node> run() {
    Node value = parse_value();
    if (failed_) return error_;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after JSON value");
      return error_;
    }
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  void fail(const std::string& msg) {
    if (failed_) return;
    failed_ = true;
    error_ = util::Error{Errc::parse_error,
                         "json:" + std::to_string(pos_) + ": " + msg};
  }

  bool expect(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    fail(std::string("expected '") + c + "'");
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Node parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return Node{};
    }
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      // Containers recurse: cap the depth so "[[[[..." is a parse error,
      // not a stack overflow.
      if (depth_ == kMaxNestingDepth) {
        fail("nesting deeper than " + std::to_string(kMaxNestingDepth) +
             " levels");
        return Node{};
      }
      ++depth_;
      Node n = c == '{' ? parse_object() : parse_array();
      --depth_;
      return n;
    }
    switch (c) {
      case '"': return Node::make_scalar(parse_string());
      case 't':
        if (literal("true")) return Node::make_scalar("true");
        fail("bad literal");
        return Node{};
      case 'f':
        if (literal("false")) return Node::make_scalar("false");
        fail("bad literal");
        return Node{};
      case 'n':
        if (literal("null")) return Node{};
        fail("bad literal");
        return Node{};
      default:
        return parse_number();
    }
  }

  Node parse_object() {
    expect('{');
    std::vector<MapEntry> entries;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return Node::make_mapping(std::move(entries));
    }
    while (!failed_) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        fail("expected string key");
        break;
      }
      std::string key = parse_string();
      if (failed_) break;
      skip_ws();
      if (!expect(':')) break;
      Node value = parse_value();
      if (failed_) break;
      entries.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        break;
      }
      fail("expected ',' or '}'");
    }
    return Node::make_mapping(std::move(entries));
  }

  Node parse_array() {
    expect('[');
    std::vector<Node> items;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return Node::make_sequence(std::move(items));
    }
    while (!failed_) {
      items.push_back(parse_value());
      if (failed_) break;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        break;
      }
      fail("expected ',' or ']'");
    }
    return Node::make_sequence(std::move(items));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              fail("bad \\u escape");
              return out;
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                fail("bad \\u escape");
                return out;
              }
            }
            // Basic-multilingual-plane UTF-8 encoding; surrogate pairs are
            // out of scope for resource metadata.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            fail("unknown escape");
            return out;
        }
      } else {
        out += c;
      }
    }
    fail("unterminated string");
    return out;
  }

  Node parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected a value");
      return Node{};
    }
    return Node::make_scalar(std::string(text_.substr(start, pos_ - start)));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  bool failed_ = false;
  util::Error error_;
};

}  // namespace

util::Expected<Node> parse_json(std::string_view text) {
  return JsonParser(text).run();
}

}  // namespace fluxion::yaml
