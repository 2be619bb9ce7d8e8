// Strict JSON parser producing the same Node DOM as the YAML parser, so
// JGF documents (and anything else emitted by writers/) can be read back
// regardless of formatting. Unlike the YAML front end this is not
// line-oriented: arbitrary whitespace, nesting and pretty-printing are
// fine.
#pragma once

#include <string_view>

#include "util/expected.hpp"
#include "yaml/yaml.hpp"

namespace fluxion::yaml {

/// Parse one JSON value (object/array/string/number/bool/null). Errors
/// carry byte offsets. Arrays and objects nest at most kMaxNestingDepth
/// deep.
util::Expected<Node> parse_json(std::string_view text);

}  // namespace fluxion::yaml
