// JGF reader: rebuild a ResourceGraph from a JSON Graph Format document —
// the inverse of writers/jgf.hpp, and what external tools use to hand
// systems to Fluxion (`resource-query --jgf`).
#pragma once

#include <string_view>

#include "graph/resource_graph.hpp"
#include "util/expected.hpp"

namespace fluxion::writers {

/// Parse a JGF document (any JSON formatting) into a fresh graph with the
/// given planning horizon. Vertices keep their names, sizes and
/// properties; containment edges rebuild paths and parents; non-containment
/// edges are restored verbatim. Fails with parse_error / invalid_argument
/// on malformed documents (unknown endpoints, several roots, cycles,
/// containment deeper than graph::kMaxContainmentDepth).
util::Expected<graph::RootedGraph> read_jgf(std::string_view text,
                                            util::TimePoint plan_start,
                                            util::Duration horizon);

}  // namespace fluxion::writers
