// JSON Graph Format (JGF) writer for the resource graph store.
//
// Fluxion serialises resource graphs — whole systems or matched subsets —
// as JGF so external tools can consume them. Each vertex carries the
// metadata flux-sched emits: type, basename, name, id, uniq_id, rank,
// size, exclusivity and its containment paths; each edge carries its
// subsystem and relation name.
#pragma once

#include "graph/resource_graph.hpp"
#include "traverser/traverser.hpp"
#include "writers/json.hpp"

namespace fluxion::writers {

/// Serialise the whole (live) graph.
Json graph_to_jgf(const graph::ResourceGraph& g);

/// Serialise only the vertices a match selected, plus the containment
/// edges between selected vertices and their selected ancestors.
Json match_to_jgf(const graph::ResourceGraph& g,
                  const traverser::MatchResult& result);

}  // namespace fluxion::writers
