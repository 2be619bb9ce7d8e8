#include "writers/jgf_reader.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "yaml/json.hpp"

namespace fluxion::writers {

using util::Errc;

namespace {

struct VertexSpec {
  std::string jgf_id;
  std::string type;
  std::string basename;
  std::string name;
  std::int64_t size = 1;
  std::int64_t uniq_id = 0;
  graph::ResourceStatus status = graph::ResourceStatus::up;
  std::map<std::string, std::string> properties;
};

struct EdgeSpec {
  std::string source;
  std::string target;
  std::string subsystem;
  std::string relation;
};

util::Expected<VertexSpec> parse_vertex(const yaml::Node& n) {
  VertexSpec spec;
  const yaml::Node* id = n.get("id");
  const yaml::Node* meta = n.get("metadata");
  if (id == nullptr || !id->is_scalar() || meta == nullptr ||
      !meta->is_mapping()) {
    return util::Error{Errc::invalid_argument,
                       "jgf: node needs id and metadata"};
  }
  spec.jgf_id = id->scalar();
  const yaml::Node* type = meta->get("type");
  if (type == nullptr || !type->is_scalar()) {
    return util::Error{Errc::invalid_argument, "jgf: node needs a type"};
  }
  spec.type = type->scalar();
  spec.basename = meta->get("basename") != nullptr
                      ? meta->get("basename")->scalar()
                      : spec.type;
  spec.name =
      meta->get("name") != nullptr ? meta->get("name")->scalar() : spec.jgf_id;
  if (const yaml::Node* size = meta->get("size")) {
    auto v = size->as_i64();
    if (!v || *v < 0) {
      return util::Error{Errc::invalid_argument, "jgf: bad size"};
    }
    spec.size = *v;
  }
  if (const yaml::Node* uid = meta->get("uniq_id")) {
    spec.uniq_id = uid->as_i64().value_or(0);
  }
  if (const yaml::Node* status = meta->get("status")) {
    // Absent means up; anything else must name a known status.
    std::optional<graph::ResourceStatus> parsed;
    if (status->is_scalar()) parsed = graph::parse_status(status->scalar());
    if (!parsed) {
      return util::Error{Errc::invalid_argument,
                         "jgf: unknown status '" +
                             (status->is_scalar() ? status->scalar()
                                                  : std::string("?")) +
                             "' (want up|down|drained)"};
    }
    spec.status = *parsed;
  }
  if (const yaml::Node* props = meta->get("properties")) {
    if (!props->is_mapping()) {
      return util::Error{Errc::invalid_argument, "jgf: bad properties"};
    }
    for (const auto& [k, v] : props->entries()) {
      spec.properties[k] = v.scalar();
    }
  }
  return spec;
}

}  // namespace

util::Expected<JgfGraph> read_jgf(std::string_view text,
                                  util::TimePoint plan_start,
                                  util::Duration horizon) {
  auto doc = yaml::parse_json(text);
  if (!doc) return doc.error();
  const yaml::Node* graph_node = doc->get("graph");
  if (graph_node == nullptr) {
    return util::Error{Errc::invalid_argument, "jgf: missing 'graph'"};
  }
  const yaml::Node* nodes = graph_node->get("nodes");
  const yaml::Node* edges = graph_node->get("edges");
  if (nodes == nullptr || !nodes->is_sequence()) {
    return util::Error{Errc::invalid_argument, "jgf: missing 'nodes'"};
  }

  std::vector<VertexSpec> specs;
  for (const yaml::Node& n : nodes->items()) {
    auto spec = parse_vertex(n);
    if (!spec) return spec.error();
    specs.push_back(std::move(*spec));
  }
  // Insert in uniq_id order so policy orderings survive the round trip.
  std::stable_sort(specs.begin(), specs.end(),
                   [](const VertexSpec& a, const VertexSpec& b) {
                     return a.uniq_id < b.uniq_id;
                   });

  JgfGraph out;
  out.graph = std::make_unique<graph::ResourceGraph>(plan_start, horizon);
  graph::ResourceGraph& g = *out.graph;
  std::unordered_map<std::string, graph::VertexId> by_jgf_id;
  for (const VertexSpec& spec : specs) {
    if (by_jgf_id.contains(spec.jgf_id)) {
      return util::Error{Errc::invalid_argument,
                         "jgf: duplicate node id '" + spec.jgf_id + "'"};
    }
    const auto v =
        g.add_vertex_named(spec.type, spec.basename, spec.name, spec.size);
    g.vertex(v).properties.insert(spec.properties.begin(),
                                  spec.properties.end());
    // Apply before containment edges exist: no ancestor filters or
    // non_up_below counts to reconcile yet (add_containment folds the
    // child's status in when edges arrive).
    if (spec.status != graph::ResourceStatus::up) {
      if (auto st = g.set_status(v, spec.status); !st) return st.error();
    }
    by_jgf_id.emplace(spec.jgf_id, v);
  }

  if (edges != nullptr && edges->is_sequence()) {
    for (const yaml::Node& e : edges->items()) {
      EdgeSpec spec;
      const yaml::Node* src = e.get("source");
      const yaml::Node* dst = e.get("target");
      if (src == nullptr || dst == nullptr) {
        return util::Error{Errc::invalid_argument,
                           "jgf: edge needs source and target"};
      }
      spec.source = src->scalar();
      spec.target = dst->scalar();
      if (const yaml::Node* meta = e.get("metadata")) {
        if (const yaml::Node* ss = meta->get("subsystem")) {
          spec.subsystem = ss->scalar();
        }
        if (const yaml::Node* rel = meta->get("relation")) {
          spec.relation = rel->scalar();
        }
      }
      if (spec.subsystem.empty()) spec.subsystem = "containment";
      if (spec.relation.empty()) spec.relation = "contains";
      auto s = by_jgf_id.find(spec.source);
      auto t = by_jgf_id.find(spec.target);
      if (s == by_jgf_id.end() || t == by_jgf_id.end()) {
        // Name the offending endpoint(s): "unknown node" alone is useless
        // against a machine-generated JGF with thousands of edges.
        std::string msg = "jgf: edge '" + spec.source + "' -> '" +
                          spec.target + "' references unknown node";
        if (s == by_jgf_id.end()) msg += " '" + spec.source + "'";
        if (t == by_jgf_id.end()) {
          msg += s == by_jgf_id.end() ? " and '" : " '";
          msg += spec.target + "'";
        }
        return util::Error{Errc::invalid_argument, msg};
      }
      if (spec.subsystem == "containment") {
        if (spec.relation == "contains") {
          if (auto st = g.add_containment(s->second, t->second); !st) {
            // Name the edge, as for unknown endpoints above.
            std::string msg =
                "jgf: edge '" + spec.source + "' -> '" + spec.target + "' ";
            msg += st.error().code == Errc::exists
                       ? "gives '" + spec.target +
                             "' a second containment parent"
                       : "would form a containment cycle";
            return util::Error{st.error().code, msg};
          }
        }
        // "in" edges are recreated by add_containment; skip them.
      } else {
        if (auto st = g.add_edge(s->second, t->second,
                                 g.intern_subsystem(spec.subsystem),
                                 g.intern_relation(spec.relation));
            !st) {
          return st.error();
        }
      }
    }
  }

  // Locate the root: the unique vertex without a containment parent.
  // add_containment refuses cycles, so a non-empty graph always has one.
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v) {
    if (g.vertex(v).containment_parent == graph::kInvalidVertex) {
      if (out.root != graph::kInvalidVertex) {
        return util::Error{Errc::invalid_argument,
                           "jgf: multiple containment roots"};
      }
      out.root = v;
    }
  }
  return out;
}

}  // namespace fluxion::writers
