// The k-ary fat-tree every dnabench workload runs on: its geometry, the
// seeded op streams drawn from it, and the oracles that check answers
// against the fabric's structure rather than against stored output.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "topo/snapshot.h"
#include "util/rng.h"

namespace dnabench {

/// Node roles of topo::make_fattree(k): ids [0, k²/2) are edge switches
/// (pod = id / (k/2)), the next k²/2 are aggregation switches, the last
/// (k/2)² are cores. Edge switch e owns host network 172.31.e.0/24 with
/// gateway 172.31.e.1.
class FatTree {
 public:
  FatTree(const dna::topo::Snapshot& snapshot, int k);

  int half() const { return k_ / 2; }
  int num_edges() const { return k_ * half(); }
  int num_aggs() const { return k_ * half(); }
  int num_nodes() const { return num_edges() + num_aggs() + half() * half(); }
  bool is_edge(int node) const { return node < num_edges(); }
  bool is_agg(int node) const {
    return node >= num_edges() && node < num_edges() + num_aggs();
  }
  int pod_of_edge(int edge) const { return edge / half(); }
  const std::string& name(int node) const { return names_.at(node); }
  static std::string gateway(int edge);
  static std::string host_prefix(int edge);

  /// Links from `node` one tier up (edge -> agg, agg -> core), each with
  /// the upper end's interface address: a next hop that cannot loop back.
  const std::vector<std::pair<uint32_t, std::string>>& uplinks(int node) const {
    return uplinks_.at(node);
  }
  /// Scenarios a `node:<name>` risk sweep must evaluate: the node's enabled
  /// non-loopback interfaces in `snapshot`.
  static size_t sweep_size(const dna::topo::Snapshot& snapshot,
                           const std::string& node);

 private:
  int k_;
  std::vector<std::string> names_;
  std::vector<std::vector<std::pair<uint32_t, std::string>>> uplinks_;
};

/// One read of a workload's read set, with what the oracle needs.
struct Read {
  enum class Kind { kReach, kPaths, kLoopFree, kReachable };
  Kind kind = Kind::kReach;
  int src = 0;       // node id
  int dst_edge = 0;  // edge switch whose gateway / host prefix is targeted
  std::string line;  // the query text
};

/// A seeded read set. `with_paths` adds `paths` reads (valid only where
/// the committed changes leave host forwarding untouched).
std::vector<Read> make_reads(const FatTree& fabric, dna::Rng& rng, size_t count,
                             bool with_paths);

/// Checks a read's answer against the fat-tree's structure: every host
/// gateway is reachable from every switch, `paths` from edge e to edge d's
/// gateway lists 1, k/2 or (k/2)² distinct delivered paths of 0, 2 or 4
/// hops (same switch, same pod, other pod), and no loop exists. Returns ""
/// when the answer holds, else what is wrong.
std::string check_read(const FatTree& fabric, const Read& read,
                       const std::string& body);

/// Narrow changes (the paper's headline case): each touches one node and
/// leaves 172.31/16 forwarding intact. Commits cycle through
///   static_route <edge|agg> 10.250.<p>.0/24 <uplink peer>   (loop-free)
///   acl_block <node> 192.168.<p>.0/24
///   announce / withdraw <node> 192.169.<p>.0/24             (a pair)
/// so the config stays bounded except for the static routes, which
/// topo::with_static_route only appends.
class NarrowChanges {
 public:
  NarrowChanges(const FatTree& fabric, uint64_t seed);
  std::string next_commit();
  /// A narrow what-if that does touch host forwarding (never committed):
  /// an ACL or a static route for some edge's host prefix.
  std::string next_whatif();

 private:
  const FatTree& fabric_;
  dna::Rng rng_;
  int step_ = 0;
  std::string announced_;  // "<node> <prefix>" awaiting its withdraw
};

/// Routing changes. A round is a link-cost change and its restore around a
/// paired fail/recover of another link, so each round ends where it began
/// and nothing drifts; what-ifs fail one link. Links are drawn alternately
/// from the edge tier (edge-aggregation) and the core tier
/// (aggregation-core), whose changes differ in cost, so every run sees
/// the same mix whatever the seed.
class RoutingChanges {
 public:
  RoutingChanges(const FatTree& fabric, const dna::topo::Snapshot& base,
                 uint64_t seed);
  std::vector<std::string> next_round();
  std::string next_whatif();

 private:
  uint32_t pick(bool edge_tier);

  const dna::topo::Snapshot& base_;
  dna::Rng rng_;
  std::vector<uint32_t> edge_links_;
  std::vector<uint32_t> core_links_;
  uint64_t round_ = 0;
  uint64_t whatifs_ = 0;
};

/// A commit the service must refuse: alternately an out-of-range link and
/// an unknown node. Seed-independent.
std::string rejected_change(uint64_t index);

/// The bad-input probes: requests a typed boundary should refuse with a
/// message naming the bad token (the second element).
const std::vector<std::pair<std::string, std::string>>& bad_input_probes();

/// True when a refusal is typed: ok=false and the body names the bad token
/// without leaking C++ internals (std::, _M_, DNA_CHECK, a source path).
bool probe_answer_is_typed(const std::string& body, const std::string& token);

/// Reads an unsigned integer field `"key":N` out of a JSON body; -1 when
/// absent.
long long json_uint(const std::string& body, const std::string& key);

}  // namespace dnabench
