#include "fabric.h"

#include <cstdlib>
#include <set>
#include <sstream>

#include "util/error.h"

namespace dnabench {

namespace topo = dna::topo;

FatTree::FatTree(const dna::topo::Snapshot& snapshot, int k) : k_(k) {
  const topo::Topology& topology = snapshot.topology;
  DNA_CHECK_MSG(static_cast<int>(topology.num_nodes()) == num_nodes(),
                "snapshot is not a k=" + std::to_string(k) + " fat-tree");
  for (int node = 0; node < num_nodes(); ++node) {
    names_.push_back(topology.node_name(static_cast<topo::NodeId>(node)));
  }
  uplinks_.resize(num_nodes());
  const auto tier = [&](int node) { return is_edge(node) ? 0 : is_agg(node) ? 1 : 2; };
  for (uint32_t index = 0; index < topology.num_links(); ++index) {
    const topo::Link& link = topology.link(index);
    const int a = static_cast<int>(link.a);
    const int b = static_cast<int>(link.b);
    const auto add_up = [&](int lower, int upper) {
      const auto* iface = snapshot.configs[upper].find_interface(
          link.if_of(static_cast<topo::NodeId>(upper)));
      DNA_CHECK(iface != nullptr);
      uplinks_[lower].emplace_back(index, iface->address.str());
    };
    if (tier(a) + 1 == tier(b)) add_up(a, b);
    if (tier(b) + 1 == tier(a)) add_up(b, a);
  }
}

std::string FatTree::gateway(int edge) {
  return "172.31." + std::to_string(edge) + ".1";
}

std::string FatTree::host_prefix(int edge) {
  return "172.31." + std::to_string(edge) + ".0/24";
}

size_t FatTree::sweep_size(const dna::topo::Snapshot& snapshot,
                           const std::string& node) {
  size_t ports = 0;
  for (const auto& iface : snapshot.config_of(node).interfaces) {
    if (iface.enabled && iface.name != "lo") ++ports;
  }
  return ports;
}

std::vector<Read> make_reads(const FatTree& fabric, dna::Rng& rng, size_t count,
                             bool with_paths) {
  std::vector<Read> reads;
  reads.reserve(count);
  const auto any_node = [&] { return static_cast<int>(rng.below(fabric.num_nodes())); };
  const auto any_edge = [&] { return static_cast<int>(rng.below(fabric.num_edges())); };
  for (size_t i = 0; i < count; ++i) {
    Read read;
    const uint64_t pick = rng.below(20);
    read.dst_edge = any_edge();
    if (pick < (with_paths ? 9u : 16u)) {
      read.kind = Read::Kind::kReach;
      read.src = any_node();
      read.line = "reach " + fabric.name(read.src) + " " +
                  FatTree::gateway(read.dst_edge);
    } else if (with_paths && pick < 18) {
      read.kind = Read::Kind::kPaths;
      read.src = any_edge();
      read.line = "paths " + fabric.name(read.src) + " " +
                  FatTree::gateway(read.dst_edge);
    } else if (pick == 18) {
      read.kind = Read::Kind::kLoopFree;
      read.line = "check loopfree";
    } else {
      read.kind = Read::Kind::kReachable;
      read.src = any_edge();
      if (read.src == read.dst_edge) {
        read.dst_edge = (read.dst_edge + 1) % fabric.num_edges();
      }
      read.line = "check reachable " + fabric.name(read.src) + " " +
                  fabric.name(read.dst_edge) + " " +
                  FatTree::host_prefix(read.dst_edge);
    }
    reads.push_back(std::move(read));
  }
  return reads;
}

std::string check_read(const FatTree& fabric, const Read& read,
                       const std::string& body) {
  switch (read.kind) {
    case Read::Kind::kReach: {
      const std::string want =
          "reachable true owner " + fabric.name(read.dst_edge);
      return body == want ? "" : "expected '" + want + "'";
    }
    case Read::Kind::kLoopFree:
    case Read::Kind::kReachable:
      return body.rfind("holds true | ", 0) == 0 ? "" : "expected holds true";
    case Read::Kind::kPaths:
      break;
  }
  const bool same_switch = read.src == read.dst_edge;
  const bool same_pod =
      fabric.pod_of_edge(read.src) == fabric.pod_of_edge(read.dst_edge);
  const size_t want_paths =
      same_switch ? 1
      : same_pod  ? static_cast<size_t>(fabric.half())
                  : static_cast<size_t>(fabric.half() * fabric.half());
  const size_t want_hops = same_switch ? 0 : same_pod ? 2 : 4;
  const std::string head = fabric.name(read.src);
  const std::string tail = fabric.name(read.dst_edge) + " [delivered]";
  std::set<std::string> distinct;
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    size_t hops = 0;
    for (size_t at = line.find(" -> "); at != std::string::npos;
         at = line.find(" -> ", at + 4)) {
      ++hops;
    }
    if (hops != want_hops) return "path '" + line + "' has wrong hop count";
    if (line.rfind(head + " ", 0) != 0 ||
        line.size() < tail.size() ||
        line.compare(line.size() - tail.size(), tail.size(), tail) != 0) {
      return "path '" + line + "' does not run " + head + " .. " + tail;
    }
    distinct.insert(line);
  }
  if (distinct.size() != want_paths) {
    return "expected " + std::to_string(want_paths) + " distinct paths, got " +
           std::to_string(distinct.size());
  }
  return "";
}

NarrowChanges::NarrowChanges(const FatTree& fabric, uint64_t seed)
    : fabric_(fabric), rng_(seed) {}

std::string NarrowChanges::next_commit() {
  const int kind = step_++ % 4;
  const auto pool = [&] { return std::to_string(rng_.below(16)); };
  const auto any_node = [&] {
    return fabric_.name(static_cast<int>(rng_.below(fabric_.num_nodes())));
  };
  switch (kind) {
    case 0: {
      // Edge or aggregation switch, next hop one tier up: never a loop.
      const int node = static_cast<int>(
          rng_.below(fabric_.num_edges() + fabric_.num_aggs()));
      const auto& up = fabric_.uplinks(node);
      const auto& [link, next_hop] = up[rng_.below(up.size())];
      return "static_route " + fabric_.name(node) + " 10.250." + pool() +
             ".0/24 " + next_hop;
    }
    case 1:
      return "acl_block " + any_node() + " 192.168." + pool() + ".0/24";
    case 2:
      announced_ = any_node() + " 192.169." + pool() + ".0/24";
      return "announce " + announced_;
    default:
      return "withdraw " + announced_;
  }
}

std::string NarrowChanges::next_whatif() {
  const int dst = static_cast<int>(rng_.below(fabric_.num_edges()));
  const int node = static_cast<int>(
      rng_.below(fabric_.num_edges() + fabric_.num_aggs()));
  if (rng_.below(2) == 0) {
    return "whatif acl_block " + fabric_.name(node) + " " +
           FatTree::host_prefix(dst);
  }
  const auto& up = fabric_.uplinks(node);
  return "whatif static_route " + fabric_.name(node) + " " +
         FatTree::host_prefix(dst) + " " + up[rng_.below(up.size())].second;
}

RoutingChanges::RoutingChanges(const FatTree& fabric,
                               const dna::topo::Snapshot& base, uint64_t seed)
    : base_(base), rng_(seed) {
  for (uint32_t index = 0; index < base.topology.num_links(); ++index) {
    const topo::Link& link = base.topology.link(index);
    const bool edge_link = fabric.is_edge(static_cast<int>(link.a)) ||
                           fabric.is_edge(static_cast<int>(link.b));
    (edge_link ? edge_links_ : core_links_).push_back(index);
  }
}

uint32_t RoutingChanges::pick(bool edge_tier) {
  const std::vector<uint32_t>& links = edge_tier ? edge_links_ : core_links_;
  return links[rng_.below(links.size())];
}

std::vector<std::string> RoutingChanges::next_round() {
  // Alternate which tier gets the cost change and which the failure, so
  // every two rounds cover both kinds of link for both kinds of change.
  const bool cost_on_edge = round_++ % 2 == 0;
  const uint32_t cost_link = pick(cost_on_edge);
  const uint32_t fail_link = pick(!cost_on_edge);
  const topo::Link& link = base_.topology.link(cost_link);
  const int base_cost =
      base_.configs[link.a].find_interface(link.a_if)->ospf_cost;
  const int cost = base_cost + static_cast<int>(rng_.range(1, 40));
  const std::string x = std::to_string(cost_link);
  const std::string y = std::to_string(fail_link);
  return {"link_cost " + x + " " + std::to_string(cost), "fail_link " + y,
          "recover_link " + y, "link_cost " + x + " " + std::to_string(base_cost)};
}

std::string RoutingChanges::next_whatif() {
  return "whatif fail_link " + std::to_string(pick(whatifs_++ % 2 == 0));
}

std::string rejected_change(uint64_t index) {
  return index % 2 == 0 ? "fail_link 4096"
                        : "acl_block nosuchswitch 10.99.0.0/16";
}

const std::vector<std::pair<std::string, std::string>>& bad_input_probes() {
  static const std::vector<std::pair<std::string, std::string>> probes = {
      {"whatif fail_link 99999", "99999"},
      {"reach nosuchswitch 172.31.0.1", "nosuchswitch"},
  };
  return probes;
}

bool probe_answer_is_typed(const std::string& body, const std::string& token) {
  for (const char* leak : {"std::", "_M_", "DNA_CHECK", ".cc:", ".h:"}) {
    if (body.find(leak) != std::string::npos) return false;
  }
  return body.find(token) != std::string::npos;
}

long long json_uint(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = body.find(needle);
  if (at == std::string::npos) return -1;
  return std::strtoll(body.c_str() + at + needle.size(), nullptr, 10);
}

}  // namespace dnabench
