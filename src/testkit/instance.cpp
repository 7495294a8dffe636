#include "testkit/instance.h"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "exp/workload.h"
#include "failures/cascade.h"
#include "failures/gilbert_elliott.h"
#include "failures/node_failure.h"
#include "failures/srlg.h"
#include "graph/generators.h"
#include "tomo/monitors.h"
#include "util/rng.h"

namespace rnt::testkit {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  // SplitMix64 finalizer over seed + salt * golden-gamma.
  std::uint64_t z = seed + salt * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

TestInstance make_instance(std::vector<std::vector<std::uint32_t>> path_links,
                           std::vector<double> link_probs,
                           std::vector<double> path_costs,
                           std::uint64_t check_seed, std::string origin) {
  if (path_links.size() != path_costs.size()) {
    throw std::invalid_argument("make_instance: paths/costs size mismatch");
  }
  const std::size_t links = link_probs.size();
  std::vector<tomo::ProbePath> paths;
  std::unordered_map<graph::NodeId, double> access;
  paths.reserve(path_links.size());
  for (std::size_t i = 0; i < path_links.size(); ++i) {
    std::vector<std::uint32_t> ls = path_links[i];
    std::sort(ls.begin(), ls.end());
    ls.erase(std::unique(ls.begin(), ls.end()), ls.end());
    if (ls.empty()) {
      throw std::invalid_argument("make_instance: path with no links");
    }
    if (ls.back() >= links) {
      throw std::invalid_argument("make_instance: link id out of range");
    }
    path_links[i] = ls;
    tomo::ProbePath p;
    p.source = static_cast<graph::NodeId>(2 * i);
    p.destination = static_cast<graph::NodeId>(2 * i + 1);
    p.links = std::move(ls);
    p.hops = p.links.size();
    p.routing_weight = static_cast<double>(p.hops);
    // Hop weight 0 + a private source monitor carrying the whole cost
    // encodes an arbitrary PC(q) exactly through the CostModel.
    access[p.source] = path_costs[i];
    paths.push_back(std::move(p));
  }
  TestInstance inst{std::move(path_links),
                    std::move(link_probs),
                    std::move(path_costs),
                    check_seed,
                    std::move(origin),
                    tomo::PathSystem(links, std::move(paths)),
                    failures::FailureModel({}),
                    tomo::CostModel(0.0, std::move(access))};
  inst.model = failures::FailureModel(inst.link_probs);
  return inst;
}

TestInstance from_workload(const exp::Workload& workload,
                           std::uint64_t check_seed) {
  std::vector<std::vector<std::uint32_t>> path_links;
  std::vector<double> costs;
  path_links.reserve(workload.system->path_count());
  costs.reserve(workload.system->path_count());
  for (std::size_t i = 0; i < workload.system->path_count(); ++i) {
    const tomo::ProbePath& p = workload.system->path(i);
    path_links.push_back(p.links);
    costs.push_back(workload.costs.path_cost(p));
  }
  std::ostringstream origin;
  origin << "workload(" << workload.topology_name
         << ", seed=" << workload.seed << ")";
  return make_instance(std::move(path_links),
                       workload.failures->probabilities(), std::move(costs),
                       check_seed, origin.str());
}

namespace {

/// Draws per-link failure probabilities from one of seven families.  The
/// graph is needed by the node and cascade families, whose marginals carry
/// the incidence structure of the instance's topology.
std::vector<double> draw_link_probs(const graph::Graph& g, Rng& rng) {
  const std::size_t links = g.edge_count();
  const std::size_t family = rng.index(7);
  std::vector<double> p(links);
  switch (family) {
    case 0: {  // Uniform: every link the same probability.
      const double q = rng.uniform(0.02, 0.3);
      std::fill(p.begin(), p.end(), q);
      break;
    }
    case 1: {  // Independent per-link draws.
      for (double& x : p) x = rng.uniform(0.01, 0.4);
      break;
    }
    case 2: {  // Markopoulou power-law (the paper's model), rescaled.
      Rng sub = rng.fork();
      const failures::FailureModel m =
          failures::markopoulou_model(links, sub, rng.uniform(1.0, 8.0));
      p = m.probabilities();
      break;
    }
    case 3: {  // Gilbert-Elliott stationary marginals.
      std::vector<double> stationary(links);
      for (double& x : stationary) x = rng.uniform(0.02, 0.3);
      failures::GilbertElliottModel ge(stationary, rng.uniform(1.5, 4.0),
                                       rng.fork());
      p = ge.stationary_model().probabilities();
      break;
    }
    case 4: {  // SRLG marginals over a light background.
      std::vector<double> background(links);
      for (double& x : background) x = rng.uniform(0.005, 0.1);
      Rng sub = rng.fork();
      // Disjoint groups: group_count * group_size must fit in the links.
      const std::size_t size =
          std::min<std::size_t>(2 + rng.index(3), links);
      const std::size_t groups = 1 + rng.index(std::max<std::size_t>(
                                         links / size, std::size_t{1}));
      const failures::SrlgModel srlg = failures::make_random_srlg_model(
          failures::FailureModel(background), groups, size,
          rng.uniform(0.02, 0.2), sub);
      p = srlg.marginal_model().probabilities();
      break;
    }
    case 5: {  // Node-failure marginals: nodes down their incident links.
      std::vector<double> background(links);
      for (double& x : background) x = rng.uniform(0.005, 0.1);
      std::vector<double> node_probs(g.node_count());
      for (double& x : node_probs) x = rng.uniform(0.01, 0.2);
      const failures::NodeFailureModel node =
          failures::NodeFailureModel::from_graph(
              g, failures::FailureModel(background), std::move(node_probs));
      p = node.marginal_model().probabilities();
      break;
    }
    default: {  // Cascade marginals: seeds spread to adjacent links.
      std::vector<double> seeds(links);
      for (double& x : seeds) x = rng.uniform(0.01, 0.2);
      const failures::CascadeModel cascade = failures::CascadeModel::from_graph(
          g, failures::FailureModel(seeds), rng.uniform(0.1, 0.6),
          rng.uniform(0.2, 0.8));
      if (links <= 20) {
        p = cascade.marginal_model().probabilities();
      } else {  // Custom bounds can exceed the exact-sum guard.
        Rng sub = rng.fork();
        p = cascade.approx_marginal_model(512, sub).probabilities();
      }
      break;
    }
  }
  for (double& x : p) x = std::clamp(x, 0.0, 0.95);
  return p;
}

/// One materialization attempt; returns false for a degenerate draw.
bool try_generate(std::uint64_t attempt_seed, const SpecBounds& bounds,
                  TestInstance* out) {
  Rng rng(attempt_seed);
  const std::size_t nodes =
      bounds.min_nodes +
      rng.index(bounds.max_nodes - bounds.min_nodes + 1);

  // Edge draws are capped by both the oracle bound and the complete graph.
  const std::size_t complete = nodes * (nodes - 1) / 2;
  const std::size_t link_cap = std::min(bounds.max_links, complete);

  graph::Graph g(0);
  switch (rng.index(3)) {
    case 0: {
      const std::size_t max_extra =
          link_cap > nodes - 1 ? link_cap - (nodes - 1) : 0;
      const std::size_t links = (nodes - 1) + rng.index(max_extra + 1);
      g = graph::connected_erdos_renyi(nodes, links, rng,
                                       graph::WeightModel::kUniformInteger);
      break;
    }
    case 1:
      g = graph::barabasi_albert(nodes, 1, rng,
                                 graph::WeightModel::kUniformInteger);
      break;
    default: {
      const std::size_t max_chords = link_cap > nodes ? link_cap - nodes : 0;
      g = graph::ring_with_chords(nodes, rng.index(max_chords + 1), rng,
                                  graph::WeightModel::kUniformInteger);
      break;
    }
  }
  if (g.edge_count() < 2 || g.edge_count() > bounds.max_links) return false;

  const std::size_t target =
      bounds.min_paths +
      rng.index(bounds.max_paths - bounds.min_paths + 1);
  tomo::MonitorSet monitors;
  const tomo::PathSystem raw =
      tomo::build_path_system(g, target, rng, &monitors);
  if (raw.path_count() < 2) return false;

  std::vector<std::vector<std::uint32_t>> path_links;
  std::vector<double> costs;
  const bool unit_costs = rng.bernoulli(0.5);
  for (std::size_t i = 0; i < raw.path_count(); ++i) {
    path_links.push_back(raw.path(i).links);
    if (unit_costs) {
      costs.push_back(1.0);
    } else {
      // Paper-style heterogeneous cost: linear in hops plus 0/300 access
      // per endpoint monitor.
      costs.push_back(100.0 * static_cast<double>(raw.path(i).hops) +
                      (rng.bernoulli(0.5) ? 300.0 : 0.0) +
                      (rng.bernoulli(0.5) ? 300.0 : 0.0));
    }
  }

  std::vector<double> probs = draw_link_probs(g, rng);
  std::ostringstream origin;
  origin << "generated(seed=" << attempt_seed << ")";
  *out = make_instance(std::move(path_links), std::move(probs),
                       std::move(costs), mix_seed(attempt_seed, 0x5eed),
                       origin.str());
  return true;
}

/// Links and paths of one minor-6 gadget.
constexpr std::size_t kGadgetLinks = 7;
constexpr std::size_t kGadgetPaths = 7;

/// The minor-6 family.  A triangle {a,b},{b,c},{a,c} (3x3 minor 2) and the
/// complement of the identity on four more links, {e,f,g},{d,f,g},
/// {d,e,g},{d,e,f} (4x4 minor -3), together give seven rows whose 7x7
/// minor is -6: dependent over GF(2) and over GF(3), yet rationally
/// independent.  Whichever gadget an accumulator's add order completes
/// first desyncs one field of the sliced kernel's lane; the other
/// gadget's last row then reduces to zero in the only field still synced,
/// so the lane is ambiguous and the float fallback must answer
/// "independent".  Link ids are permuted, up to three random paths over
/// all links are mixed in, and path order is shuffled.
TestInstance generate_minor6(std::uint64_t seed, const SpecBounds& bounds) {
  Rng rng(seed);
  const std::size_t extra_links = rng.index(
      std::min<std::size_t>(bounds.max_links - kGadgetLinks, 3) + 1);
  const std::size_t links = kGadgetLinks + extra_links;
  std::vector<std::uint32_t> id(links);
  for (std::size_t l = 0; l < links; ++l) id[l] = static_cast<std::uint32_t>(l);
  rng.shuffle(id);
  std::vector<std::vector<std::uint32_t>> path_links = {
      {id[0], id[1]}, {id[1], id[2]}, {id[0], id[2]},
      {id[4], id[5], id[6]}, {id[3], id[5], id[6]},
      {id[3], id[4], id[6]}, {id[3], id[4], id[5]}};
  const std::size_t extra_paths = rng.index(
      std::min<std::size_t>(bounds.max_paths - kGadgetPaths, 3) + 1);
  for (std::size_t p = 0; p < extra_paths; ++p) {
    std::vector<std::uint32_t> path;
    const std::size_t hops = 2 + rng.index(3);
    for (std::size_t h = 0; h < hops; ++h) {
      path.push_back(static_cast<std::uint32_t>(rng.index(links)));
    }
    path_links.push_back(std::move(path));  // make_instance dedups links.
  }
  rng.shuffle(path_links);
  std::vector<double> probs(links);
  for (double& x : probs) x = rng.uniform(0.01, 0.2);
  std::vector<double> costs(path_links.size(), 1.0);
  if (rng.bernoulli(0.5)) {
    for (double& c : costs) c = rng.uniform(1.0, 4.0);
  }
  std::ostringstream origin;
  origin << "minor6(seed=" << seed << ")";
  return make_instance(std::move(path_links), std::move(probs),
                       std::move(costs), mix_seed(seed, 0x5eed), origin.str());
}

/// Salt of the per-case draw that picks the minor-6 family.
constexpr std::uint64_t kFamilySalt = 0x6d696e6f7236ULL;  // "minor6"

}  // namespace

TestInstance generate_instance(std::uint64_t case_seed,
                               const SpecBounds& bounds) {
  if (bounds.min_nodes < 3 || bounds.max_nodes < bounds.min_nodes ||
      bounds.min_paths < 2 || bounds.max_paths < bounds.min_paths) {
    throw std::invalid_argument("generate_instance: malformed bounds");
  }
  // One case in eight is a minor-6 instance when the bounds hold one; the
  // draw has its own stream, so every other case is unchanged.
  const std::uint64_t family = mix_seed(case_seed, kFamilySalt);
  if (family % 8 == 0 && bounds.max_links >= kGadgetLinks &&
      bounds.max_paths >= kGadgetPaths) {
    return generate_minor6(family, bounds);
  }
  TestInstance inst;
  for (std::uint64_t attempt = 0; attempt < 64; ++attempt) {
    if (try_generate(mix_seed(case_seed, attempt), bounds, &inst)) {
      return inst;
    }
  }
  throw std::runtime_error(
      "generate_instance: no valid instance after 64 attempts (bounds too "
      "tight?)");
}

void write_repro(std::ostream& out, const std::string& check,
                 const TestInstance& instance, const std::string& message) {
  out << "# rnt fuzz repro v1\n";
  out << "check " << check << "\n";
  out << "seed " << instance.check_seed << "\n";
  out << "links " << instance.link_count() << "\n";
  out.precision(17);
  out << "probs";
  for (double p : instance.link_probs) out << " " << p;
  out << "\n";
  for (std::size_t i = 0; i < instance.path_count(); ++i) {
    out << "path " << instance.path_costs[i];
    for (std::uint32_t l : instance.path_links[i]) out << " " << l;
    out << "\n";
  }
  if (!message.empty()) {
    // Message lines are comments: informative on read-back, never parsed.
    std::istringstream lines(message);
    std::string l;
    while (std::getline(lines, l)) out << "# " << l << "\n";
  }
}

Repro read_repro(std::istream& in) {
  Repro repro;
  std::uint64_t seed = 0;
  std::size_t links = 0;
  bool have_links = false;
  std::vector<double> probs;
  std::vector<std::vector<std::uint32_t>> paths;
  std::vector<double> costs;

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    const auto fail = [&](const std::string& why) {
      throw std::runtime_error("read_repro: " + why + " at line " +
                               std::to_string(line_no));
    };
    if (key == "check") {
      if (!(fields >> repro.check)) fail("missing check name");
    } else if (key == "seed") {
      if (!(fields >> seed)) fail("bad seed");
    } else if (key == "links") {
      if (!(fields >> links)) fail("bad link count");
      have_links = true;
    } else if (key == "probs") {
      double p;
      while (fields >> p) probs.push_back(p);
      if (!have_links || probs.size() != links) fail("probs/links mismatch");
    } else if (key == "path") {
      double cost;
      if (!(fields >> cost)) fail("bad path cost");
      std::vector<std::uint32_t> ls;
      std::uint32_t l;
      while (fields >> l) ls.push_back(l);
      if (ls.empty()) fail("path with no links");
      paths.push_back(std::move(ls));
      costs.push_back(cost);
    } else {
      fail("unknown key '" + key + "'");
    }
  }
  if (repro.check.empty()) {
    throw std::runtime_error("read_repro: missing check name");
  }
  if (paths.empty()) throw std::runtime_error("read_repro: no paths");
  repro.instance = make_instance(std::move(paths), std::move(probs),
                                 std::move(costs), seed, "repro");
  return repro;
}

Repro load_repro(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_repro: cannot open " + path);
  return read_repro(in);
}

void save_repro(const std::string& path, const std::string& check,
                const TestInstance& instance, const std::string& message) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_repro: cannot create " + path);
  write_repro(out, check, instance, message);
}

}  // namespace rnt::testkit
