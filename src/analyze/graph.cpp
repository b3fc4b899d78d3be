#include "analyze/graph.h"

#include <algorithm>
#include <iterator>
#include <sstream>

namespace hicc::analyze {
namespace {

// Collapses "a/./b" and "a/x/../b" segments.
std::string normalize(const std::string& path) {
  std::vector<std::string> parts;
  std::string cur;
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (cur == "..") {
        if (!parts.empty()) parts.pop_back();
      } else if (!cur.empty() && cur != ".") {
        parts.push_back(cur);
      }
      cur.clear();
    } else {
      cur.push_back(path[i]);
    }
  }
  std::string out;
  for (const std::string& p : parts) {
    if (!out.empty()) out.push_back('/');
    out += p;
  }
  return out;
}

std::string dirname_of(const std::string& path) {
  std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? "" : path.substr(0, slash);
}

std::string resolve(const std::string& from, const std::string& target,
                    const std::map<std::string, SourceFile>& files) {
  // Build include path: -I src (the CMake convention), then quoted
  // lookup relative to the including file, then root-relative.
  std::string cand = normalize("src/" + target);
  if (files.count(cand)) return cand;
  std::string dir = dirname_of(from);
  cand = normalize(dir.empty() ? target : dir + "/" + target);
  if (files.count(cand)) return cand;
  cand = normalize(target);
  if (files.count(cand)) return cand;
  return "";
}

}  // namespace

void IncludeGraph::build(const std::map<std::string, SourceFile>& files) {
  for (const auto& [path, sf] : files) {
    for (const IncludeDirective& inc : sf.includes) {
      IncludeEdge e;
      e.from = path;
      e.target = inc.target;
      e.resolved = resolve(path, inc.target, files);
      e.line = inc.line;
      e.col = inc.col;
      edges_.push_back(e);
      if (!e.resolved.empty()) {
        adj_[path].push_back(e.resolved);
        edge_pos_[path].emplace(e.resolved, std::make_pair(inc.line, inc.col));
      }
    }
  }
  for (auto& [from, outs] : adj_) {
    std::sort(outs.begin(), outs.end());
    outs.erase(std::unique(outs.begin(), outs.end()), outs.end());
  }
}

std::vector<IncludeCycle> IncludeGraph::find_cycles() const {
  std::vector<IncludeCycle> cycles;
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  std::vector<std::string> stack;

  // Iterative DFS so deep include chains cannot overflow the C stack.
  struct Frame {
    std::string node;
    std::size_t next = 0;
  };
  std::vector<std::string> roots;
  roots.reserve(adj_.size());
  for (const auto& [node, outs] : adj_) roots.push_back(node);

  for (const std::string& root : roots) {
    if (color[root] != 0) continue;
    std::vector<Frame> frames;
    frames.push_back({root, 0});
    color[root] = 1;
    stack.push_back(root);
    while (!frames.empty()) {
      Frame& f = frames.back();
      auto it = adj_.find(f.node);
      const std::vector<std::string>* outs = it == adj_.end() ? nullptr : &it->second;
      if (outs == nullptr || f.next >= outs->size()) {
        color[f.node] = 2;
        stack.pop_back();
        frames.pop_back();
        continue;
      }
      const std::string& to = (*outs)[f.next++];
      int c = color[to];
      if (c == 1) {
        // Back edge f.node -> to: the cycle is the stack from `to` down.
        IncludeCycle cyc;
        auto at = std::find(stack.begin(), stack.end(), to);
        cyc.path.assign(at, stack.end());
        cyc.at_file = f.node;
        auto pos = edge_pos_.at(f.node).at(to);
        cyc.line = pos.first;
        cyc.col = pos.second;
        cycles.push_back(std::move(cyc));
        continue;
      }
      if (c == 0) {
        color[to] = 1;
        stack.push_back(to);
        frames.push_back({to, 0});
      }
    }
  }
  return cycles;
}

std::set<std::string> LayerDag::allowed(const std::string& mod, bool transitive) const {
  std::set<std::string> out = {mod, "common"};
  const auto& table = transitive ? closure : direct;
  auto it = table.find(mod);
  if (it != table.end()) out.insert(it->second.begin(), it->second.end());
  return out;
}

std::string parse_layer_dag(const std::string& design_md, LayerDag* out) {
  const std::string open = "```layer-dag\n";
  const std::size_t begin = design_md.find(open);
  if (begin == std::string::npos) return "no ```layer-dag block";
  const std::size_t end = design_md.find("```", begin + open.size());
  if (end == std::string::npos) return "the ```layer-dag block is not closed";
  *out = LayerDag{};
  std::istringstream block(design_md.substr(begin + open.size(), end - begin - open.size()));
  std::string line;
  std::string prev;
  while (std::getline(block, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const std::size_t colon = line.find(':');
    const std::string mod = line.substr(0, colon);
    if (colon == std::string::npos || mod.empty() ||
        mod.find_first_of(" \t") != std::string::npos) {
      return "line '" + line + "' is not 'module: dep dep ...'";
    }
    std::istringstream words(line.substr(colon + 1));
    std::vector<std::string> deps(std::istream_iterator<std::string>(words), {});
    if (!prev.empty() && mod <= prev) {
      return "module '" + mod + "' is out of order (modules must be sorted and unique)";
    }
    if (!std::is_sorted(deps.begin(), deps.end()) ||
        std::adjacent_find(deps.begin(), deps.end()) != deps.end()) {
      return "the deps of '" + mod + "' are not sorted";
    }
    out->direct[mod].insert(deps.begin(), deps.end());
    prev = mod;
  }
  for (const auto& [mod, deps] : out->direct) {
    for (const std::string& d : deps) {
      if (!out->has(d)) return "'" + mod + "' depends on unknown module '" + d + "'";
    }
  }
  for (const auto& [mod, deps] : out->direct) {
    // DFS over allowed-dependency edges.
    std::set<std::string>& reach = out->closure[mod];
    std::vector<std::string> stack(deps.begin(), deps.end());
    while (!stack.empty()) {
      std::string next = stack.back();
      stack.pop_back();
      if (!reach.insert(next).second) continue;
      const std::set<std::string>& more = out->direct.at(next);
      stack.insert(stack.end(), more.begin(), more.end());
    }
  }
  return "";
}

}  // namespace hicc::analyze
