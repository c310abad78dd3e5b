#include "graph/io.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace ampc::graph {
namespace {

constexpr uint64_t kBinaryMagic = 0x414d504347524148ULL;  // "AMPCGRAH"

Status OpenFailure(const std::string& path) {
  return Status::IoError("cannot open file: " + path);
}

// Node ids run below this count; kInvalidNode itself is reserved.
constexpr uint64_t kMaxNodes = kInvalidNode;

Status CheckNodeCount(uint64_t n, const std::string& path) {
  if (n <= kMaxNodes) return Status::OK();
  return Status::InvalidArgument("node count " + std::to_string(n) +
                                 " exceeds the 32-bit NodeId range: " + path);
}

Status CheckNodeIds(int64_t u, int64_t v, const std::string& path,
                    int64_t line_no) {
  if (static_cast<uint64_t>(std::max(u, v)) < kMaxNodes) return Status::OK();
  return Status::InvalidArgument("node id beyond the 32-bit NodeId range at " +
                                 path + ":" + std::to_string(line_no));
}

}  // namespace

StatusOr<EdgeList> ReadEdgeListText(const std::string& path) {
  std::ifstream in(path);
  if (!in) return OpenFailure(path);
  EdgeList list;
  int64_t declared_nodes = -1;
  int64_t max_id = -1;
  std::string line;
  int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream hs(line.substr(1));
      std::string word;
      if (hs >> word && word == "nodes") {
        hs >> declared_nodes;
        if (declared_nodes > 0) {
          AMPC_RETURN_IF_ERROR(CheckNodeCount(declared_nodes, path));
        }
      }
      continue;
    }
    std::istringstream ls(line);
    int64_t u, v;
    if (!(ls >> u >> v) || u < 0 || v < 0) {
      return Status::InvalidArgument("bad edge at " + path + ":" +
                                     std::to_string(line_no));
    }
    AMPC_RETURN_IF_ERROR(CheckNodeIds(u, v, path, line_no));
    max_id = std::max({max_id, u, v});
    list.edges.push_back(
        Edge{static_cast<NodeId>(u), static_cast<NodeId>(v)});
  }
  list.num_nodes = declared_nodes >= 0 ? declared_nodes : max_id + 1;
  if (max_id >= list.num_nodes) {
    return Status::InvalidArgument("edge id exceeds declared node count in " +
                                   path);
  }
  return list;
}

StatusOr<WeightedEdgeList> ReadWeightedEdgeListText(const std::string& path) {
  std::ifstream in(path);
  if (!in) return OpenFailure(path);
  WeightedEdgeList list;
  int64_t declared_nodes = -1;
  int64_t max_id = -1;
  std::string line;
  int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream hs(line.substr(1));
      std::string word;
      if (hs >> word && word == "nodes") {
        hs >> declared_nodes;
        if (declared_nodes > 0) {
          AMPC_RETURN_IF_ERROR(CheckNodeCount(declared_nodes, path));
        }
      }
      continue;
    }
    std::istringstream ls(line);
    int64_t u, v;
    double w;
    if (!(ls >> u >> v >> w) || u < 0 || v < 0) {
      return Status::InvalidArgument("bad weighted edge at " + path + ":" +
                                     std::to_string(line_no));
    }
    AMPC_RETURN_IF_ERROR(CheckNodeIds(u, v, path, line_no));
    max_id = std::max({max_id, u, v});
    list.edges.push_back(WeightedEdge{static_cast<NodeId>(u),
                                      static_cast<NodeId>(v), w,
                                      static_cast<EdgeId>(list.edges.size())});
  }
  list.num_nodes = declared_nodes >= 0 ? declared_nodes : max_id + 1;
  if (max_id >= list.num_nodes) {
    return Status::InvalidArgument("edge id exceeds declared node count in " +
                                   path);
  }
  return list;
}

Status WriteEdgeListText(const EdgeList& list, const std::string& path) {
  std::ofstream out(path);
  if (!out) return OpenFailure(path);
  out << "# nodes " << list.num_nodes << "\n";
  for (const Edge& e : list.edges) out << e.u << " " << e.v << "\n";
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Status WriteWeightedEdgeListText(const WeightedEdgeList& list,
                                 const std::string& path) {
  std::ofstream out(path);
  if (!out) return OpenFailure(path);
  out << "# nodes " << list.num_nodes << "\n";
  for (const WeightedEdge& e : list.edges) {
    out << e.u << " " << e.v << " " << e.w << "\n";
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Status WriteEdgeListBinary(const EdgeList& list, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return OpenFailure(path);
  const uint64_t magic = kBinaryMagic;
  const uint64_t n = static_cast<uint64_t>(list.num_nodes);
  const uint64_t m = list.edges.size();
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(reinterpret_cast<const char*>(&m), sizeof(m));
  out.write(reinterpret_cast<const char*>(list.edges.data()),
            static_cast<std::streamsize>(m * sizeof(Edge)));
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

StatusOr<EdgeList> ReadEdgeListBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return OpenFailure(path);
  uint64_t magic = 0, n = 0, m = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  in.read(reinterpret_cast<char*>(&m), sizeof(m));
  if (!in || magic != kBinaryMagic) {
    return Status::InvalidArgument("not an AMPC binary edge list: " + path);
  }
  // Check the header's edge count against the bytes that follow before
  // allocating, so a corrupt count cannot demand an absurd allocation.
  const std::streamoff header_end = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff file_end = in.tellg();
  in.seekg(header_end);
  if (!in || file_end < header_end ||
      m > static_cast<uint64_t>(file_end - header_end) / sizeof(Edge)) {
    return Status::InvalidArgument("edge count " + std::to_string(m) +
                                   " exceeds file size: " + path);
  }
  AMPC_RETURN_IF_ERROR(CheckNodeCount(n, path));
  EdgeList list;
  list.num_nodes = static_cast<int64_t>(n);
  list.edges.resize(m);
  in.read(reinterpret_cast<char*>(list.edges.data()),
          static_cast<std::streamsize>(m * sizeof(Edge)));
  if (!in) return Status::IoError("truncated binary edge list: " + path);
  for (const Edge& e : list.edges) {
    if (e.u >= n || e.v >= n) {
      return Status::InvalidArgument(
          "edge (" + std::to_string(e.u) + ", " + std::to_string(e.v) +
          ") beyond node count " + std::to_string(n) + ": " + path);
    }
  }
  return list;
}

}  // namespace ampc::graph
