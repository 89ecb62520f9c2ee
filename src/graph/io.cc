#include "graph/io.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "debug/failpoints.h"

namespace repro::graph {

using status::InvalidInput;
using status::IoError;
using status::Status;
using status::StatusOr;

StatusOr<TokenReader> TokenReader::Open(const std::string& path) {
  std::ifstream in(path);
  if (!in) return IoError("cannot open " + path);
  TokenReader reader;
  reader.path_ = path;
  std::string line;
  while (std::getline(in, line)) {
    reader.bytes_ += static_cast<long long>(line.size()) + 1;
    reader.lines_.push_back(line);
  }
  if (in.bad()) return IoError("read failure on " + path);
  return reader;
}

std::string TokenReader::Where() const {
  return path_ + ":line " + std::to_string(token_line_ == 0 ? 1 : token_line_);
}

long long TokenReader::BytesLeft() const {
  return bytes_ - offset_ - static_cast<long long>(pos_);
}

Status TokenReader::NextToken(std::string* token) {
  while (line_ < lines_.size()) {
    const std::string& text = lines_[line_];
    while (pos_ < text.size() &&
           (text[pos_] == ' ' || text[pos_] == '\t' || text[pos_] == '\r')) {
      ++pos_;
    }
    if (pos_ >= text.size()) {
      NextLine();
      continue;
    }
    token_line_ = line_ + 1;
    const size_t start = pos_;
    while (pos_ < text.size() && text[pos_] != ' ' && text[pos_] != '\t' &&
           text[pos_] != '\r') {
      ++pos_;
    }
    *token = text.substr(start, pos_ - start);
    // When only trailing whitespace remains, step onto the next line so
    // ReadLine (the free-form name field) never sees a spent line.
    size_t look = pos_;
    while (look < text.size() &&
           (text[look] == ' ' || text[look] == '\t' || text[look] == '\r')) {
      ++look;
    }
    if (look >= text.size()) NextLine();
    return Status::Ok();
  }
  token_line_ = lines_.size();
  return InvalidInput(Where() + ": unexpected end of file");
}

Status TokenReader::ReadInt(const char* what, long long lo, long long hi,
                            long long* out) {
  std::string token;
  if (!NextToken(&token).ok()) {
    return InvalidInput(Where() + ": missing " + std::string(what));
  }
  char* end = nullptr;
  const long long value = std::strtoll(token.c_str(), &end, 10);
  if (end == token.c_str() || *end != '\0') {
    return InvalidInput(Where() + ": non-numeric " + std::string(what) +
                        " '" + token + "'");
  }
  if (value < lo || value > hi) {
    return InvalidInput(Where() + ": " + std::string(what) + " " + token +
                        " out of range [" + std::to_string(lo) + ", " +
                        std::to_string(hi) + "]");
  }
  *out = value;
  return Status::Ok();
}

Status TokenReader::ReadLine(std::string* out) {
  if (line_ >= lines_.size()) {
    token_line_ = lines_.size();
    return InvalidInput(Where() + ": unexpected end of file");
  }
  std::string text = lines_[line_].substr(pos_);
  token_line_ = line_ + 1;
  NextLine();
  size_t start = 0;
  while (start < text.size() && (text[start] == ' ' || text[start] == '\t')) {
    ++start;
  }
  while (!text.empty() && (text.back() == '\r' || text.back() == ' ')) {
    text.pop_back();
  }
  *out = text.substr(start);
  return Status::Ok();
}

void TokenReader::NextLine() {
  offset_ += static_cast<long long>(lines_[line_].size()) + 1;
  ++line_;
  pos_ = 0;
}

namespace {

// Keeps adversarially large headers from allocating the world before
// any real data is validated.
constexpr long long kMaxNodes = 50'000'000;
constexpr long long kMaxFeatureCells =
    kMaxFeatureMatrixBytes / static_cast<long long>(sizeof(float));

Status ReadSplit(TokenReader* reader, long long num_nodes,
                 const char* what, std::vector<int>* nodes) {
  long long count = 0;
  // Each entry is " v": the file bounds the count (see LoadGraph).
  PEEGA_RETURN_IF_ERROR(
      reader->ReadInt(what, 0, std::min(num_nodes, reader->BytesLeft() / 2),
                      &count),
      "split header");
  nodes->resize(static_cast<size_t>(count));
  for (long long i = 0; i < count; ++i) {
    long long v = 0;
    PEEGA_RETURN_IF_ERROR(
        reader->ReadInt(what, 0, num_nodes - 1, &v), "split entry");
    (*nodes)[static_cast<size_t>(i)] = static_cast<int>(v);
  }
  return Status::Ok();
}

}  // namespace

status::Status SaveGraph(const Graph& g, const std::string& path) {
  if (PEEGA_FAILPOINT("io.write")) {
    return IoError("injected failpoint io.write: " + path);
  }
  if (g.features.rows() != g.num_nodes) {
    return InvalidInput("save graph " + path + ": " +
                        std::to_string(g.features.rows()) +
                        " feature rows for " + std::to_string(g.num_nodes) +
                        " nodes");
  }
  // The file lists the coordinates of X's ones, so any value but 0 or 1
  // is refused before the file is created rather than lost.
  std::vector<std::pair<int, int>> coords;
  for (int v = 0; v < g.num_nodes; ++v) {
    const float* row = g.features.row(v);
    for (int j = 0; j < g.features.cols(); ++j) {
      if (row[j] == 0.0f) continue;
      if (row[j] != 1.0f) {
        return InvalidInput("save graph " + path + ": feature of node " +
                            std::to_string(v) + " column " +
                            std::to_string(j) + " is not 0 or 1");
      }
      coords.emplace_back(v, j);
    }
  }
  std::ofstream out(path);
  if (!out) return IoError("cannot create " + path);
  out << "peega-graph 1\n";
  out << g.name << "\n";
  out << g.num_nodes << " " << g.num_classes << " " << g.features.cols()
      << "\n";
  const auto edges = g.EdgeList();
  out << edges.size() << "\n";
  for (const auto& [u, v] : edges) out << u << " " << v << "\n";
  out << coords.size() << "\n";
  for (const auto& [v, j] : coords) out << v << " " << j << "\n";
  for (int v = 0; v < g.num_nodes; ++v) {
    out << g.labels[v] << (v + 1 == g.num_nodes ? "\n" : " ");
  }
  auto write_split = [&out](const std::vector<int>& nodes) {
    out << nodes.size();
    for (int v : nodes) out << " " << v;
    out << "\n";
  };
  write_split(g.train_nodes);
  write_split(g.val_nodes);
  write_split(g.test_nodes);
  out.flush();
  if (!out) return IoError("write failure on " + path);
  return Status::Ok();
}

status::StatusOr<Graph> LoadGraph(const std::string& path) {
  if (PEEGA_FAILPOINT("io.read")) {
    return IoError("injected failpoint io.read: " + path);
  }
  StatusOr<TokenReader> opened = TokenReader::Open(path);
  if (!opened.ok()) return opened.status().WithContext("load graph");
  TokenReader& reader = *opened;

  std::string magic;
  Status status = reader.NextToken(&magic);
  if (!status.ok()) return status.WithContext("load graph header");
  if (magic != "peega-graph") {
    return InvalidInput(reader.Where() + ": bad magic '" + magic +
                        "', expected 'peega-graph'");
  }
  long long version = 0;
  status = reader.ReadInt("format version", 1, 1, &version);
  if (!status.ok()) return status.WithContext("load graph header");

  Graph loaded;
  status = reader.ReadLine(&loaded.name);
  if (!status.ok()) return status.WithContext("load graph name");

  // Every count is also bounded by what is left of the file, at the
  // fewest bytes one item takes, so a short file cannot size a large
  // allocation: each node has a label ("l "), each edge and each
  // feature coordinate is "u v\n".
  const auto fits = [&reader](long long hi, long long item_bytes) {
    return std::min(hi, reader.BytesLeft() / item_bytes);
  };
  long long num_nodes = 0, num_classes = 0, feature_dim = 0;
  status = reader.ReadInt("node count", 1, fits(kMaxNodes, 2), &num_nodes);
  if (!status.ok()) return status.WithContext("load graph dims");
  status = reader.ReadInt("class count", 1, num_nodes, &num_classes);
  if (!status.ok()) return status.WithContext("load graph dims");
  status = reader.ReadInt("feature dim", 0, kMaxFeatureCells, &feature_dim);
  if (!status.ok()) return status.WithContext("load graph dims");
  if (num_nodes * feature_dim > kMaxFeatureCells) {
    return InvalidInput(
        reader.Where() + ": feature matrix " + std::to_string(num_nodes) +
        " x " + std::to_string(feature_dim) + " needs " +
        std::to_string(num_nodes * feature_dim *
                       static_cast<long long>(sizeof(float))) +
        " bytes, over the " + std::to_string(kMaxFeatureMatrixBytes) +
        "-byte limit");
  }
  loaded.num_nodes = static_cast<int>(num_nodes);
  loaded.num_classes = static_cast<int>(num_classes);

  long long num_edges = 0;
  status = reader.ReadInt("edge count", 0, fits(num_nodes * num_nodes, 4),
                          &num_edges);
  if (!status.ok()) return status.WithContext("load edge list");
  std::vector<std::pair<int, int>> edges(static_cast<size_t>(num_edges));
  for (auto& [u, v] : edges) {
    long long a = 0, b = 0;
    status = reader.ReadInt("edge endpoint", 0, num_nodes - 1, &a);
    if (!status.ok()) return status.WithContext("load edge list");
    status = reader.ReadInt("edge endpoint", 0, num_nodes - 1, &b);
    if (!status.ok()) return status.WithContext("load edge list");
    if (a == b) {
      return InvalidInput(reader.Where() + ": self-loop edge " +
                          std::to_string(a) + " " + std::to_string(b));
    }
    u = static_cast<int>(a);
    v = static_cast<int>(b);
  }
  loaded.adjacency = AdjacencyFromEdges(loaded.num_nodes, edges);

  long long num_coords = 0;
  status = reader.ReadInt(
      "feature coordinate count", 0,
      fits(num_nodes * (feature_dim == 0 ? 1 : feature_dim), 4), &num_coords);
  if (!status.ok()) return status.WithContext("load features");
  loaded.features =
      linalg::Matrix(loaded.num_nodes, static_cast<int>(feature_dim));
  for (long long i = 0; i < num_coords; ++i) {
    long long v = 0, j = 0;
    status = reader.ReadInt("feature node index", 0, num_nodes - 1, &v);
    if (!status.ok()) return status.WithContext("load features");
    status = reader.ReadInt("feature dim index", 0, feature_dim - 1, &j);
    if (!status.ok()) return status.WithContext("load features");
    loaded.features(static_cast<int>(v), static_cast<int>(j)) = 1.0f;
  }

  loaded.labels.resize(static_cast<size_t>(num_nodes));
  for (long long v = 0; v < num_nodes; ++v) {
    long long label = 0;
    status = reader.ReadInt("label", 0, num_classes - 1, &label);
    if (!status.ok()) return status.WithContext("load labels");
    loaded.labels[static_cast<size_t>(v)] = static_cast<int>(label);
  }

  status = ReadSplit(&reader, num_nodes, "train node", &loaded.train_nodes);
  if (!status.ok()) return status.WithContext("load splits");
  status = ReadSplit(&reader, num_nodes, "val node", &loaded.val_nodes);
  if (!status.ok()) return status.WithContext("load splits");
  status = ReadSplit(&reader, num_nodes, "test node", &loaded.test_nodes);
  if (!status.ok()) return status.WithContext("load splits");

  return loaded;
}

}  // namespace repro::graph
