#ifndef PEEGA_GRAPH_IO_H_
#define PEEGA_GRAPH_IO_H_

#include <string>
#include <vector>

#include "graph/graph.h"
#include "status/status.h"

namespace repro::graph {

/// Saves a graph to a self-describing text file (header, edge list, the
/// coordinates of the features' ones, labels, splits). Features must be
/// 0 or 1, one row per node: any other value is kInvalidInput naming its
/// node and column, and no file is created. Returns kIoError when the file cannot be
/// created or written.
status::Status SaveGraph(const Graph& g, const std::string& path);

/// Whitespace tokenizer over a text file, read whole up front, for the
/// repo's text formats (graph files and `gg_save_model` files). Every
/// error is kInvalidInput and starts with `Where()`.
class TokenReader {
 public:
  /// kIoError when `path` cannot be read.
  static status::StatusOr<TokenReader> Open(const std::string& path);

  /// "path:line N" of the token just read (the last line at EOF).
  std::string Where() const;
  /// Bytes after the token just read: what a count can still refer to.
  long long BytesLeft() const;
  status::Status NextToken(std::string* token);

  /// The next token as an integer in [lo, hi]; `what` names it in the
  /// error ("node index", "feature dim", ...).
  status::Status ReadInt(const char* what, long long lo, long long hi,
                         long long* out);

  /// Rest of the current line, trimmed (the free-form graph-name line).
  status::Status ReadLine(std::string* out);

 private:
  TokenReader() = default;
  void NextLine();

  std::string path_;
  std::vector<std::string> lines_;
  long long bytes_ = 0;   // file size, one newline per line
  long long offset_ = 0;  // bytes before line `line_`
  size_t line_ = 0;       // 0-based index of the line the next token is on
  size_t pos_ = 0;
  size_t token_line_ = 0;  // 1-based line of the token just read
};

/// Largest dense feature matrix `LoadGraph` allocates: 1 GiB of floats,
/// N·F ≤ 2^28 cells. The sparse format does not back F with bytes, so a
/// short file could otherwise declare a matrix of any size.
inline constexpr long long kMaxFeatureMatrixBytes = 1LL << 30;

/// Loads a graph previously written by `SaveGraph`.
///
/// External input is never trusted: a missing file yields kIoError, and
/// every malformed construct — bad magic, truncated file, non-numeric
/// token, negative/overlarge dimensions, a feature matrix past
/// `kMaxFeatureMatrixBytes`, out-of-range node/feature/label index —
/// yields kInvalidInput with `path:line N:` context pointing at the
/// offending token, before anything is sized by it. This path must stay abort-free (`peega_lint`
/// rejects PEEGA_CHECK on these files).
status::StatusOr<Graph> LoadGraph(const std::string& path);

}  // namespace repro::graph

#endif  // PEEGA_GRAPH_IO_H_
