#pragma once

#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace gnnerator::util {

/// Parses RFC-4180 CSV text into rows of cells: quoted cells may contain
/// commas, doubled quotes and embedded newlines; CRLF, LF and lone-CR line
/// endings all work (an unquoted CR never vanishes from the middle of a
/// cell — it ends the row); a trailing newline does not produce an empty
/// row; a trailing comma produces an empty final cell. The inverse of
/// CsvWriter (round-trips its output), and the in-memory reference for
/// CsvStreamReader's dialect. Throws CheckError on an unterminated quoted
/// cell.
[[nodiscard]] std::vector<std::vector<std::string>> parse_csv(std::string_view text);

/// Incremental CSV reader: same dialect as parse_csv (RFC-4180 quoting,
/// CRLF/LF/lone-CR row endings, trailing-newline and trailing-comma
/// behaviour — the util tests diff the two parsers on the tricky corpus),
/// but the file is consumed in fixed-size chunks, so memory stays bounded
/// by one chunk plus the current row no matter how long the trace is.
/// Quoted cells may span chunk boundaries. Throws CheckError on I/O
/// failure or an unterminated quoted cell.
class CsvStreamReader {
 public:
  explicit CsvStreamReader(const std::string& path, std::size_t chunk_bytes = 64 * 1024);

  /// The next row, or nullopt once the file is exhausted.
  [[nodiscard]] std::optional<std::vector<std::string>> next_row();

  [[nodiscard]] std::size_t rows_read() const { return rows_; }

  /// High-water mark of bytes buffered at once (chunk + partial row) — the
  /// bounded-memory regression tests assert this stays orders of magnitude
  /// under the file size.
  [[nodiscard]] std::size_t peak_buffer_bytes() const { return peak_buffer_bytes_; }

 private:
  /// Parser state between characters; mirrors parse_csv's inline state.
  enum class State { kDefault, kInQuotes, kQuoteSeen, kCrSeen };

  /// Feeds one character; returns true when it completed a row (now staged
  /// in done_row_).
  bool feed(char c);
  /// Flushes the final unterminated row at EOF; returns true if a row was
  /// staged.
  bool finish();
  void end_cell();
  [[nodiscard]] std::size_t buffered_bytes() const;

  std::ifstream in_;
  std::string path_;
  std::vector<char> chunk_;
  std::size_t chunk_pos_ = 0;
  std::size_t chunk_len_ = 0;
  bool eof_flushed_ = false;

  State state_ = State::kDefault;
  bool cell_started_ = false;
  std::string cell_;
  std::vector<std::string> row_;
  std::vector<std::string> done_row_;

  std::size_t rows_ = 0;
  std::size_t peak_buffer_bytes_ = 0;
};

/// Minimal CSV writer (RFC-4180 quoting) used by examples and the benchmark
/// harness to dump sweep results for offline plotting.
class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> header);

  /// Appends a data row; must match the header arity.
  void add_row(const std::vector<std::string>& cells);

  [[nodiscard]] std::size_t num_rows() const { return rows_; }

  /// Serialises header + rows.
  [[nodiscard]] std::string to_string() const;

  /// Writes to a file; throws CheckError on I/O failure.
  void write_file(const std::string& path) const;

  /// Quotes a single cell per RFC 4180 (only when needed).
  static std::string escape(const std::string& cell);

 private:
  std::size_t columns_;
  std::size_t rows_ = 0;
  std::ostringstream body_;

  void emit_row(const std::vector<std::string>& cells);
};

}  // namespace gnnerator::util
