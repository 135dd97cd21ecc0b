#include "util/csv.hpp"

#include <algorithm>
#include <fstream>

#include "util/check.hpp"

namespace gnnerator::util {

std::vector<std::vector<std::string>> parse_csv(std::string_view text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string cell;
  bool in_quotes = false;
  bool cell_started = false;  // distinguishes a final "" cell from no cell

  const auto end_cell = [&] {
    row.push_back(std::move(cell));
    cell.clear();
    cell_started = false;
  };
  const auto end_row = [&] {
    end_cell();
    rows.push_back(std::move(row));
    row.clear();
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          cell += '"';  // escaped quote
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cell += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        cell_started = true;
        break;
      case ',':
        cell_started = true;  // the comma implies a cell on both sides
        end_cell();
        break;
      case '\r':
        // CRLF ends the row (consuming the '\n'); a lone CR (classic-Mac
        // line endings) ends the row too instead of silently vanishing
        // from the middle of a cell.
        if (i + 1 < text.size() && text[i + 1] == '\n') {
          ++i;
        }
        end_row();
        break;
      case '\n':
        end_row();
        break;
      default:
        cell += c;
        cell_started = true;
        break;
    }
  }
  GNNERATOR_CHECK_MSG(!in_quotes, "CSV ends inside a quoted cell");
  if (cell_started || !row.empty()) {
    end_row();  // final row without a trailing newline
  }
  return rows;
}

CsvStreamReader::CsvStreamReader(const std::string& path, std::size_t chunk_bytes)
    : in_(path, std::ios::binary), path_(path) {
  GNNERATOR_CHECK_MSG(in_.good(), "cannot open " << path << " for reading");
  chunk_.resize(std::max<std::size_t>(chunk_bytes, 1));
}

std::size_t CsvStreamReader::buffered_bytes() const {
  std::size_t row_bytes = cell_.size();
  for (const std::string& cell : row_) {
    row_bytes += cell.size();
  }
  return chunk_.size() + row_bytes;
}

void CsvStreamReader::end_cell() {
  row_.push_back(std::move(cell_));
  cell_.clear();
  cell_started_ = false;
}

bool CsvStreamReader::feed(char c) {
  if (state_ == State::kCrSeen) {
    state_ = State::kDefault;
    if (c == '\n') {
      return false;  // the LF of a CRLF; its row already ended
    }
    // fall through: process c as the first character after the row break
  } else if (state_ == State::kQuoteSeen) {
    if (c == '"') {
      cell_ += '"';  // escaped quote
      state_ = State::kInQuotes;
      return false;
    }
    state_ = State::kDefault;  // the quote closed the cell; process c below
  } else if (state_ == State::kInQuotes) {
    if (c == '"') {
      state_ = State::kQuoteSeen;
    } else {
      cell_ += c;
    }
    return false;
  }
  switch (c) {
    case '"':
      state_ = State::kInQuotes;
      cell_started_ = true;
      return false;
    case ',':
      cell_started_ = true;  // the comma implies a cell on both sides
      peak_buffer_bytes_ = std::max(peak_buffer_bytes_, buffered_bytes());
      end_cell();
      return false;
    case '\r':
      state_ = State::kCrSeen;
      end_cell();
      done_row_ = std::move(row_);
      row_.clear();
      return true;
    case '\n':
      end_cell();
      done_row_ = std::move(row_);
      row_.clear();
      return true;
    default:
      cell_ += c;
      cell_started_ = true;
      return false;
  }
}

bool CsvStreamReader::finish() {
  GNNERATOR_CHECK_MSG(state_ != State::kInQuotes, "CSV ends inside a quoted cell");
  if (!cell_started_ && row_.empty()) {
    return false;  // trailing newline: no final row
  }
  end_cell();
  done_row_ = std::move(row_);
  row_.clear();
  return true;
}

std::optional<std::vector<std::string>> CsvStreamReader::next_row() {
  for (;;) {
    while (chunk_pos_ < chunk_len_) {
      if (feed(chunk_[chunk_pos_++])) {
        ++rows_;
        return std::move(done_row_);
      }
    }
    if (eof_flushed_) {
      return std::nullopt;
    }
    in_.read(chunk_.data(), static_cast<std::streamsize>(chunk_.size()));
    GNNERATOR_CHECK_MSG(!in_.bad(), "read failed for " << path_);
    chunk_len_ = static_cast<std::size_t>(in_.gcount());
    chunk_pos_ = 0;
    peak_buffer_bytes_ = std::max(peak_buffer_bytes_, buffered_bytes());
    if (chunk_len_ == 0) {
      eof_flushed_ = true;
      if (finish()) {
        ++rows_;
        return std::move(done_row_);
      }
      return std::nullopt;
    }
  }
}

CsvWriter::CsvWriter(std::vector<std::string> header) : columns_(header.size()) {
  GNNERATOR_CHECK(columns_ > 0);
  emit_row(header);
  rows_ = 0;  // header is not a data row
}

void CsvWriter::add_row(const std::vector<std::string>& cells) {
  GNNERATOR_CHECK_MSG(cells.size() == columns_,
                      "CSV row arity " << cells.size() << " != " << columns_);
  emit_row(cells);
  ++rows_;
}

std::string CsvWriter::to_string() const { return body_.str(); }

void CsvWriter::write_file(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  GNNERATOR_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  out << body_.str();
  GNNERATOR_CHECK_MSG(out.good(), "write failed for " << path);
}

std::string CsvWriter::escape(const std::string& cell) {
  const bool needs_quotes =
      cell.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) {
    return cell;
  }
  std::string quoted = "\"";
  for (char c : cell) {
    if (c == '"') {
      quoted += "\"\"";
    } else {
      quoted += c;
    }
  }
  quoted += '"';
  return quoted;
}

void CsvWriter::emit_row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    body_ << escape(cells[i]);
    body_ << (i + 1 == cells.size() ? "\n" : ",");
  }
}

}  // namespace gnnerator::util
