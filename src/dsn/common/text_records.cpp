#include "dsn/common/text_records.hpp"

#include <charconv>
#include <istream>
#include <utility>

#include "dsn/common/error.hpp"

namespace dsn {

namespace {

constexpr std::string_view kBlanks = " \t\r\v\f";

std::vector<std::string> split_fields(std::string_view text) {
  std::vector<std::string> fields;
  for (std::size_t at = text.find_first_not_of(kBlanks); at != std::string_view::npos;) {
    const std::size_t end = text.find_first_of(kBlanks, at);
    fields.emplace_back(text.substr(at, end - at));
    at = text.find_first_not_of(kBlanks, end);
  }
  return fields;
}

}  // namespace

TextRecord::TextRecord(std::string_view format, std::size_t lineno, std::string text)
    : format_(format), lineno_(lineno), text_(std::move(text)), fields_(split_fields(text_)) {}

void TextRecord::refuse(std::string_view expected, std::string_view problem) const {
  std::string msg = problem.empty() ? "malformed " : std::string(problem) + " on ";
  msg.append(format_).append(" line ").append(std::to_string(lineno_)).append(": ");
  msg.append(text_).append(" (expected ").append(expected).append(")");
  throw PreconditionError(msg);
}

std::uint64_t TextRecord::unsigned_field(std::size_t i, std::string_view name,
                                         std::uint64_t max) const {
  const std::string& f = fields_[i];
  std::uint64_t value = 0;
  const auto [end, ec] = std::from_chars(f.data(), f.data() + f.size(), value);
  if (ec == std::errc::invalid_argument || end != f.data() + f.size()) {
    refuse(std::string(name) + " as an unsigned decimal");
  }
  if (ec == std::errc::result_out_of_range || value > max) {
    refuse(std::string(name) + " <= " + std::to_string(max));
  }
  return value;
}

void for_each_record(std::istream& is, std::string_view format, std::string_view layout,
                     std::size_t lines_read,
                     const std::function<void(const TextRecord&)>& on_record) {
  const std::size_t num_fields = split_fields(layout).size();
  std::string expected(1, '"');
  expected.append(layout).push_back('"');
  std::size_t lineno = lines_read;
  for (std::string line; std::getline(is, line);) {
    ++lineno;
    const std::size_t first = line.find_first_not_of(kBlanks);
    if (first == std::string::npos || line[first] == '#') continue;
    const TextRecord record(format, lineno, std::move(line));
    if (record.size() != num_fields) record.refuse(expected);
    on_record(record);
  }
}

}  // namespace dsn
