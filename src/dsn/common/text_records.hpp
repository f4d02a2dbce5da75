// The one record loop behind the line-oriented text formats (edge lists,
// injection traces, fault schedules). A bad line throws PreconditionError
// carrying only the format, line number, line text and what was expected,
// e.g. `malformed trace line 1: 5 0 1 junk (expected "cycle src dst")`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace dsn {

/// One line of a text format, split into its blank-separated fields.
class TextRecord {
 public:
  /// `format` names the format in messages and must outlive the record (the
  /// parsers pass string literals).
  TextRecord(std::string_view format, std::size_t lineno, std::string text);

  std::size_t size() const { return fields_.size(); }
  const std::string& field(std::size_t i) const { return fields_[i]; }

  /// Throws "malformed <format> line <N>: <text> (expected <expected>)", or
  /// "<problem> on <format> line <N>: ..." when a problem is named.
  [[noreturn]] void refuse(std::string_view expected, std::string_view problem = {}) const;

  /// Field `i` as a plain unsigned decimal (digits only) no larger than `max`.
  std::uint64_t unsigned_field(std::size_t i, std::string_view name, std::uint64_t max) const;

  /// Field `i` as the one of `values` that `name_of` spells like it.
  template <class E, std::size_t N>
  E word_field(std::size_t i, std::string_view what, const E (&values)[N],
               const char* (*name_of)(E)) const {
    std::string spellings;
    for (std::size_t k = 0; k < N; ++k) {
      if (fields_[i] == name_of(values[k])) return values[k];
      spellings += k == 0 ? "" : k + 1 < N ? ", " : " or ";
      spellings += name_of(values[k]);
    }
    refuse(spellings, "unknown " + std::string(what) + " '" + fields_[i] + "'");
  }

 private:
  std::string_view format_;
  std::size_t lineno_;
  std::string text_;
  std::vector<std::string> fields_;
};

/// Calls `on_record` for every remaining line of `is` that is neither blank
/// nor a '#' comment, refusing any without exactly as many fields as
/// `layout` names (e.g. "cycle src dst"). `lines_read` lines were taken
/// from `is` already.
void for_each_record(std::istream& is, std::string_view format, std::string_view layout,
                     std::size_t lines_read,
                     const std::function<void(const TextRecord&)>& on_record);

}  // namespace dsn
