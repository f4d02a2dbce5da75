// dsn-slint: deterministic — output feeds byte-identical replay/merge gates;
// traversal order here must be a function of the data, never a hash seed.
// Minimal JSON value type with a parser and serializer, used for the
// machine-readable reports of dsn-lint (and their round-trip tests). Objects
// preserve insertion order so dump(parse(dump(x))) == dump(x) holds exactly.
//
// Scope is deliberately small: UTF-8 pass-through strings, numbers stored as
// double (integral values in [-2^53, 2^53] print without a fraction), no
// comments, no trailing commas.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dsn {

class Json {
 public:
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : kind_(Kind::kNull) {}
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}                        // NOLINT
  Json(double v) : kind_(Kind::kNumber), number_(v) {}                  // NOLINT
  Json(std::int64_t v)                                                  // NOLINT
      : kind_(Kind::kNumber), number_(static_cast<double>(v)) {}
  Json(std::uint64_t v)                                                 // NOLINT
      : kind_(Kind::kNumber), number_(static_cast<double>(v)) {}
  Json(int v) : kind_(Kind::kNumber), number_(v) {}                     // NOLINT
  Json(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}  // NOLINT
  Json(const char* s) : kind_(Kind::kString), string_(s) {}             // NOLINT

  static Json array() { return Json(Kind::kArray); }
  static Json object() { return Json(Kind::kObject); }

  Kind kind() const { return kind_; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_array() const { return kind_ == Kind::kArray; }

  /// Typed accessors; throw dsn::PreconditionError on kind mismatch.
  bool as_bool() const;
  double as_double() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;

  /// Array/object size (0 for scalars).
  std::size_t size() const;

  /// Array element access (throws when out of range or not an array).
  const Json& at(std::size_t index) const;
  /// Object member access (throws when absent or not an object).
  const Json& at(std::string_view key) const;
  bool has(std::string_view key) const;

  /// Append to an array (converts a null value into an array first).
  void push_back(Json value);
  /// Set an object member, replacing any existing entry with that key
  /// (converts a null value into an object first).
  void set(std::string key, Json value);

  const std::vector<Json>& items() const;
  const std::vector<std::pair<std::string, Json>>& members() const;

  /// Serialize. indent < 0 produces the compact single-line form; indent >= 0
  /// pretty-prints with that many spaces per level.
  std::string dump(int indent = -1) const;

  /// Parse a complete JSON document (throws dsn::PreconditionError on any
  /// syntax error or trailing garbage).
  static Json parse(std::string_view text);

  friend bool operator==(const Json& a, const Json& b);

 private:
  explicit Json(Kind kind) : kind_(kind) {}
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

}  // namespace dsn
