// Tiny command-line flag parser shared by the bench and example binaries.
//
// Supports --flag value, --flag=value, and boolean --flag. Unknown flags are
// an error so typos in experiment scripts fail loudly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dsn {

/// Declarative CLI parser. Register flags with defaults, then parse().
class Cli {
 public:
  explicit Cli(std::string program_description);

  /// Register a flag; `help` is shown by --help.
  void add_flag(const std::string& name, const std::string& default_value,
                const std::string& help);

  /// Parse argv. Returns false (after printing usage) if --help was given.
  /// Throws dsn::PreconditionError on unknown flags or missing values.
  bool parse(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name) const;
  /// Numbers are read whole with std::from_chars (no '+' or blanks, and no
  /// '-' for get_uint): anything else, trailing characters or an out-of-range
  /// value throw dsn::PreconditionError naming the flag and its value.
  std::uint64_t get_uint(const std::string& name) const;
  /// get_uint for values stored in 32 bits (switch counts, node, link and
  /// host ids, ...): a value above 2^32 - 1 is refused the same way.
  std::uint32_t get_uint32(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// The non-empty items of a comma-separated list (e.g. "dsn,torus").
  std::vector<std::string> get_list(const std::string& name) const;
  /// A comma-separated list of unsigned integers (e.g. "64,128,256").
  std::vector<std::uint64_t> get_uint_list(const std::string& name) const;
  /// get_uint_list for 32-bit values, refused as get_uint32 refuses them.
  std::vector<std::uint32_t> get_uint32_list(const std::string& name) const;
  /// A comma-separated list of doubles.
  std::vector<double> get_double_list(const std::string& name) const;

  std::string usage(const std::string& argv0) const;

 private:
  struct Flag {
    std::string default_value;
    std::string help;
    std::string value;
    bool set = false;
  };
  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
};

/// A program's main: body(argc, argv), except that a PreconditionError it
/// throws prints one "<argv[0]'s file name>: <reason>" line and returns 2.
int run_main(int argc, char** argv, int (*body)(int, char**));

}  // namespace dsn
