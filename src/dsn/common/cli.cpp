#include "dsn/common/cli.hpp"

#include <charconv>
#include <iostream>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "dsn/common/error.hpp"

namespace dsn {

namespace {

/// Every number a flag holds is `token` read whole as a T with
/// std::from_chars, the rule TextRecord::unsigned_field applies.
template <class T>
T parse_number(const std::string& name, const std::string& token) {
  T value{};
  const char* const end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    const char* const what = std::is_floating_point_v<T>       ? "a number"
                             : sizeof(T) == sizeof(std::uint32_t) ? "an unsigned 32-bit integer"
                                                                  : "an unsigned integer";
    throw PreconditionError("flag --" + name + ": '" + token + "' is not " + what);
  }
  return value;
}

template <class T>
std::vector<T> parse_numbers(const std::string& name, const std::vector<std::string>& tokens) {
  std::vector<T> out;
  for (const std::string& token : tokens) out.push_back(parse_number<T>(name, token));
  return out;
}

}  // namespace

Cli::Cli(std::string program_description) : description_(std::move(program_description)) {}

void Cli::add_flag(const std::string& name, const std::string& default_value,
                   const std::string& help) {
  DSN_REQUIRE(!flags_.contains(name), "duplicate flag: " + name);
  flags_[name] = Flag{default_value, help, default_value, false};
  order_.push_back(name);
}

bool Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage(argv[0]);
      return false;
    }
    if (!arg.starts_with("--")) {
      throw PreconditionError("expected a --flag, got '" + arg + "'");
    }
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    auto it = flags_.find(arg);
    if (it == flags_.end()) throw PreconditionError("unknown flag --" + arg);
    if (!has_value) {
      const bool is_bool =
          it->second.default_value == "false" || it->second.default_value == "true";
      if (is_bool) {
        // Boolean flags may omit the value ("--quick") but also accept an
        // explicit one ("--quick false") when the next token looks boolean.
        value = "true";
        if (i + 1 < argc) {
          const std::string next = argv[i + 1];
          if (next == "true" || next == "false" || next == "1" || next == "0") {
            value = (next == "true" || next == "1") ? "true" : "false";
            ++i;
          }
        }
      } else {
        if (i + 1 >= argc) throw PreconditionError("flag --" + arg + ": missing value");
        value = argv[++i];
      }
    }
    it->second.value = value;
    it->second.set = true;
  }
  return true;
}

bool Cli::has(const std::string& name) const {
  auto it = flags_.find(name);
  DSN_REQUIRE(it != flags_.end(), "unregistered flag: " + name);
  return it->second.set;
}

std::string Cli::get(const std::string& name) const {
  auto it = flags_.find(name);
  DSN_REQUIRE(it != flags_.end(), "unregistered flag: " + name);
  return it->second.value;
}

std::uint64_t Cli::get_uint(const std::string& name) const {
  return parse_number<std::uint64_t>(name, get(name));
}

std::uint32_t Cli::get_uint32(const std::string& name) const {
  return parse_number<std::uint32_t>(name, get(name));
}

double Cli::get_double(const std::string& name) const {
  return parse_number<double>(name, get(name));
}

bool Cli::get_bool(const std::string& name) const {
  const std::string v = get(name);
  return v == "true" || v == "1" || v == "yes";
}

std::vector<std::string> Cli::get_list(const std::string& name) const {
  std::vector<std::string> out;
  std::stringstream ss(get(name));
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) out.push_back(tok);
  }
  return out;
}

std::vector<std::uint64_t> Cli::get_uint_list(const std::string& name) const {
  return parse_numbers<std::uint64_t>(name, get_list(name));
}

std::vector<std::uint32_t> Cli::get_uint32_list(const std::string& name) const {
  return parse_numbers<std::uint32_t>(name, get_list(name));
}

std::vector<double> Cli::get_double_list(const std::string& name) const {
  return parse_numbers<double>(name, get_list(name));
}

std::string Cli::usage(const std::string& argv0) const {
  std::ostringstream os;
  os << description_ << "\n\nusage: " << argv0 << " [flags]\n";
  for (const auto& name : order_) {
    const Flag& f = flags_.at(name);
    os << "  --" << name << " (default: " << (f.default_value.empty() ? "\"\"" : f.default_value)
       << ")\n      " << f.help << "\n";
  }
  return os.str();
}

int run_main(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const PreconditionError& e) {
    const std::string_view path = argc > 0 && argv[0] != nullptr ? argv[0] : "";
    std::cerr << path.substr(path.find_last_of('/') + 1) << ": " << e.what() << "\n";
    return 2;
  }
}

}  // namespace dsn
