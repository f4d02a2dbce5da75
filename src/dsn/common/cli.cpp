#include "dsn/common/cli.hpp"

#include <cstdlib>
#include <iostream>
#include <sstream>

#include "dsn/common/error.hpp"

namespace dsn {

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
    DSN_REQUIRE(arg.starts_with("--"), "expected --flag, got: " + arg);
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    auto it = flags_.find(arg);
    DSN_REQUIRE(it != flags_.end(), "unknown flag: --" + arg);
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
        DSN_REQUIRE(i + 1 < argc, "missing value for --" + arg);
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
  const auto v = std::stoll(get(name));
  DSN_REQUIRE(v >= 0, "flag --" + name + " must be non-negative");
  return static_cast<std::uint64_t>(v);
}

double Cli::get_double(const std::string& name) const { return std::stod(get(name)); }

bool Cli::get_bool(const std::string& name) const {
  const std::string v = get(name);
  return v == "true" || v == "1" || v == "yes";
}

std::vector<std::uint64_t> Cli::get_uint_list(const std::string& name) const {
  std::vector<std::uint64_t> out;
  std::stringstream ss(get(name));
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) out.push_back(std::stoull(tok));
  }
  return out;
}

std::vector<double> Cli::get_double_list(const std::string& name) const {
  std::vector<double> out;
  std::stringstream ss(get(name));
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) out.push_back(std::stod(tok));
  }
  return out;
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

}  // namespace dsn
