#include "mmlp/util/cli.hpp"

#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "mmlp/util/check.hpp"

namespace mmlp {

ArgParser::ArgParser(std::string program_description)
    : description_(std::move(program_description)) {
  add_switch("help", "show this help text");
}

void ArgParser::add_flag(const std::string& name, const std::string& help,
                         const std::string& default_value) {
  MMLP_CHECK_MSG(!flags_.contains(name), "duplicate flag --" << name);
  flags_[name] = Flag{help, default_value, /*is_switch=*/false, false};
}

void ArgParser::add_switch(const std::string& name, const std::string& help) {
  MMLP_CHECK_MSG(!flags_.contains(name), "duplicate flag --" << name);
  flags_[name] = Flag{help, "0", /*is_switch=*/true, false};
}

bool ArgParser::parse(int argc, const char* const* argv) {
  program_name_ = argc > 0 ? argv[0] : "prog";
  for (int a = 1; a < argc; ++a) {
    std::string token = argv[a];
    if (token.rfind("--", 0) != 0) {
      std::cerr << "error: unexpected positional argument '" << token << "'\n";
      return false;
    }
    token = token.substr(2);
    std::string name = token;
    std::optional<std::string> inline_value;
    if (const auto eq = token.find('='); eq != std::string::npos) {
      name = token.substr(0, eq);
      inline_value = token.substr(eq + 1);
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      std::cerr << "error: unknown flag --" << name << "\n"
                << help_text();
      return false;
    }
    Flag& flag = it->second;
    flag.seen = true;
    if (flag.is_switch) {
      flag.value = inline_value.value_or("1");
    } else if (inline_value.has_value()) {
      flag.value = *inline_value;
    } else {
      if (a + 1 >= argc) {
        std::cerr << "error: flag --" << name << " expects a value\n";
        return false;
      }
      flag.value = argv[++a];
    }
  }
  if (get_bool("help")) {
    std::cout << help_text();
    return false;
  }
  return true;
}

const ArgParser::Flag& ArgParser::find(const std::string& name) const {
  const auto it = flags_.find(name);
  MMLP_CHECK_MSG(it != flags_.end(), "flag --" << name << " was not registered");
  return it->second;
}

std::string ArgParser::get_string(const std::string& name) const {
  return find(name).value;
}

std::int64_t ArgParser::get_int(const std::string& name) const {
  const std::string& value = find(name).value;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  MMLP_CHECK_MSG(end != value.c_str() && *end == '\0',
                 "flag --" << name << " is not an integer: " << value);
  MMLP_CHECK_MSG(errno != ERANGE,
                 "flag --" << name << " is out of range: " << value);
  return parsed;
}

double ArgParser::get_double(const std::string& name) const {
  const std::string& value = find(name).value;
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  MMLP_CHECK_MSG(end != value.c_str() && *end == '\0',
                 "flag --" << name << " is not a number: " << value);
  return parsed;
}

bool ArgParser::get_bool(const std::string& name) const {
  const std::string& value = find(name).value;
  return value == "1" || value == "true" || value == "yes";
}

std::string ArgParser::help_text() const {
  std::ostringstream oss;
  oss << description_ << "\n\nusage: " << program_name_ << " [--flag value]...\n";
  for (const auto& [name, flag] : flags_) {
    oss << "  --" << name;
    if (!flag.is_switch) {
      oss << " <value> (default: " << flag.value << ")";
    }
    oss << "\n      " << flag.help << '\n';
  }
  return oss.str();
}

}  // namespace mmlp
