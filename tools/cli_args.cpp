#include "cli_args.hpp"

#include <cerrno>
#include <cstdlib>

#include "util/suggest.hpp"

namespace paradyn::tools {

CliArgs::CliArgs(int argc, const char* const argv[], const std::set<std::string>& value_flags,
                 const std::set<std::string>& switches, std::size_t max_positionals) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      if (positionals_.size() < max_positionals) {
        positionals_.push_back(std::move(arg));
        continue;
      }
      std::string message = "unexpected positional argument: " + arg;
      const std::string prev = i > 1 ? argv[i - 1] : "";
      if (prev.rfind("--", 0) == 0 && switches.count(prev.substr(2)) != 0) {
        message += " (" + prev + " is a switch; a value goes as " + prev + "=" + arg + ")";
      }
      throw std::invalid_argument(message);
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const bool is_switch = switches.count(name) != 0;
    if (!is_switch && value_flags.count(name) == 0) {
      std::set<std::string> known = value_flags;
      known.insert(switches.begin(), switches.end());
      std::string message = "unknown flag: --" + name;
      const std::string close = util::suggestion(name, known);
      if (!close.empty()) message += " (did you mean --" + close + "?)";
      message += "; see --help";
      throw std::invalid_argument(message);
    }
    if (eq != std::string::npos) {
      values_[name] = arg.substr(eq + 1);
    } else if (is_switch) {
      values_[name] = "true";
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[name] = argv[++i];
    } else {
      throw std::invalid_argument("flag --" + name + " needs a value");
    }
  }
}

std::string CliArgs::get_string(const std::string& name, const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    throw std::invalid_argument("flag --" + name + ": not a number: " + it->second);
  }
  return v;
}

long CliArgs::get_long(const std::string& name, long fallback, long lo, long hi) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    throw std::invalid_argument("flag --" + name + ": not an integer: " + it->second);
  }
  if (errno == ERANGE || v < lo || v > hi) {
    throw std::invalid_argument("flag --" + name + ": out of range [" + std::to_string(lo) +
                                ", " + std::to_string(hi) + "]: " + it->second);
  }
  return v;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  if (it->second == "true" || it->second == "1" || it->second == "yes") return true;
  if (it->second == "false" || it->second == "0" || it->second == "no") return false;
  throw std::invalid_argument("flag --" + name + ": not a boolean: " + it->second);
}

std::ofstream open_output(const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open for writing: " + path);
  return os;
}

}  // namespace paradyn::tools
