#include "cli_args.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>
#include <utility>

#include "util/suggest.hpp"

namespace paradyn::tools {

namespace {

/// The spellings of a Switch's value.
const std::map<std::string_view, bool> kBooleans = {
    {"true", true}, {"1", true}, {"yes", true}, {"false", false}, {"0", false}, {"no", false}};

/// Check that `v` parses as `f`'s kind within its bounds; throws
/// std::invalid_argument naming the flag.
void check(const Flag& f, const std::string& v) {
  const auto fail = [&](const std::string& what) {
    throw std::invalid_argument("flag --" + std::string(f.name) + ": " + what + ": " + v);
  };
  char* end = nullptr;
  errno = 0;
  switch (f.kind) {
    case Kind::Switch:
      if (!kBooleans.contains(v)) fail("not a boolean");
      break;
    case Kind::Text: break;
    case Kind::Number:
      (void)std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0') fail("not a number");
      break;
    case Kind::Integer:
      const long x = std::strtol(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') fail("not an integer");
      if (errno == ERANGE || x < f.lo || x > f.hi) {
        fail("out of range [" + std::to_string(f.lo) + ", " + std::to_string(f.hi) + "]");
      }
  }
}

/// A Switch, or an optional "[=X]" value: never takes the next argument.
bool is_switch(const Flag& f) { return f.kind == Kind::Switch || f.value.starts_with('['); }

}  // namespace

CliArgs::CliArgs(int argc, const char* const argv[], std::vector<Flag> flags, Flag operand)
    : flags_(std::move(flags)), operand_(operand) {
  for (const Flag& f : flags_) {
    if (!f.fallback.empty()) check(f, std::string(f.fallback));
  }
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      if (!operand_.name.empty() && positionals_.empty()) {
        positionals_.push_back(std::move(arg));
        continue;
      }
      std::string message = "unexpected positional argument: " + arg;
      const std::string prev = i > 1 ? argv[i - 1] : "";
      const Flag* p = prev.rfind("--", 0) == 0 ? find(prev.substr(2)) : nullptr;
      if (p != nullptr && is_switch(*p)) {
        message += " (" + prev + " is a switch; a value goes as " + prev + "=" + arg + ")";
      }
      throw std::invalid_argument(message);
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const Flag* f = find(name);
    if (f == nullptr) {
      std::set<std::string> known;
      for (const Flag& row : flags_) known.emplace(row.name);
      std::string message = "unknown flag: --" + name;
      const std::string close = util::suggestion(name, known);
      if (!close.empty()) message += " (did you mean --" + close + "?)";
      if (find("help") != nullptr) message += "; see --help";
      throw std::invalid_argument(message);
    }
    std::string value;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (is_switch(*f)) {
      value = f->kind == Kind::Switch ? "true" : f->fallback;
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    } else {
      throw std::invalid_argument("flag --" + name + " needs a value");
    }
    check(*f, value);
    values_[name] = std::move(value);
  }
}

const Flag* CliArgs::find(std::string_view name) const {
  const auto it = std::ranges::find(flags_, name, &Flag::name);
  return it == flags_.end() ? nullptr : &*it;
}

std::string CliArgs::read(std::string_view name, Kind kind) const {
  const Flag* f = find(name);
  if (f == nullptr || f->kind != kind ||
      (kind != Kind::Switch && !has(name) && f->fallback.empty())) {
    throw std::logic_error("flag --" + std::string(name) +
                           " read without a row of its kind, a value or a default");
  }
  return get_string(name);
}

std::string CliArgs::get_string(std::string_view name) const {
  const auto it = values_.find(name);
  const Flag* f = find(name);
  return it != values_.end() ? it->second : std::string(f != nullptr ? f->fallback : "");
}

double CliArgs::get_double(std::string_view name) const {
  return std::strtod(read(name, Kind::Number).c_str(), nullptr);
}

long CliArgs::get_long(std::string_view name) const {
  return std::strtol(read(name, Kind::Integer).c_str(), nullptr, 10);
}

bool CliArgs::get_bool(std::string_view name) const {
  const auto it = kBooleans.find(read(name, Kind::Switch));
  return it != kBooleans.end() && it->second;
}

void CliArgs::print_help(std::string_view about) const {
  const auto spelling = [](const Flag& f) {
    const bool attached = f.value.empty() || f.value.starts_with('[');
    return "--" + std::string(f.name) + (attached ? "" : " ") + std::string(f.value);
  };
  std::size_t width = operand_.name.size();
  for (const Flag& f : flags_) width = std::max(width, spelling(f).size());
  std::string out = std::string(about) + "\n\n";
  const auto entry = [&](std::string left, const Flag& f) {
    std::string help(f.help);
    if (!f.fallback.empty()) help += "; default " + std::string(f.fallback);
    std::istringstream lines(help);
    for (std::string line; std::getline(lines, line); left.clear()) {
      left.resize(width + 1, ' ');
      out += "  " + left + line + '\n';
    }
  };
  if (!operand_.name.empty()) entry(std::string(operand_.name), operand_);
  for (const Flag& f : flags_) entry(spelling(f), f);
  std::fputs(out.c_str(), stdout);
}

std::ofstream open_output(const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open for writing: " + path);
  return os;
}

}  // namespace paradyn::tools
