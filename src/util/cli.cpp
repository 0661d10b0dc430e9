#include "util/cli.hpp"

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace scalparc::util {

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.rfind("--", 0) != 0) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      flags_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
      continue;
    }
    // "--name value" unless the next token is itself a flag (then boolean).
    if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[std::string(arg)] = argv[i + 1];
      ++i;
    } else {
      flags_[std::string(arg)] = "true";
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return flags_.count(name) != 0;
}

std::string CliArgs::get_string(const std::string& name,
                                const std::string& default_value) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? default_value : it->second;
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t default_value) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? default_value
                            : std::strtoll(it->second.c_str(), nullptr, 10);
}

double CliArgs::get_double(const std::string& name,
                           double default_value) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? default_value
                            : std::strtod(it->second.c_str(), nullptr);
}

std::string CliArgs::unwritable_output(
    std::initializer_list<const char*> flags) const {
  for (const char* flag : flags) {
    const std::string path = get_string(flag, "");
    if (path.empty()) continue;
    std::error_code ec;
    const bool existed = std::filesystem::exists(path, ec);
    if (!std::ofstream(path, std::ios::app)) return flag;
    if (!existed) std::filesystem::remove(path, ec);
  }
  return "";
}

bool CliArgs::get_bool(const std::string& name, bool default_value) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::int64_t> CliArgs::get_int_list(
    const std::string& name,
    const std::vector<std::int64_t>& default_value) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  std::vector<std::int64_t> values;
  const std::string& text = it->second;
  std::size_t start = 0;
  while (start <= text.size()) {
    auto comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    if (comma > start) {
      values.push_back(std::strtoll(text.substr(start, comma - start).c_str(),
                                    nullptr, 10));
    }
    start = comma + 1;
  }
  return values;
}

}  // namespace scalparc::util
