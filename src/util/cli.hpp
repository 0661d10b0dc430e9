// Tiny command-line flag parser shared by the examples and benches.
//
// Supports "--name value" and "--name=value" forms plus boolean switches.
// Unknown flags are collected so callers can reject or forward them.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace scalparc::util {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& default_value) const;
  std::int64_t get_int(const std::string& name,
                       std::int64_t default_value) const;
  double get_double(const std::string& name, double default_value) const;
  bool get_bool(const std::string& name, bool default_value) const;

  // Comma-separated integer list, e.g. "--procs 2,4,8".
  std::vector<std::int64_t> get_int_list(
      const std::string& name,
      const std::vector<std::int64_t>& default_value) const;

  // The first of the output `flags` set to a path this process cannot open
  // for writing, or "" when every set one can; tools call it before any
  // work. A path is opened in append mode, so an existing file keeps its
  // bytes, and a file the check created is removed again.
  std::string unwritable_output(
      std::initializer_list<const char*> flags) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace scalparc::util
