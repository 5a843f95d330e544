// Test helper: a scratch path under the system temp directory, unique to the
// running test process.
//
// Two copies of one test binary can run at once (two build trees, or a
// sanitizer build beside the main one). Under a fixed name, one deletes the
// other's files mid-test; the process id keeps them apart.
#ifndef COLDSTART_TESTS_TEMP_DIR_H_
#define COLDSTART_TESTS_TEMP_DIR_H_

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace coldstart::testing_support {

inline std::filesystem::path TempPath(const std::string& name) {
  namespace fs = std::filesystem;
  // A "threadsafe" death test re-executes the test binary, and the child
  // re-runs the test, SetUp included, then dies before TearDown. A process
  // whose parent runs the same executable is such a child: it takes its
  // parent's path, so the parent's TearDown removes what the child wrote.
  // Under its own pid, each death test would leave a directory behind.
  std::error_code self_error;
  std::error_code parent_error;
  const fs::path self = fs::read_symlink("/proc/self/exe", self_error);
  const fs::path parent =
      fs::read_symlink("/proc/" + std::to_string(::getppid()) + "/exe", parent_error);
  const bool death_test_child = !self_error && !parent_error && self == parent;
  const pid_t owner = death_test_child ? ::getppid() : ::getpid();
  return fs::temp_directory_path() / (name + "_" + std::to_string(owner));
}

}  // namespace coldstart::testing_support

#endif  // COLDSTART_TESTS_TEMP_DIR_H_
