#ifndef PS_TESTS_TEST_FILES_H
#define PS_TESTS_TEST_FILES_H

// Scratch files for tests that write to the working directory. ctest runs
// every test case as its own process, several at once, so every path
// carries the process id: two test processes never write, read or remove
// each other's file.

#include <unistd.h>

#include <cstdio>
#include <string>

namespace ps::test_support {

/// `name` with ".<pid>" inserted before its extension ("a.b.pspdb" becomes
/// "a.b.<pid>.pspdb"), so parallel test processes never share a path.
inline std::string processUniquePath(const std::string& name) {
  const std::string pid = std::to_string(::getpid());
  const std::size_t dot = name.rfind('.');
  if (dot == std::string::npos) return name + "." + pid;
  return name.substr(0, dot) + "." + pid + name.substr(dot);
}

/// A process-unique scratch path, removed when the scope ends.
class ScopedFile {
 public:
  explicit ScopedFile(const std::string& name)
      : path_(processUniquePath(name)) {}
  ~ScopedFile() { std::remove(path_.c_str()); }
  ScopedFile(const ScopedFile&) = delete;
  ScopedFile& operator=(const ScopedFile&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace ps::test_support

#endif  // PS_TESTS_TEST_FILES_H
