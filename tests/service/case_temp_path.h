// Scratch-file naming for tests that write KB snapshots to disk.

#pragma once

#include <unistd.h>

#include <gtest/gtest.h>

#include <string>

namespace remi {

/// A path under gtest's TempDir() private to the running test case and
/// process: `<TempDir>/<stem>_<TestName>_<pid><extension>`. ctest runs
/// every case as its own process, so a name shared across cases lets one
/// case truncate a snapshot that another live case has memory-mapped
/// (SIGBUS under `ctest -j`).
inline std::string CaseTempPath(const std::string& stem,
                                const std::string& extension) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string name = info != nullptr ? info->name() : "none";
  return ::testing::TempDir() + "/" + stem + "_" + name + "_" +
         std::to_string(getpid()) + extension;
}

}  // namespace remi
