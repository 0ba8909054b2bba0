#pragma once

// The views of one cell's trace that the determinism tests compare: the
// cell<i>.csv that --trace-dir writes, and the Chrome trace and HAR that
// `mm_trace export chrome|har` renders from it.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/analyze.hpp"
#include "obs/export.hpp"

namespace mahimahi::obs {

/// (name, bytes) of cell<index>.csv under `dir` and of the two views
/// rendered from it, named like the files `mm_trace export` output is
/// usually saved as (cell<index>.trace.json, cell<index>.har).
inline std::vector<std::pair<std::string, std::string>> cell_views(
    const std::filesystem::path& dir, int cell_index) {
  const std::string base = "cell" + std::to_string(cell_index);
  const std::filesystem::path path = dir / (base + ".csv");
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in) << "missing trace " << path;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  std::istringstream csv{bytes.str()};
  std::string error;
  const auto parsed = parse_trace_csv(csv, &error);
  EXPECT_TRUE(parsed.has_value()) << path << ": " << error;
  std::vector<std::pair<std::string, std::string>> views;
  views.emplace_back(base + ".csv", bytes.str());
  if (parsed.has_value()) {
    const TraceMeta meta = to_trace_meta(*parsed);
    const std::vector<LoadTrace> loads = to_load_traces(*parsed);
    views.emplace_back(base + ".trace.json", to_chrome_trace(meta, loads));
    views.emplace_back(base + ".har", to_har(meta, loads));
  }
  return views;
}

/// Expect every view of every listed cell identical between two trace dirs.
inline void expect_identical_views(const std::filesystem::path& a,
                                   const std::filesystem::path& b,
                                   const std::vector<int>& cell_indices) {
  for (const int cell : cell_indices) {
    const auto views_a = cell_views(a, cell);
    const auto views_b = cell_views(b, cell);
    ASSERT_EQ(views_a.size(), views_b.size());
    for (std::size_t i = 0; i < views_a.size(); ++i) {
      EXPECT_EQ(views_a[i].second, views_b[i].second)
          << views_a[i].first << " differs between " << a << " and " << b;
    }
  }
}

}  // namespace mahimahi::obs
