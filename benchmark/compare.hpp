#pragma once

#include <string>

namespace mmbench {

/// Compare two directories of result files; returns the exit status (1 when
/// any end-to-end metric regressed or an exact metric differs).
int compare_main(const std::string& base_dir, const std::string& change_dir);

}  // namespace mmbench
