#pragma once

#include <string>

namespace mahimahi::util {

/// Durably replace the file at `path` with `content`: write to a
/// temporary sibling (`path` + ".tmp.<pid>"), fsync the data, rename over
/// `path`, then fsync the containing directory so the rename itself
/// survives a crash. Readers therefore only ever observe the old bytes or
/// the complete new bytes — never a torn artifact, no matter when the
/// writing process dies.
///
/// Returns false (after a warning on stderr naming the path and errno)
/// when any step fails; a failed attempt unlinks its temporary file. This
/// matches the PerfReport::write tool convention, so every artifact
/// writer in the repo calls it directly.
bool atomic_write_file(const std::string& path, const std::string& content);

}  // namespace mahimahi::util
