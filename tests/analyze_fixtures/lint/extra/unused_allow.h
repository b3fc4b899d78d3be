// Fixture: suppressions of non-ana rules that match nothing, one inline
// and one file-wide; the analyzer must report both as unused.
#pragma once

namespace fixture {
inline int clean() { return 3; }  // hicc-lint: allow(det-rand) -- pointless
}  // namespace fixture
// hicc-lint: allow-file(det-wallclock) -- pointless too
