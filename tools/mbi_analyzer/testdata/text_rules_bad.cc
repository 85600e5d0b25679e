// Fixture: the text rules, which run with or without clang — a memcpy
// whose length is computed, and a text-rule waiver that excuses nothing.
#include <cstddef>
#include <cstring>

void CopyRow(float* dst, const float* src, std::size_t n) {
  std::memcpy(dst, src, n * 4);  // expect: unchecked-memcpy
  std::memcpy(dst, src, sizeof(float));
}

int Zero() {
  return 0;  // mbi-lint: allow(unchecked-memcpy) — none. expect: stale-waiver
}
