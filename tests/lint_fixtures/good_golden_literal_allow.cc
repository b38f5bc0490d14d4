// Suppression counterpart of bad_golden_literal.cc: a long literal that is
// no pinned digest (a made-up fingerprint input) carrying an
// allow(golden-literal) marker must lint clean.
#include <cstdint>

uint64_t SampleFingerprint() {
  return 0xfeedface12345678ull;  // x2vec-lint: allow(golden-literal)
}
