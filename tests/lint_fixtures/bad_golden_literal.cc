// Planted golden-literal violations: a 64-bit digest literal in a test
// outside tests/goldens.h fires once per line below. The numbers that are
// no digest (short, floating-point, in a comment or a string) stay silent.
#include <cstdint>

uint64_t Pins(uint64_t digest) {
  if (digest == 18278926393330042903ull) return 1;     // golden-literal
  if (digest == 0xfeedface12345678ull) return 2;       // golden-literal
  if (digest == 993'439'134'845'477'708ull) return 3;  // golden-literal
  if (digest == 0X1'2345'6789'ABCD) return 4;          // golden-literal
  // 18278926393330042903ull in a comment is prose.
  const char* quoted = "18278926393330042903";
  const uint64_t short_decimal = 999999999999999ull;   // 15 digits
  const uint64_t short_hex = 0xfeedface1234ull;        // 12 hex digits
  const double pi = 3.14159265358979323846;
  const double big = 12345678901234567e3;
  const uint64_t ok = short_decimal + short_hex + quoted[0];
  return static_cast<uint64_t>(pi + big) + ok;
}
