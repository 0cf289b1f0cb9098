#include "worlds/dense_bits.h"

namespace epi {
namespace bits {

Word mix64(Word x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::size_t hash(const Word* w, std::size_t nw, Word seed) {
  // Each word is avalanched (salted by its position) before an FNV-style
  // combine, and the accumulator is finalized once more, so single-bit set
  // differences spread over the whole 64-bit output. Plain FNV-1a (the
  // scheme both set types used before the kernel existed) left sparse sets
  // clustered in the low bits, which hash-keyed tables — the audit's
  // per-set dedupe and the service's disclosure memo — cannot afford.
  Word h = 0xcbf29ce484222325ull ^ seed;
  for (std::size_t i = 0; i < nw; ++i) {
    h = (h ^ mix64(w[i] ^ static_cast<Word>(i))) * 0x100000001b3ull;
  }
  return static_cast<std::size_t>(mix64(h));
}

}  // namespace bits
}  // namespace epi
