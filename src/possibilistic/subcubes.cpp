#include "possibilistic/subcubes.h"

#include <algorithm>
#include <stdexcept>

namespace epi {
namespace {

using Word = bits::Word;

/// kLowHalf[i]: the bits of a word whose in-word index has bit i clear.
/// Coordinates i < 6 address bits inside a word, coordinates i >= 6 whole
/// words (world v lives at bit v % 64 of word v / 64).
constexpr Word kLowHalf[6] = {0x5555555555555555ull, 0x3333333333333333ull,
                              0x0F0F0F0F0F0F0F0Full, 0x00FF00FF00FF00FFull,
                              0x0000FFFF0000FFFFull, 0x00000000FFFFFFFFull};

}  // namespace

SubcubeSigma::SubcubeSigma(unsigned n) : n_(n) {
  if (n == 0 || n > kMaxSubcubeEnumerationCoordinates) {
    throw std::invalid_argument(
        "SubcubeSigma: n must be in [1, " +
        std::to_string(kMaxSubcubeEnumerationCoordinates) +
        "] — enumerate() walks all 3^n subcubes and box() materializes "
        "2^n-element sets, which is intractable beyond that");
  }
}

FiniteSet SubcubeSigma::box(const MatchVector& w) const {
  FiniteSet s(universe_size());
  const std::size_t size = universe_size();
  for (std::size_t v = 0; v < size; ++v) {
    if (refines(static_cast<World>(v), w)) s.insert(v);
  }
  return s;
}

bool SubcubeSigma::contains(const FiniteSet& s) const {
  if (s.universe_size() != universe_size() || s.is_empty()) return false;
  // The bounding match vector of s: coordinates where all members agree are
  // fixed, the rest are stars; s is a subcube iff it equals its bounding box.
  World and_all = ~World{0};
  World or_all = 0;
  s.visit([&](std::size_t v) {
    and_all &= static_cast<World>(v);
    or_all |= static_cast<World>(v);
  });
  MatchVector w;
  w.stars = (and_all ^ or_all) & ((World{1} << n_) - 1);
  w.values = and_all & ~w.stars & ((World{1} << n_) - 1);
  return s == box(w);
}

std::vector<FiniteSet> SubcubeSigma::enumerate() const {
  std::vector<FiniteSet> out;
  std::size_t total = 1;
  for (unsigned i = 0; i < n_; ++i) total *= 3;
  out.reserve(total);
  // Enumerate {0,1,*}^n via base-3 codes.
  for (std::size_t code = 0; code < total; ++code) {
    MatchVector w;
    std::size_t c = code;
    for (unsigned i = 0; i < n_; ++i) {
      const unsigned digit = c % 3;
      c /= 3;
      if (digit == 1) {
        w.values |= World{1} << i;
      } else if (digit == 2) {
        w.stars |= World{1} << i;
      }
    }
    out.push_back(box(w));
  }
  return out;
}

std::optional<FiniteSet> SubcubeSigma::interval(std::size_t w1,
                                                std::size_t w2) const {
  if (w1 >= universe_size() || w2 >= universe_size()) return std::nullopt;
  return box(match(static_cast<World>(w1), static_cast<World>(w2)));
}

std::optional<std::vector<std::size_t>> SubcubeSigma::tight_delta_classes(
    std::size_t w1, const FiniteSet& x) const {
  if (x.universe_size() != universe_size()) {
    throw std::invalid_argument("SubcubeSigma::tight_delta_classes: "
                                "mismatched universes");
  }
  std::vector<std::size_t> classes;
  if (w1 >= universe_size()) return classes;
  const std::size_t nw = x.word_count();
  const unsigned in_word = std::min(n_, 6u);
  const std::size_t word_flip = w1 >> 6;
  const Word bit_flip = w1 & 63;

  // D = X xor w1: coordinates i >= 6 permute whole words, i < 6 shuffle
  // bits inside each word.
  std::vector<Word> d(nw);
  for (std::size_t j = 0; j < nw; ++j) {
    Word w = x.word_data()[j ^ word_flip];
    for (unsigned i = 0; i < in_word; ++i) {
      if ((bit_flip >> i) & 1) {
        const unsigned s = 1u << i;
        w = ((w & kLowHalf[i]) << s) | ((w >> s) & kLowHalf[i]);
      }
    }
    d[j] = w;
  }

  // U = the superset closure of D: one shift-or pass per coordinate.
  std::vector<Word> up = d;
  for (unsigned i = 0; i < in_word; ++i) {
    for (Word& w : up) w |= (w & kLowHalf[i]) << (1u << i);
  }
  for (std::size_t stride = 1; stride < nw; stride <<= 1) {
    for (std::size_t j = 0; j < nw; ++j) {
      if (j & stride) up[j] |= up[j ^ stride];
    }
  }

  // v in D is minimal iff v - {i} is in U for no coordinate i in v, i.e. v
  // lies outside the strict closure OR_i shift_i(U).
  for (std::size_t j = 0; j < nw; ++j) {
    if (d[j] == 0) continue;
    Word strict = 0;
    for (unsigned i = 0; i < in_word; ++i) {
      strict |= (up[j] & kLowHalf[i]) << (1u << i);
    }
    for (std::size_t stride = 1; stride < nw; stride <<= 1) {
      if (j & stride) strict |= up[j ^ stride];
    }
    const Word minimal = d[j] & ~strict;
    bits::for_each_bit(&minimal, 1, [&](std::size_t bit) {
      classes.push_back(((j << 6) | bit) ^ w1);
    });
  }
  std::sort(classes.begin(), classes.end());
  return classes;
}

}  // namespace epi
