#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

namespace rtsm {

/// The 64-bit word serializer behind every structural key
/// (verify::MappingSignature, shapes::SkeletonKey, shapes::CanonicalShape
/// and verify::app_skeleton_hash). A key is a word vector compared in
/// full; its hash only picks a bucket. (app_skeleton_hash keeps the bare
/// hash: it keys warm-start hints, which never change a sizing result.)
/// Conventions shared by all keys:
/// every variable-length run is prefixed with its length, so runs cannot
/// alias each other, and a string is stored exactly — its length, then its
/// bytes packed eight to a word (native byte order, the last word
/// zero-padded) — so two keys are equal only if every name in them is.
///
/// A key body is written once as a generic callable over a sink and run
/// twice by serialize_words(): a WordCounter pass sizes the buffer exactly,
/// then a WordWriter pass fills it.

/// Words a string of @p bytes bytes occupies: its length plus the packed
/// bytes.
[[nodiscard]] constexpr std::size_t string_words(std::size_t bytes) {
  return 1 + (bytes + 7) / 8;
}

/// Sink that only counts the words a key body would write.
class WordCounter {
 public:
  void put(std::uint64_t /*word*/) { ++count_; }
  void put_double(double /*d*/) { ++count_; }
  void put_string(std::string_view s) { count_ += string_words(s.size()); }
  void put_run(std::span<const std::uint32_t> run) { count_ += 1 + run.size(); }

  [[nodiscard]] std::size_t count() const { return count_; }

 private:
  std::size_t count_ = 0;
};

/// Sink that appends the words to a buffer reserved up front.
class WordWriter {
 public:
  explicit WordWriter(std::size_t words) { out_.reserve(words); }

  void put(std::uint64_t word) { out_.push_back(word); }
  void put_double(double d) { put(std::bit_cast<std::uint64_t>(d)); }
  void put_string(std::string_view s) {
    put(s.size());
    for (std::size_t i = 0; i < s.size(); i += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, s.data() + i, std::min<std::size_t>(8, s.size() - i));
      put(word);
    }
  }
  /// A length-prefixed run of 32-bit values (phase rates, phase WCETs).
  void put_run(std::span<const std::uint32_t> run) {
    put(run.size());
    out_.insert(out_.end(), run.begin(), run.end());
  }

  [[nodiscard]] std::vector<std::uint64_t> take() && { return std::move(out_); }

 private:
  std::vector<std::uint64_t> out_;
};

/// Runs the key body @p body (callable with any sink) once to count its
/// words and once to write them into a buffer of exactly that size.
template <class Body>
[[nodiscard]] std::vector<std::uint64_t> serialize_words(Body&& body) {
  WordCounter counter;
  body(counter);
  WordWriter writer(counter.count());
  body(writer);
  return std::move(writer).take();
}

/// One hash step: folds a whole word into @p h.
[[nodiscard]] constexpr std::uint64_t mix_word(std::uint64_t h,
                                               std::uint64_t w) {
  h = (h ^ w) * 0x9e3779b97f4a7c15ull;
  return h ^ (h >> 32);
}

/// Bucket hash of a key's word vector. Four independent lanes take every
/// fourth word, so four multiplies are in flight instead of one chain;
/// the lanes and the length are then folded in a fixed order. Never
/// persisted and never compared in place of the words.
[[nodiscard]] inline std::uint64_t hash_words(
    std::span<const std::uint64_t> words) {
  std::uint64_t a = 0x243f6a8885a308d3ull;
  std::uint64_t b = 0x13198a2e03707344ull;
  std::uint64_t c = 0xa4093822299f31d0ull;
  std::uint64_t d = 0x082efa98ec4e6c89ull;
  std::size_t i = 0;
  for (; i + 4 <= words.size(); i += 4) {
    a = mix_word(a, words[i]);
    b = mix_word(b, words[i + 1]);
    c = mix_word(c, words[i + 2]);
    d = mix_word(d, words[i + 3]);
  }
  for (; i < words.size(); ++i) a = mix_word(a, words[i]);
  return mix_word(mix_word(mix_word(mix_word(a, words.size()), b), c), d);
}

}  // namespace rtsm
