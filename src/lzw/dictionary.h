#ifndef TDC_LZW_DICTIONARY_H
#define TDC_LZW_DICTIONARY_H

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/contracts.h"
#include "lzw/config.h"

namespace tdc::lzw {

/// Sentinel meaning "no code".
inline constexpr std::uint32_t kNoCode = 0xffffffffu;

/// The LZW dictionary, shared in structure between compressor and
/// decompressor so the two stay in lockstep (the paper's central
/// requirement: "the same algorithm is used for both compression and
/// decompression").
///
/// Codes [0, 2^C_C) are implicit literals. Every explicit entry is a
/// (parent code, appended character) pair; its uncompressed expansion is the
/// parent's expansion followed by the character. Entry expansions are capped
/// at max_entry_chars() characters — the embedded-memory word bound that the
/// paper introduces so the hardware can fetch a whole expansion in one read.
///
/// The structure is a trie stored as contiguous arenas rather than per-node
/// heap objects: all fields of code `c` live at index `c` of a handful of
/// flat arrays, sized once for the full dictionary in the constructor (adds
/// never allocate). Child lists are intrusive, insertion-ordered chains of
/// 8-byte (child code, child character) links: `first_[p]` is the link to
/// parent p's first child and `next_[c]` the link to c's next sibling. A
/// link carries the character of the child it points at, so the
/// don't-care-aware match ("which children are compatible with this ternary
/// character?") tests a child with the one load that reaches it. The
/// compatible child is usually the first one, and then a match step costs
/// one dependent load, `first_[buffer]`. The first character of every
/// expansion is memoized at add time, making first_char() O(1) (the decoder
/// consults it per code).
///
/// On top of the chains sits an open-addressed (code, character) -> child
/// hash index sized for the whole dictionary up front, so the exact match —
/// the only query possible when a character carries no X bits — is O(1)
/// instead of O(#children). The encoder consults it for fully specified
/// characters and walks the insertion-ordered chain only when X bits leave
/// several children compatible, which keeps every Tiebreak's output
/// bit-identical.
class Dictionary {
 public:
  explicit Dictionary(const LzwConfig& config);

  const LzwConfig& config() const { return config_; }

  /// Total codes currently defined (literals + entries).
  std::uint32_t size() const { return next_code_; }

  /// Next code index that add() would define, or kNoCode when full.
  std::uint32_t next_code() const { return full() ? kNoCode : next_code_; }

  /// True when all N codes are defined (dictionary freeze).
  bool full() const { return next_code_ >= config_.dict_size; }

  /// True iff `code` is currently defined.
  bool defined(std::uint32_t code) const { return code < next_code_; }

  /// Expansion length of `code` in characters (1 for literals).
  std::uint32_t length(std::uint32_t code) const { return meta_[code].length; }

  /// Expansion length of `code` in bits.
  std::uint64_t length_bits(std::uint32_t code) const {
    return static_cast<std::uint64_t>(length(code)) * config_.char_bits;
  }

  /// Parent of `code` (kNoCode for literals).
  std::uint32_t parent(std::uint32_t code) const { return meta_[code].parent; }

  /// Last character of `code`'s expansion (the literal value for literals).
  std::uint32_t last_char(std::uint32_t code) const { return meta_[code].ch; }

  /// First character of `code`'s expansion — O(1), memoized at add time.
  /// Inline: the decoder asks once per code.
  std::uint32_t first_char(std::uint32_t code) const {
    TDC_REQUIRE(defined(code), "first_char: undefined code");
    return meta_[code].root_ch;
  }

  /// Full expansion of `code`, first character first.
  std::vector<std::uint32_t> expand(std::uint32_t code) const;

  /// Child of `code` along exactly character `ch`, or kNoCode. O(1) via the
  /// hash index; inline because it is the encoder's per-character fast path.
  std::uint32_t child(std::uint32_t code, std::uint32_t ch) const {
    const std::uint64_t key = index_key(code, ch);
    const std::size_t mask = index_.size() - 1;
    for (std::size_t slot = index_home(key);; slot = (slot + 1) & mask) {
      if (index_[slot].key == key) return index_[slot].child;
      if (index_[slot].key == kEmptySlot) return kNoCode;
    }
  }

  /// Prefetches the hash-index home slot of (code, ch) — issued by the
  /// encoder one character ahead so the probe's cache miss overlaps the
  /// current character's work.
  void prefetch_child(std::uint32_t code, std::uint32_t ch) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&index_[index_home(index_key(code, ch))], 0, 1);
#else
    (void)code;
    (void)ch;
#endif
  }

 private:
  /// One link of a child chain: a child's code and the character it
  /// appends, or code == kNoCode at the end of the chain.
  struct ChildLink {
    std::uint32_t code = kNoCode;
    std::uint32_t ch = 0;
  };

 public:
  /// Forward iterator over a code's children as (character, child code)
  /// pairs, in insertion order — the chain walk the tie-break pickers run.
  /// Yields by value from the current link; each step is one load.
  class ChildIterator {
   public:
    using value_type = std::pair<std::uint32_t, std::uint32_t>;

    ChildIterator(const Dictionary* dict, ChildLink link)
        : dict_(dict), link_(link) {}

    value_type operator*() const { return {link_.ch, link_.code}; }
    ChildIterator& operator++() {
      link_ = dict_->next_[link_.code];
      return *this;
    }
    bool operator!=(const ChildIterator& other) const {
      return link_.code != other.link_.code;
    }
    bool operator==(const ChildIterator& other) const {
      return link_.code == other.link_.code;
    }

   private:
    const Dictionary* dict_;
    ChildLink link_;
  };

  /// Insertion-ordered view of `code`'s children; size() is O(1) (the count
  /// is maintained at add time for the MostChildren tie-break).
  class ChildRange {
   public:
    ChildRange(const Dictionary* dict, std::uint32_t code)
        : dict_(dict), code_(code) {}
    ChildIterator begin() const {
      return ChildIterator(dict_, dict_->first_[code_]);
    }
    ChildIterator end() const { return ChildIterator(dict_, ChildLink{}); }
    std::size_t size() const { return dict_->tail_[code_].count; }
    bool empty() const { return size() == 0; }

   private:
    const Dictionary* dict_;
    std::uint32_t code_;
  };

  /// All (character, child code) pairs under `code`, in insertion order.
  ChildRange children(std::uint32_t code) const { return ChildRange(this, code); }

  /// Number of children of `code` — O(1).
  std::uint32_t child_count(std::uint32_t code) const {
    return tail_[code].count;
  }

  /// True when appending one character to `code` would still fit in a
  /// dictionary entry (the C_MDATA bound).
  bool extendable(std::uint32_t code) const {
    return length(code) + 1 <= config_.max_entry_chars();
  }

  /// Defines the next code as (parent, ch) if the dictionary is not full and
  /// the entry fits the C_MDATA bound. Returns the new code or kNoCode when
  /// nothing was added. Precondition: defined(parent), no existing
  /// (parent, ch) child, ch < 2^C_C. The refusal is inline: once the
  /// dictionary freezes, every add the encoder makes is refused.
  std::uint32_t add(std::uint32_t parent, std::uint32_t ch) {
    assert(defined(parent));
    assert(ch < config_.literal_count());
    assert(child(parent, ch) == kNoCode);
    if (full() || !extendable(parent)) return kNoCode;
    return append(parent, ch);
  }

  /// Longest expansion (in bits) over all currently defined codes.
  std::uint64_t longest_entry_bits() const { return longest_bits_; }

 private:
  /// Match/expand fields: parent chain, memoized first character, expansion
  /// length, the character this code appends. 16 bytes per code.
  struct Meta {
    std::uint32_t parent = kNoCode;
    std::uint32_t root_ch = 0;  // first character of the expansion
    std::uint32_t length = 0;   // expansion length in characters
    std::uint32_t ch = 0;       // last character of the expansion
  };

  /// Append-side bookkeeping, touched only by add() and MostChildren.
  struct Tail {
    std::uint32_t last_child = kNoCode;
    std::uint32_t count = 0;
  };

  /// Open-addressed hash slots for the (parent, ch) -> child index. The
  /// table is sized once in the constructor (power of two, load factor
  /// <= 1/2 at dictionary freeze) and never rehashes.
  struct IndexSlot {
    std::uint64_t key = kEmptySlot;
    std::uint32_t child = kNoCode;
  };
  static constexpr std::uint64_t kEmptySlot = ~0ULL;

  static std::uint64_t index_key(std::uint32_t parent, std::uint32_t ch) {
    return (static_cast<std::uint64_t>(parent) << 32) | ch;
  }
  std::size_t index_home(std::uint64_t key) const {
    // Fibonacci multiplicative hash onto the power-of-two table.
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >>
                                    index_shift_);
  }
  void index_insert(std::uint32_t parent, std::uint32_t ch, std::uint32_t child);

  /// add() once it has decided to define the entry.
  std::uint32_t append(std::uint32_t parent, std::uint32_t ch);

  LzwConfig config_;
  std::vector<ChildLink> first_;  // per parent: its first child
  std::vector<ChildLink> next_;   // per code: its next sibling
  std::vector<Meta> meta_;
  std::vector<Tail> tail_;
  std::vector<IndexSlot> index_;
  unsigned index_shift_ = 0;  // 64 - log2(index_.size())
  std::uint32_t next_code_ = 0;
  std::uint64_t longest_bits_ = 0;
};

}  // namespace tdc::lzw

#endif  // TDC_LZW_DICTIONARY_H
