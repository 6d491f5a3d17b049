#ifndef TDC_LZW_DICTIONARY_H
#define TDC_LZW_DICTIONARY_H

#include <cstdint>
#include <utility>
#include <vector>

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
/// never allocate). Child lists are intrusive — each node carries its
/// (character, next-sibling) pair in the scan-hot `sib_` array, and a parent
/// points at its first/last child — so the don't-care-aware match ("which
/// children are compatible with this ternary character?") walks an
/// insertion-ordered sibling chain through one packed 8-byte-per-node array
/// instead of chasing per-node vectors. The first character of every
/// expansion is memoized at add time, making first_char() O(1) (the decoder
/// consults it per code).
///
/// On top of the sibling chains sits an open-addressed (code, character) ->
/// child hash index sized for the whole dictionary up front, so the exact
/// match — the only query possible when a character carries no X bits — is
/// O(1) instead of O(#children). The encoder consults it first and falls
/// back to the insertion-ordered sibling scan only when X bits leave several
/// children compatible, which keeps every Tiebreak's output bit-identical.
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
  std::uint32_t last_char(std::uint32_t code) const { return sib_[code].ch; }

  /// First character of `code`'s expansion — O(1), memoized at add time.
  std::uint32_t first_char(std::uint32_t code) const;

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

  /// Forward iterator over a code's children as (character, child code)
  /// pairs, in insertion order — the sibling chain walk the tie-break scan
  /// runs. Yields by value; the pairs are synthesized from the arena.
  class ChildIterator {
   public:
    using value_type = std::pair<std::uint32_t, std::uint32_t>;

    ChildIterator(const Dictionary* dict, std::uint32_t code)
        : dict_(dict), code_(code) {}

    value_type operator*() const {
      return {dict_->sib_[code_].ch, code_};
    }
    ChildIterator& operator++() {
      code_ = dict_->sib_[code_].next;
      return *this;
    }
    bool operator!=(const ChildIterator& other) const {
      return code_ != other.code_;
    }
    bool operator==(const ChildIterator& other) const {
      return code_ == other.code_;
    }

   private:
    const Dictionary* dict_;
    std::uint32_t code_;
  };

  /// Insertion-ordered view of `code`'s children. Replaces the per-node
  /// vector-of-pairs of the previous layout; size() is O(1) (the count is
  /// maintained at add time for the MostChildren tie-break).
  class ChildRange {
   public:
    ChildRange(const Dictionary* dict, std::uint32_t code)
        : dict_(dict), code_(code) {}
    ChildIterator begin() const {
      return ChildIterator(dict_, dict_->meta_[code_].first_child);
    }
    ChildIterator end() const { return ChildIterator(dict_, kNoCode); }
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
  /// (parent, ch) child, ch < 2^C_C.
  std::uint32_t add(std::uint32_t parent, std::uint32_t ch);

  /// Longest expansion (in bits) over all currently defined codes.
  std::uint64_t longest_entry_bits() const { return longest_bits_; }

 private:
  /// Scan-hot per-code pair: the character this code appends and the next
  /// sibling under the same parent. 8 bytes, one load per scanned child.
  struct SibLink {
    std::uint32_t ch = 0;
    std::uint32_t next = kNoCode;
  };

  /// Match/expand fields: parent chain, memoized first character, expansion
  /// length, head of the child chain. 16 bytes per code.
  struct Meta {
    std::uint32_t parent = kNoCode;
    std::uint32_t root_ch = 0;  // first character of the expansion
    std::uint32_t length = 0;   // expansion length in characters
    std::uint32_t first_child = kNoCode;
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

  LzwConfig config_;
  std::vector<SibLink> sib_;
  std::vector<Meta> meta_;
  std::vector<Tail> tail_;
  std::vector<IndexSlot> index_;
  unsigned index_shift_ = 0;  // 64 - log2(index_.size())
  std::uint32_t next_code_ = 0;
  std::uint64_t longest_bits_ = 0;
};

}  // namespace tdc::lzw

#endif  // TDC_LZW_DICTIONARY_H
