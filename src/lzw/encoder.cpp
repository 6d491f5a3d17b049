#include "lzw/encoder.h"

#include "core/contracts.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>

#include "bits/rng.h"
#include "obs/trace.h"

namespace tdc::lzw {

namespace {

/// Applies a pre-fill mode, turning the ternary input into a fully
/// specified vector. Precondition: mode != Dynamic (the dynamic path reads
/// the caller's vector in place; see encode()).
bits::TritVector prefill(const bits::TritVector& input, XAssignMode mode,
                         std::uint64_t rng_seed) {
  switch (mode) {
    case XAssignMode::Dynamic:
      return input;
    case XAssignMode::ZeroFill:
      return input.filled(bits::Trit::Zero);
    case XAssignMode::OneFill:
      return input.filled(bits::Trit::One);
    case XAssignMode::RepeatFill:
      return input.filled_repeat_last();
    case XAssignMode::RandomFill: {
      bits::Rng rng(rng_seed);
      return input.filled_random(rng);
    }
  }
  return input;
}

/// Builds the per-stream emission histograms and the longest match after
/// the loop: match lengths are counted from the already-recorded
/// code_lengths (one array increment per code, then at most 64 O(1)
/// add_repeated folds), code widths from the small per-width count array
/// the emit path maintained. Equivalent to recording each sample inline —
/// the accumulate operations commute — but keeps the full histogram update
/// off the hot emit path.
void fold_emit_histograms(EncodeResult& result,
                          const std::array<std::uint64_t, 33>& width_counts) {
  std::array<std::uint64_t, 64> len_counts{};
  std::uint32_t longest = 0;
  for (const std::uint32_t len : result.code_lengths) {
    longest = std::max(longest, len);
    if (len < len_counts.size()) {
      ++len_counts[len];
    } else {
      result.telemetry.match_chars.record(len);  // exotic config, cold
    }
  }
  result.longest_match_bits =
      static_cast<std::uint64_t>(longest) * result.config.char_bits;
  for (std::size_t len = 0; len < len_counts.size(); ++len) {
    result.telemetry.match_chars.record_repeated(len, len_counts[len]);
  }
  for (std::size_t w = 0; w < width_counts.size(); ++w) {
    result.telemetry.code_width_bits.record_repeated(w, width_counts[w]);
  }
}

/// The characters after the current one, in input order. Every policy
/// reads ahead[0] for the index prefetch; only Lookahead scores children
/// against the window, and only it fills ahead[1] and `count` (the
/// characters that exist: fewer than two near the end of the input).
struct Window {
  bits::CharCursor::Char ahead[2];
  unsigned count = 0;
};

bool compatible(std::uint32_t ch, std::uint64_t value, std::uint64_t care) {
  return ((static_cast<std::uint64_t>(ch) ^ value) & care) == 0;
}

// One child picker per Tiebreak. Each walks `buffer`'s insertion-ordered
// child chain and returns the compatible child its policy prefers, or
// kNoCode when none is compatible. A picker stops early only where no later
// child could change its answer.

/// First compatible child in insertion order (the oldest entry).
struct PickFirst {
  static constexpr bool kUsesWindow = false;
  static std::uint32_t pick(const Dictionary& dict, std::uint32_t buffer,
                            std::uint64_t value, std::uint64_t care,
                            const Window& /*window*/) {
    for (const auto [ch, child] : dict.children(buffer)) {
      if (compatible(ch, value, care)) return child;
    }
    return kNoCode;
  }
};

/// Numerically smallest compatible character. Binding every X bit to 0
/// gives the smallest character any child could have, so finding it ends
/// the scan.
struct PickLowestChar {
  static constexpr bool kUsesWindow = false;
  static std::uint32_t pick(const Dictionary& dict, std::uint32_t buffer,
                            std::uint64_t value, std::uint64_t care,
                            const Window& /*window*/) {
    const std::uint64_t lowest = value & care;
    std::uint32_t best = kNoCode;
    std::uint32_t best_ch = 0;
    for (const auto [ch, child] : dict.children(buffer)) {
      if (!compatible(ch, value, care)) continue;
      if (ch == lowest) return child;
      if (best == kNoCode || ch < best_ch) {
        best = child;
        best_ch = ch;
      }
    }
    return best;
  }
};

/// Newest compatible entry: codes grow along a chain, so the last one.
struct PickMostRecent {
  static constexpr bool kUsesWindow = false;
  static std::uint32_t pick(const Dictionary& dict, std::uint32_t buffer,
                            std::uint64_t value, std::uint64_t care,
                            const Window& /*window*/) {
    std::uint32_t best = kNoCode;
    for (const auto [ch, child] : dict.children(buffer)) {
      if (compatible(ch, value, care)) best = child;
    }
    return best;
  }
};

/// Compatible child with the most children of its own (the densest
/// subtree); the earliest such child on ties.
struct PickMostChildren {
  static constexpr bool kUsesWindow = false;
  static std::uint32_t pick(const Dictionary& dict, std::uint32_t buffer,
                            std::uint64_t value, std::uint64_t care,
                            const Window& /*window*/) {
    std::uint32_t best = kNoCode;
    std::uint32_t best_children = 0;
    for (const auto [ch, child] : dict.children(buffer)) {
      if (!compatible(ch, value, care)) continue;
      const std::uint32_t n = dict.child_count(child);
      if (best == kNoCode || n > best_children) {
        best = child;
        best_children = n;
      }
    }
    return best;
  }
};

/// Compatible child whose subtree keeps matching the window's characters
/// furthest (greedy, first compatible grandchild per step, depth 2); the
/// earliest such child on ties. A child that matches the whole window
/// cannot be beaten.
struct PickLookahead {
  static constexpr bool kUsesWindow = true;
  static unsigned score(const Dictionary& dict, std::uint32_t code,
                        const Window& window) {
    unsigned matched = 0;
    for (; matched < window.count; ++matched) {
      const bits::CharCursor::Char& c = window.ahead[matched];
      code = PickFirst::pick(dict, code, c.value, c.care, window);
      if (code == kNoCode) break;
    }
    return matched;
  }

  static std::uint32_t pick(const Dictionary& dict, std::uint32_t buffer,
                            std::uint64_t value, std::uint64_t care,
                            const Window& window) {
    std::uint32_t best = kNoCode;
    unsigned best_score = 0;
    for (const auto [ch, child] : dict.children(buffer)) {
      if (!compatible(ch, value, care)) continue;
      const unsigned s = score(dict, child, window);
      if (best == kNoCode || s > best_score) {
        best = child;
        best_score = s;
        if (s == window.count) break;
      }
    }
    return best;
  }
};

/// The match loop, instantiated once per picker, with and without a step
/// observer: without one, the loop keeps no per-step record at all.
template <class Pick, bool kObserving>
EncodeResult encode_loop(const LzwConfig& config, const bits::TritVector& input,
                         const StepObserver& observer) {
  const std::uint32_t cc = config.char_bits;

  EncodeResult result;
  result.config = config;
  result.original_bits = input.size();
  result.input_chars = (input.size() + cc - 1) / cc;
  const std::uint64_t n = result.input_chars;
  // Worst case one code per character (no compression): size once so the
  // emit path never reallocates.
  result.codes.reserve(n);
  result.code_lengths.reserve(n);

  Dictionary dict(config);
  const std::uint32_t initial_codes = dict.size();
  const bool initially_full = dict.full();
  bits::CharCursor cursor(input, cc);
  const std::uint64_t full_care = cc >= 64 ? ~0ULL : (1ULL << cc) - 1;
  const std::uint32_t fixed_width = config.code_bits();
  const bool variable_width = config.variable_width;

  // Variable-width basis: the decoder's dictionary lags the encoder's by
  // exactly one insertion when it reads a code (it learns the entry for
  // emission k only while processing emission k+1), so each code must be
  // sized by the dictionary state *before* the encoder's latest add —
  // the classic LZW width-change timing.
  EncoderTelemetry& tel = result.telemetry;
  // Telemetry discipline for this loop: anything derivable from loop
  // invariants is reconstructed after the loop (probes = chars - 1,
  // extensions = chars - codes, x_input = x_count + tail padding), and the
  // X-bit split is counted where a character's X bits are *zeroed* — the
  // cold start/emit branches — with the matched total derived as
  // x_input - x_zeroed, because every character is consumed by exactly one
  // branch. The match branch, the hottest code in the repo, carries zero
  // added work. The only live counter is n_probes_fast, in the index arm,
  // which serves about 1 % of the characters of real test sets.
  std::uint64_t n_probes_fast = 0, n_x_zeroed = 0;
  // Per-emit histogram samples are counted into this plain array (one
  // increment each — code widths never exceed 32 bits) and folded into the
  // code_width_bits histogram after the loop with add_repeated(); a full
  // histogram add per emission is measurable in micro_codec. match_chars is
  // rebuilt from result.code_lengths the same way.
  std::array<std::uint64_t, 33> width_counts{};
  std::uint32_t width_basis = dict.size();
  auto emit = [&](std::uint32_t code) {
    result.codes.push_back(code);
    result.code_lengths.push_back(dict.length(code));
    // Clamp at C_E: once the dictionary is full, codes stay below N even
    // though bit_width(N) would be one wider.
    const std::uint32_t width =
        variable_width
            ? std::min(static_cast<std::uint32_t>(std::bit_width(width_basis)),
                       fixed_width)
            : fixed_width;
    result.stream.write(code, width);
    ++width_counts[width];
  };

  // The cursor runs ahead of the loop: `cur` is character i and
  // window.ahead[] holds i+1 and, for Lookahead, i+2 (zero past the end).
  // Lookahead scores children from the window, and once `buffer` settles
  // the loop prefetches the next iteration's hash-probe home slot when
  // character i+1 is fully specified — the only case that probes the index
  // — so the likely cache miss overlaps the current character's emit/add
  // work. The other policies keep one character ahead: fewer live values
  // keep the loop's state in registers.
  bits::CharCursor::Char cur{};
  Window window;
  if (n > 0) cur = cursor.next();
  if (n > 1) window.ahead[0] = cursor.next();
  if (Pick::kUsesWindow && n > 2) window.ahead[1] = cursor.next();

  std::uint32_t buffer = kNoCode;
  if (n > 0) {
    // First character of the message: bind its X bits (to 0) and start
    // the match at the corresponding literal root.
    n_x_zeroed += static_cast<std::uint64_t>(std::popcount(full_care & ~cur.care));
    buffer = static_cast<std::uint32_t>(cur.value & cur.care);
    if constexpr (kObserving) {
      observer(EncoderStep{.char_index = 0, .char_value = cur.value,
                           .char_care = cur.care, .buffer_after = buffer});
    }
  }
  for (std::uint64_t i = 1; i < n; ++i) {
    // Slide the window one character: i becomes current.
    cur = window.ahead[0];
    if constexpr (Pick::kUsesWindow) {
      window.ahead[0] = window.ahead[1];
      window.ahead[1] = i + 2 < n ? cursor.next() : bits::CharCursor::Char{};
    } else {
      window.ahead[0] = i + 1 < n ? cursor.next() : bits::CharCursor::Char{};
    }
    const std::uint64_t value = cur.value;
    const std::uint64_t care = cur.care;
    const std::uint32_t buffer_before = buffer;
    std::uint32_t emitted = kNoCode;
    std::uint32_t new_entry = kNoCode;

    std::uint32_t child;
    if (care == full_care) {
      // Fully specified character: exactly one child can be compatible, so
      // every Tiebreak agrees and the O(1) hash probe replaces the chain
      // walk. Only this arm counts probes — the scan total is derived.
      ++n_probes_fast;
      child = dict.child(buffer, static_cast<std::uint32_t>(value));
    } else {
      if constexpr (Pick::kUsesWindow) {
        const std::uint64_t left = n - 1 - i;
        window.count = left < 2 ? static_cast<unsigned>(left) : 2u;
      }
      child = Pick::pick(dict, buffer, value, care, window);
    }
    if (child != kNoCode) {
      // The (Buffer, Input) pair exists (for some legal X binding): keep
      // matching. The X bits are hereby bound to the child's character.
      buffer = child;
    } else {
      // No compatible child: emit Buffer, create the (Buffer, Input) entry
      // with a concrete binding of the X bits, and restart the match there.
      emit(buffer);
      emitted = buffer;
      n_x_zeroed += static_cast<std::uint64_t>(std::popcount(full_care & ~care));
      const auto ch = static_cast<std::uint32_t>(value & care);  // X -> 0
      width_basis = dict.size();
      new_entry = dict.add(buffer, ch);
      buffer = ch;
    }
    if (i + 1 < n && window.ahead[0].care == full_care) {
      dict.prefetch_child(buffer, static_cast<std::uint32_t>(window.ahead[0].value));
    }
    if constexpr (kObserving) {
      observer(EncoderStep{.char_index = i, .char_value = value,
                           .char_care = care, .buffer_before = buffer_before,
                           .buffer_after = buffer, .emitted = emitted,
                           .new_entry = new_entry});
    }
  }
  if (buffer != kNoCode) {
    emit(buffer);
    if constexpr (kObserving) {
      observer(EncoderStep{.char_index = n, .buffer_before = buffer,
                           .buffer_after = kNoCode, .emitted = buffer});
    }
  }
  // Reconstruct the derivable counters from loop invariants: every character
  // after the first probes exactly once, a probe either extends or ends a
  // match (the final emit is outside the loop), every X bit — including
  // the X padding of a partial tail character — is bound exactly once
  // (either to a matched child on the hot branch or to 0 on a cold branch),
  // the dictionary grows by one per successful add and never shrinks, and
  // "full" is entered at most once and never left.
  const std::uint64_t probes = n > 0 ? n - 1 : 0;
  tel.probes_fast = n_probes_fast;
  tel.probes_scan = probes - n_probes_fast;
  tel.match_extensions = n - result.codes.size();
  tel.x_bits_input = input.x_count() + (n * cc - input.size());
  tel.x_bits_zeroed = n_x_zeroed;
  tel.x_bits_matched = tel.x_bits_input - n_x_zeroed;
  tel.entries_added = dict.size() - initial_codes;
  tel.dict_full_events = !initially_full && dict.full() ? 1 : 0;
  fold_emit_histograms(result, width_counts);

  result.dict_codes_used = dict.size();
  result.longest_entry_bits = dict.longest_entry_bits();
  return result;
}

template <class Pick>
EncodeResult encode_with(const LzwConfig& config, const bits::TritVector& input,
                         const StepObserver& observer) {
  return observer ? encode_loop<Pick, true>(config, input, observer)
                  : encode_loop<Pick, false>(config, input, observer);
}

/// The match loop for `tiebreak`.
EncodeResult encode_with(Tiebreak tiebreak, const LzwConfig& config,
                         const bits::TritVector& input,
                         const StepObserver& observer) {
  switch (tiebreak) {
    case Tiebreak::First:
      return encode_with<PickFirst>(config, input, observer);
    case Tiebreak::LowestChar:
      return encode_with<PickLowestChar>(config, input, observer);
    case Tiebreak::MostRecent:
      return encode_with<PickMostRecent>(config, input, observer);
    case Tiebreak::MostChildren:
      return encode_with<PickMostChildren>(config, input, observer);
    case Tiebreak::Lookahead:
      return encode_with<PickLookahead>(config, input, observer);
  }
  return encode_with<PickFirst>(config, input, observer);
}

}  // namespace

EncodeResult Encoder::encode(const bits::TritVector& raw_input, XAssignMode mode,
                             std::uint64_t rng_seed,
                             const StepObserver& observer) const {
  obs::TraceSpan span("lzw.encode");
  // Dynamic mode — the paper's method and the hot configuration — reads the
  // caller's vector in place; only the pre-fill strawmen materialize a
  // resolved copy.
  bits::TritVector filled;
  const bits::TritVector* input = &raw_input;
  if (mode != XAssignMode::Dynamic) {
    filled = prefill(raw_input, mode, rng_seed);
    input = &filled;
  }
  EncodeResult result = encode_with(tiebreak_, config_, *input, observer);
  if (mode != XAssignMode::Dynamic) {
    // A pre-fill mode resolved every X bit before the loop saw the stream.
    result.telemetry.x_bits_prefilled = raw_input.x_count();
  }
  // O(1) exit contracts, outside every loop (§10 discipline): a code never
  // expands from fewer characters than it emits, and with fixed-width
  // packing the stream is exactly codes * C_E bits — the paper's central
  // bit-accounting relation.
  TDC_ENSURE(result.codes.size() <= result.input_chars,
             "encode emitted more codes than input characters");
  TDC_ENSURE(config_.variable_width ||
                 result.stream.bit_count() ==
                     result.codes.size() * config_.code_bits(),
             "fixed-width stream must hold exactly codes * C_E bits");
  span.arg("input_bits", result.original_bits);
  span.arg("codes", static_cast<std::uint64_t>(result.codes.size()));
  return result;
}

}  // namespace tdc::lzw
