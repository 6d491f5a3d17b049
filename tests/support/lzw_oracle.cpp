#include "support/lzw_oracle.h"

#include <algorithm>
#include <bit>

#include "bits/rng.h"
#include "lzw/dictionary.h"

namespace tdc::lzw::oracle {

namespace {

/// Picks among `buffer`'s children compatible with (value, care) per the
/// tie-break policy; kNoCode if none.
std::uint32_t pick_child(Tiebreak tiebreak, const Dictionary& dict,
                         std::uint32_t buffer, std::uint64_t value,
                         std::uint64_t care, const bits::CharCursor& cursor,
                         std::uint64_t char_index, std::uint64_t input_chars) {
  // How many of the next input characters `code`'s subtree can keep
  // matching (greedy, first compatible grandchild) — the Lookahead score.
  const auto lookahead_score = [&](std::uint32_t code) {
    constexpr int kDepth = 2;
    int score = 0;
    std::uint32_t cur = code;
    for (int d = 1; d <= kDepth && char_index + d < input_chars; ++d) {
      const auto [nv, nc] = cursor.at(char_index + d);
      std::uint32_t next = kNoCode;
      for (const auto& [ch, child] : dict.children(cur)) {
        if (((static_cast<std::uint64_t>(ch) ^ nv) & nc) == 0) {
          next = child;
          break;
        }
      }
      if (next == kNoCode) break;
      ++score;
      cur = next;
    }
    return score;
  };

  std::uint32_t best = kNoCode;
  std::uint32_t best_ch = 0;
  std::size_t best_children = 0;
  int best_score = -1;
  for (const auto& [ch, child] : dict.children(buffer)) {
    if (((static_cast<std::uint64_t>(ch) ^ value) & care) != 0) continue;
    switch (tiebreak) {
      case Tiebreak::First:
        return child;
      case Tiebreak::LowestChar:
        if (best == kNoCode || ch < best_ch) {
          best = child;
          best_ch = ch;
        }
        break;
      case Tiebreak::MostRecent:
        if (best == kNoCode || child > best) best = child;
        break;
      case Tiebreak::MostChildren: {
        const std::size_t n = dict.child_count(child);
        if (best == kNoCode || n > best_children) {
          best = child;
          best_children = n;
        }
        break;
      }
      case Tiebreak::Lookahead: {
        const int score = lookahead_score(child);
        if (score > best_score) {
          best = child;
          best_score = score;
        }
        break;
      }
    }
  }
  return best;
}

bits::TritVector prefill(const bits::TritVector& input, XAssignMode mode,
                         std::uint64_t rng_seed) {
  switch (mode) {
    case XAssignMode::Dynamic:
      break;
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

}  // namespace

EncodeResult encode(const LzwConfig& config, Tiebreak tiebreak,
                    const bits::TritVector& raw_input, XAssignMode mode,
                    std::uint64_t rng_seed) {
  config.validate();
  const bits::TritVector input = prefill(raw_input, mode, rng_seed);
  const std::uint32_t cc = config.char_bits;

  EncodeResult result;
  result.config = config;
  result.original_bits = input.size();
  result.input_chars = (input.size() + cc - 1) / cc;
  EncoderTelemetry& tel = result.telemetry;
  if (mode != XAssignMode::Dynamic) tel.x_bits_prefilled = raw_input.x_count();

  Dictionary dict(config);
  bits::CharCursor cursor(input, cc);  // feeds only the Lookahead probe
  const std::uint64_t full_care = cc >= 64 ? ~0ULL : (1ULL << cc) - 1;

  std::uint32_t width_basis = dict.size();
  auto emit = [&](std::uint32_t code) {
    result.codes.push_back(code);
    result.code_lengths.push_back(dict.length(code));
    const std::uint32_t width =
        config.variable_width
            ? std::min(static_cast<std::uint32_t>(std::bit_width(width_basis)),
                       config.code_bits())
            : config.code_bits();
    for (std::uint32_t b = width; b-- > 0;) {
      result.stream.write_bit(((code >> b) & 1u) != 0);
    }
    tel.match_chars.record(dict.length(code));
    tel.code_width_bits.record(width);
    result.longest_match_bits =
        std::max(result.longest_match_bits, dict.length_bits(code));
  };

  std::uint32_t buffer = kNoCode;
  for (std::uint64_t i = 0; i < result.input_chars; ++i) {
    const std::uint64_t pos = i * cc;
    const std::uint64_t value = input.word(pos, cc);
    const std::uint64_t care = input.care_word(pos, cc);
    const auto x_bits = static_cast<std::uint64_t>(std::popcount(full_care & ~care));
    tel.x_bits_input += x_bits;

    if (buffer == kNoCode) {
      tel.x_bits_zeroed += x_bits;
      buffer = static_cast<std::uint32_t>(value & care);
      continue;
    }
    ++(care == full_care ? tel.probes_fast : tel.probes_scan);
    const std::uint32_t child = pick_child(tiebreak, dict, buffer, value, care,
                                           cursor, i, result.input_chars);
    if (child != kNoCode) {
      ++tel.match_extensions;
      tel.x_bits_matched += x_bits;
      buffer = child;
      continue;
    }
    emit(buffer);
    tel.x_bits_zeroed += x_bits;
    const auto ch = static_cast<std::uint32_t>(value & care);  // X -> 0
    width_basis = dict.size();
    const bool was_full = dict.full();
    if (dict.add(buffer, ch) != kNoCode) ++tel.entries_added;
    if (!was_full && dict.full()) ++tel.dict_full_events;
    buffer = ch;
  }
  if (buffer != kNoCode) emit(buffer);

  result.dict_codes_used = dict.size();
  result.longest_entry_bits = dict.longest_entry_bits();
  return result;
}

}  // namespace tdc::lzw::oracle
