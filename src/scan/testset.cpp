#include "scan/testset.h"

#include <stdexcept>

namespace tdc::scan {

ScanView::ScanView(const netlist::Netlist& nl) : nl_(&nl) {
  sources_.reserve(nl.inputs().size() + nl.dffs().size());
  for (const auto g : nl.inputs()) sources_.push_back(g);
  for (const auto g : nl.dffs()) sources_.push_back(g);
  position_.assign(nl.gate_count(), kNoPos);
  for (std::uint32_t i = 0; i < sources_.size(); ++i) position_[sources_[i]] = i;
}

double TestSet::x_density() const {
  const std::uint64_t total = total_bits();
  if (total == 0) return 0.0;
  std::uint64_t x = 0;
  for (const auto& c : cubes) x += c.x_count();
  return static_cast<double>(x) / static_cast<double>(total);
}

bits::TritVector TestSet::serialize() const {
  for (const auto& c : cubes) {
    if (c.size() != width) throw std::runtime_error("TestSet: cube width mismatch");
  }
  // Widths checked first, so total_bits() is the real size: one allocation,
  // then word-parallel appends.
  bits::TritVector out;
  out.reserve(total_bits());
  for (const auto& c : cubes) out.append(c);
  return out;
}

std::vector<bits::TritVector> TestSet::deserialize(
    const bits::TritVector& stream) const {
  if (width == 0 || stream.size() % width != 0) {
    throw std::runtime_error("TestSet: stream is not a whole number of patterns");
  }
  std::vector<bits::TritVector> out;
  out.reserve(stream.size() / width);
  for (std::size_t pos = 0; pos < stream.size(); pos += width) {
    out.push_back(stream.slice(pos, width));
  }
  return out;
}

TestSet TestSet::compacted(std::uint32_t window) const {
  TestSet out;
  out.circuit = circuit;
  out.width = width;
  for (const auto& cube : cubes) {
    bool merged = false;
    if (window > 0) {
      const std::size_t n = out.cubes.size();
      const std::size_t lo = n > window ? n - window : 0;
      for (std::size_t i = lo; i < n; ++i) {
        if (out.cubes[i].compatible_with(cube)) {
          out.cubes[i].merge_in(cube);
          merged = true;
          break;
        }
      }
    }
    if (!merged) out.cubes.push_back(cube);
  }
  return out;
}

TestSet TestSet::vertically_filled(double fraction, std::uint64_t seed) const {
  TestSet out;
  out.circuit = circuit;
  out.width = width;
  out.cubes.reserve(cubes.size());
  bits::Rng rng(seed);
  for (const auto& cube : cubes) {
    bits::TritVector filled = cube;
    if (fraction > 0.0) {
      for (std::size_t i = 0; i < filled.size(); ++i) {
        if (filled.get(i) != bits::Trit::X || !rng.chance(fraction)) continue;
        bits::Trit v = bits::Trit::Zero;
        if (!out.cubes.empty()) {
          const bits::Trit prev = out.cubes.back().get(i);
          if (prev != bits::Trit::X) v = prev;
        }
        filled.set(i, v);
      }
    }
    out.cubes.push_back(std::move(filled));
  }
  return out;
}

}  // namespace tdc::scan
