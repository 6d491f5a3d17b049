#include "scan/testset_io.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/file_io.h"

namespace tdc::scan {

void write_tests(std::ostream& out, const TestSet& tests) {
  out << "# opentdc test set\n";
  out << "circuit " << tests.circuit << "\n";
  out << "width " << tests.width << "\n";
  out << "patterns " << tests.cubes.size() << "\n";
  for (const auto& c : tests.cubes) out << c.to_string() << "\n";
}

namespace {

/// One header line. The header is a handful of lines, so it keeps the
/// stream extraction rules (whitespace skipping, numeric conversion) that
/// define the format.
void parse_header_line(std::string_view line, TestSet& ts, std::size_t& expected,
                       bool& header_done) {
  std::istringstream ss{std::string(line)};
  std::string key;
  ss >> key;
  if (key == "circuit") {
    ss >> ts.circuit;
  } else if (key == "width") {
    ss >> ts.width;
  } else if (key == "patterns") {
    ss >> expected;
    header_done = true;
  } else {
    throw std::runtime_error("read_tests: unexpected header line: " +
                             std::string(line));
  }
}

/// Reads `in` to its end. A seekable stream (file, string stream) is read
/// with one sized read into one allocation: growing a buffer chunk by chunk
/// takes fresh pages on every regrowth and costs several times the parse.
std::string slurp(std::istream& in) {
  const std::istream::pos_type start = in.tellg();
  if (start != std::istream::pos_type(-1) && in.seekg(0, std::ios::end)) {
    const std::istream::pos_type end = in.tellg();
    in.seekg(start);
    std::string text(static_cast<std::size_t>(end - start), '\0');
    in.read(text.data(), static_cast<std::streamsize>(text.size()));
    text.resize(static_cast<std::size_t>(in.gcount()));
    return text;
  }
  in.clear();
  std::ostringstream text;
  text << in.rdbuf();
  return std::move(text).str();
}

}  // namespace

TestSet read_tests(std::string_view text) {
  TestSet ts;
  std::size_t expected = 0;
  bool header_done = false;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    if (!header_done) {
      parse_header_line(line, ts, expected, header_done);
      if (header_done) {
        // Every cube takes width characters plus a newline of what is left,
        // so the declared count cannot reserve more than the text holds.
        const std::size_t left = pos < text.size() ? text.size() - pos : 0;
        ts.cubes.reserve(std::min<std::size_t>(
            expected, left / (static_cast<std::size_t>(ts.width) + 1) + 1));
      }
      continue;
    }
    bits::TritVector cube = bits::TritVector::from_string(line);
    if (cube.size() != ts.width) {
      throw std::runtime_error("read_tests: cube width mismatch");
    }
    ts.cubes.push_back(std::move(cube));
  }
  if (ts.cubes.size() != expected) {
    throw std::runtime_error("read_tests: pattern count mismatch");
  }
  return ts;
}

TestSet read_tests(std::istream& in) { return read_tests(slurp(in)); }

void write_tests_file(const std::string& path, const TestSet& tests) {
  std::ostringstream out;
  write_tests(out, tests);
  core::write_whole(path, std::move(out).str()).ok_or_throw();
}

TestSet read_tests_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("read_tests_file: cannot open " + path);
  return read_tests(in);
}

}  // namespace tdc::scan
