#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <streambuf>
#include <typeinfo>
#include <utility>
#include <vector>

#include "bits/rng.h"
#include "bits/tritvector.h"
#include "scan/testset.h"
#include "scan/testset_io.h"

namespace tdc::scan {
namespace {

/// The line-at-a-time `.tests` reader the string_view parser replaced,
/// kept verbatim as the oracle: getline per line, istringstream per header
/// line, TritVector::from_string per cube.
TestSet legacy_read_tests(std::istream& in) {
  TestSet ts;
  std::string line;
  std::size_t expected = 0;
  bool header_done = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (!header_done) {
      std::istringstream ss(line);
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
        throw std::runtime_error("read_tests: unexpected header line: " + line);
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

/// What one reader made of a text: the set, or the exception's type and
/// message.
struct Outcome {
  std::optional<TestSet> tests;
  std::string error_type;
  std::string error_message;
};

template <class Read>
Outcome run(Read read) {
  Outcome out;
  try {
    out.tests = read();
  } catch (const std::exception& e) {
    out.error_type = typeid(e).name();
    out.error_message = e.what();
  }
  return out;
}

/// A stream buffer that cannot seek, like a pipe: read_tests(std::istream&)
/// must take its unsized path.
class ForwardOnlyBuf : public std::streambuf {
 public:
  explicit ForwardOnlyBuf(std::string text) : text_(std::move(text)) {
    setg(text_.data(), text_.data(), text_.data() + text_.size());
  }

 private:
  std::string text_;
};

/// Asserts that the string_view reader, the istream wrapper (seekable and
/// not) and the oracle agree on `text`.
void expect_same_as_oracle(const std::string& text) {
  SCOPED_TRACE("text: \"" + text.substr(0, 200) + "\"");
  const Outcome want = run([&] {
    std::istringstream in(text);
    return legacy_read_tests(in);
  });
  const Outcome got = run([&] { return read_tests(std::string_view(text)); });
  const Outcome wrapped = run([&] {
    std::istringstream in(text);
    return read_tests(in);
  });
  const Outcome piped = run([&] {
    ForwardOnlyBuf buf(text);
    std::istream in(&buf);
    return read_tests(in);
  });
  for (const Outcome* o : {&got, &wrapped, &piped}) {
    ASSERT_EQ(o->tests.has_value(), want.tests.has_value())
        << "oracle: " << want.error_message << " / new: " << o->error_message;
    if (want.tests) {
      EXPECT_EQ(o->tests->circuit, want.tests->circuit);
      EXPECT_EQ(o->tests->width, want.tests->width);
      EXPECT_EQ(o->tests->cubes, want.tests->cubes);
    } else {
      EXPECT_EQ(o->error_type, want.error_type);
      EXPECT_EQ(o->error_message, want.error_message);
    }
  }
}

std::string cube_line(std::size_t width, bits::Rng& rng) {
  static const char kTrits[] = "01X";
  std::string s(width, '0');
  for (char& c : s) c = kTrits[rng.below(3)];
  return s;
}

TEST(ReadTestsOracleTest, WellFormedSetsMatch) {
  bits::Rng rng(41);
  for (const std::size_t width : {1u, 7u, 63u, 64u, 65u, 247u}) {
    std::string text = "# opentdc test set\ncircuit c" + std::to_string(width) +
                       "\nwidth " + std::to_string(width) + "\npatterns 5\n";
    for (int i = 0; i < 5; ++i) text += cube_line(width, rng) + "\n";
    expect_same_as_oracle(text);
  }
}

TEST(ReadTestsOracleTest, LineEndingsAndSkippedLinesMatch) {
  const std::string head = "circuit c\nwidth 4\npatterns 2\n";
  // CRLF: the '\r' stays in the line — fine in the header, a bad character
  // in a cube.
  expect_same_as_oracle("circuit c\r\nwidth 4\r\npatterns 2\r\n01X0\r\n1111\r\n");
  expect_same_as_oracle("circuit c\r\nwidth 4\r\npatterns 0\r\n");
  expect_same_as_oracle("circuit c\r\n\r\nwidth 4\npatterns 0\n");
  // Missing final newline, several trailing newlines.
  expect_same_as_oracle(head + "01X0\n1111");
  expect_same_as_oracle(head + "01X0\n1111\n\n\n");
  // Blank and '#' lines after the header, between cubes; a '#' that is not
  // the first character is part of the line.
  expect_same_as_oracle(head + "\n# note\n01X0\n\n#\n1111\n");
  expect_same_as_oracle(head + "01X0\n 1111\n");
  expect_same_as_oracle(head + "01X0\n11#1\n");
  expect_same_as_oracle("");
  expect_same_as_oracle("\n\n");
  expect_same_as_oracle("# only a comment");
}

TEST(ReadTestsOracleTest, BadCharacterAtWordBoundariesMatches) {
  bits::Rng rng(42);
  for (const std::size_t at : {0u, 62u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    std::string cube = cube_line(130, rng);
    cube[at] = '2';
    expect_same_as_oracle("circuit c\nwidth 130\npatterns 1\n" + cube + "\n");
    // Bad character and wrong width on one line: the character wins.
    expect_same_as_oracle("circuit c\nwidth 131\npatterns 1\n" + cube + "\n");
  }
}

TEST(ReadTestsOracleTest, WidthAndCountMismatchesMatch) {
  expect_same_as_oracle("circuit c\nwidth 4\npatterns 1\n01X\n");
  expect_same_as_oracle("circuit c\nwidth 4\npatterns 1\n01X01\n");
  expect_same_as_oracle("circuit c\nwidth 3\npatterns 2\n01X\n");
  expect_same_as_oracle("circuit c\nwidth 3\npatterns 1\n01X\n111\n");
  expect_same_as_oracle("circuit c\nwidth 3\npatterns 18446744073709551615\n01X\n");
  expect_same_as_oracle("circuit c\nwidth 3\npatterns 99999999999999999999999\n");
  expect_same_as_oracle("circuit c\nwidth 4000000000\npatterns 4000000000\n0\n");
  expect_same_as_oracle("patterns 0\n");
  expect_same_as_oracle("patterns 1\n\n");
  expect_same_as_oracle("circuit c\nwidth 3\n");  // no patterns line
}

TEST(ReadTestsOracleTest, JunkHeaderLinesMatch) {
  for (const std::string& header : std::vector<std::string>{
           "widht 4", "width", "width abc", "width -1", "width 4x", "width\t4",
        "  width 4", "circuit", "circuit a b", "circuit\r", "patterns",
        "patterns -2", "patterns x", "\r", " ", "\t", "01X0", "WIDTH 4",
        std::string("width \0 4", 9)}) {
    SCOPED_TRACE("header line: " + header);
    expect_same_as_oracle(header + "\ncircuit c\nwidth 4\npatterns 1\n01X0\n");
    expect_same_as_oracle("circuit c\n" + header + "\npatterns 1\n01X0\n");
    expect_same_as_oracle("circuit c\nwidth 4\npatterns 1\n" + header + "\n");
  }
}

TEST(ReadTestsOracleTest, PropertyRandomDocumentsMatch) {
  // Documents spliced from well-formed and damaged lines: every outcome
  // (set or exception) must be the oracle's.
  bits::Rng rng(43);
  const std::vector<std::string> noise = {
      "", "#", "# c", "\r", "circuit x", "width 3", "width 5", "patterns 2",
      "patterns 3", "bogus", "01X", "01x-", "0121", "XXXXX", "01X\r", " 01X"};
  for (int doc = 0; doc < 3000; ++doc) {
    std::string text;
    if (rng.chance(0.7)) text = "circuit d\nwidth 3\npatterns " +
                                std::to_string(rng.below(4)) + "\n";
    const std::uint64_t lines = rng.below(7);
    for (std::uint64_t i = 0; i < lines; ++i) {
      text += rng.chance(0.5) ? cube_line(3, rng) : noise[rng.below(noise.size())];
      if (i + 1 < lines || rng.chance(0.7)) text += rng.chance(0.1) ? "\r\n" : "\n";
    }
    expect_same_as_oracle(text);
    if (HasFatalFailure()) return;
  }
}

TEST(ReadTestsTest, HugeDeclaredCountReservesOnlyWhatTheTextHolds) {
  // A hostile header must not size an allocation: the reserve is capped by
  // the payload length, so this fails with the count mismatch instead of
  // attempting a multi-terabyte reservation.
  EXPECT_THROW(read_tests(std::string_view(
                   "circuit c\nwidth 1\npatterns 1099511627776\n0\n")),
               std::runtime_error);
}

}  // namespace
}  // namespace tdc::scan
