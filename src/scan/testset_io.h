#ifndef TDC_SCAN_TESTSET_IO_H
#define TDC_SCAN_TESTSET_IO_H

#include <iosfwd>
#include <string>
#include <string_view>

#include "scan/testset.h"

namespace tdc::scan {

/// Plain-text test-cube format (one '0'/'1'/'X' cube per line):
///
///     # opentdc test set
///     circuit s9234f
///     width 247
///     patterns 153
///     01XX...X
///     ...
///
/// The experiment drivers cache ATPG output in this format so every bench
/// binary sees identical cube sets without re-running test generation.
void write_tests(std::ostream& out, const TestSet& tests);

/// The one `.tests` parser. Lines split on '\n' (a '\r' stays part of its
/// line); empty lines and lines starting with '#' are skipped anywhere. The
/// header lines `circuit`, `width` and `patterns` come first, and
/// `patterns` ends the header; every later line is one cube, packed into
/// its planes by TritVector::from_string. Throws Error{InvalidInput} on a
/// character that is not a trit and std::runtime_error on an unknown header
/// line, a cube of the wrong width or a cube count that differs from
/// `patterns`. Header numbers never size an allocation beyond what `text`
/// can hold.
TestSet read_tests(std::string_view text);

/// Reads `in` to its end and parses it with read_tests(std::string_view).
TestSet read_tests(std::istream& in);

/// write_tests into `path`, written whole (core::write_whole); throws
/// std::runtime_error (ContainerError, IoError) when it cannot be written.
void write_tests_file(const std::string& path, const TestSet& tests);
TestSet read_tests_file(const std::string& path);

}  // namespace tdc::scan

#endif  // TDC_SCAN_TESTSET_IO_H
