#ifndef TDC_CORE_FILE_IO_H
#define TDC_CORE_FILE_IO_H

#include <string>
#include <string_view>

#include "core/error.h"

namespace tdc::core {

/// Writes `bytes` to `path` whole: they go to a sibling temp file unique to
/// this process and thread (`<path>.tmp.<pid>.<thread>`), which is fsynced
/// and then renamed over `path`. A reader sees the old file, no file, or the
/// complete new one — never a partial write — and concurrent writers of the
/// same path never share a temp file. On any failure the temp file is
/// removed and the result is a typed IoError.
Status write_whole(const std::string& path, std::string_view bytes);

}  // namespace tdc::core

#endif  // TDC_CORE_FILE_IO_H
