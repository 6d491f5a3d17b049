#include "core/file_io.h"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>

namespace tdc::core {

Status write_whole(const std::string& path, std::string_view bytes) {
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(std::hash<std::thread::id>{}(std::this_thread::get_id()));
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  bool ok = file != nullptr &&
            std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size() &&
            std::fflush(file) == 0 && ::fsync(::fileno(file)) == 0;
  if (file != nullptr && std::fclose(file) != 0) ok = false;
  if (ok && std::rename(tmp.c_str(), path.c_str()) == 0) return {};
  Error e{ErrorKind::IoError, "cannot write " + path + ": " + std::strerror(errno)};
  std::remove(tmp.c_str());
  return e;
}

}  // namespace tdc::core
