#include "util/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace govdns::util {

namespace {

Status Errno(const std::string& what, const std::string& path) {
  const int err = errno;
  if (err == ENOENT) return NotFoundError(what + " " + path + ": no such file");
  return DataLossError(what + " " + path + ": " + std::strerror(err));
}

}  // namespace

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    Reset();
    fallback_ = std::move(other.fallback_);
    mapped_ = other.mapped_;
    size_ = other.size_;
    data_ = mapped_ ? other.data_ : fallback_.data();
    other.data_ = nullptr;
    other.size_ = 0;
    other.mapped_ = false;
  }
  return *this;
}

void MappedFile::Reset() {
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), size_);
  }
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  fallback_.clear();
}

StatusOr<MappedFile> MappedFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Errno("open", path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const Status status = Errno("stat", path);
    ::close(fd);
    return status;
  }
  MappedFile out;
  out.size_ = static_cast<size_t>(st.st_size);
  if (out.size_ == 0) {
    // mmap(0) is EINVAL; an empty file is a valid empty view.
    ::close(fd);
    out.data_ = out.fallback_.data();
    return out;
  }
  void* addr = ::mmap(nullptr, out.size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (addr != MAP_FAILED) {
    out.data_ = static_cast<const char*>(addr);
    out.mapped_ = true;
    return out;
  }
  return OpenReadOnly(path);
}

StatusOr<MappedFile> MappedFile::OpenReadOnly(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Errno("open", path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const Status status = Errno("stat", path);
    ::close(fd);
    return status;
  }
  std::string bytes(static_cast<size_t>(st.st_size), '\0');
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::read(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status = Errno("read", path);
      ::close(fd);
      return status;
    }
    if (n == 0) {
      ::close(fd);
      return DataLossError("read " + path + ": file shrank during read");
    }
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  return FromBuffer(std::move(bytes));
}

MappedFile MappedFile::FromBuffer(std::string bytes) {
  MappedFile out;
  out.fallback_ = std::move(bytes);
  out.size_ = out.fallback_.size();
  out.data_ = out.fallback_.data();
  return out;
}

}  // namespace govdns::util
