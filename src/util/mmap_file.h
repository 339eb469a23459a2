// Read-only memory-mapped file with a graceful read fallback.
//
// MappedFile::Open maps the whole file PROT_READ/MAP_PRIVATE and exposes it
// as a string_view. On filesystems where mmap fails (some network or
// synthetic filesystems return ENODEV/EINVAL), it silently falls back to
// reading the file into an owned buffer — callers get the same string_view
// either way and can ask mapped() when they need to know which path served
// them (benchmarks do; correctness code must not care).
//
// The mapping is private and read-only, so a MappedFile can be shared by
// value-captured views across threads without synchronization once Open
// returns.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "util/status.h"

namespace govdns::util {

class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile() { Reset(); }

  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  // Maps `path` read-only; falls back to a plain read on mmap failure.
  // kNotFound for a missing file, kDataLoss for IO errors.
  static StatusOr<MappedFile> Open(const std::string& path);

  // As Open, but never mmaps — always reads into an owned buffer (the
  // fallback path).
  static StatusOr<MappedFile> OpenReadOnly(const std::string& path);

  // Serves `bytes`, an image built in memory, exactly as a file read
  // through the fallback path.
  static MappedFile FromBuffer(std::string bytes);

  std::string_view view() const { return {data_, size_}; }
  const char* data() const { return data_; }
  size_t size() const { return size_; }
  // True when the bytes come from an actual mmap (zero-copy), false when
  // they were read into fallback_.
  bool mapped() const { return mapped_; }

 private:
  void Reset();

  const char* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;
  std::string fallback_;  // owns the bytes when !mapped_
};

}  // namespace govdns::util
