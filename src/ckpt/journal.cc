#include "ckpt/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "ckpt/serial.h"

namespace govdns::ckpt {

namespace {

constexpr char kMagic[4] = {'G', 'V', 'C', 'K'};

// Slicing-by-8 loads eight input bytes as two little-endian words, as the
// GVSN layout already assumes of its host.
static_assert(std::endian::native == std::endian::little,
              "Crc32's slicing-by-8 loop assumes a little-endian host");

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

// tables[0] is the classic byte-at-a-time table; tables[k][b] is the CRC
// state after byte b followed by k zero bytes, so eight table lookups
// advance the CRC over eight bytes at once.
CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < tables.size(); ++k) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

// Writes bytes to `path` and fsyncs the file descriptor before closing, so
// a subsequent rename publishes fully-durable content.
util::Status WriteFileDurable(const std::string& path,
                              std::string_view bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return util::InternalError("open " + path + ": " + std::strerror(errno));
  }
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      return util::InternalError("write " + path + ": " + std::strerror(err));
    }
    off += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    return util::InternalError("fsync " + path + ": " + std::strerror(err));
  }
  ::close(fd);
  return util::Status::Ok();
}

// Makes the rename itself durable: without the directory fsync a crash can
// forget the directory entry even though the file's bytes are on disk.
util::Status FsyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return util::InternalError("open dir " + dir + ": " +
                               std::strerror(errno));
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    return util::InternalError("fsync dir " + dir + ": " +
                               std::strerror(err));
  }
  ::close(fd);
  return util::Status::Ok();
}

// Reads the file at `path` into `out` with one read of the size fstat
// reports, looping only on a short read. Returns false when the file cannot
// be opened; a read error keeps the bytes read so far, which the caller's
// size checks then reject.
bool ReadWholeFile(const std::string& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  struct stat st {};
  const size_t size = ::fstat(fd, &st) == 0 && st.st_size > 0
                          ? static_cast<size_t>(st.st_size)
                          : 0;
  out->resize(size);
  size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, out->data() + got, size - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  out->resize(got);
  return true;
}

// Flips one byte at `offset` in place (kCorrupt fault mode).
void FlipByteAt(const std::string& path, size_t offset) {
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) return;
  char b = 0;
  if (::pread(fd, &b, 1, static_cast<off_t>(offset)) == 1) {
    b = static_cast<char>(b ^ 0xFF);
    ::pwrite(fd, &b, 1, static_cast<off_t>(offset));
    ::fsync(fd);
  }
  ::close(fd);
}

}  // namespace

uint32_t Crc32(std::string_view bytes) {
  static const CrcTables t = MakeCrcTables();
  uint32_t c = 0xFFFFFFFFu;
  const char* p = bytes.data();
  size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = 0, hi = 0;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ static_cast<uint8_t>(*p)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

util::Status AtomicWriteFileDurable(const std::string& dir,
                                    const std::string& path,
                                    std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  GOVDNS_RETURN_IF_ERROR(WriteFileDurable(tmp, bytes));
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return util::InternalError("rename " + tmp + " -> " + path + ": " +
                               std::strerror(errno));
  }
  return FsyncDir(dir);
}

uint64_t MixFingerprint(uint64_t a, uint64_t b) {
  uint64_t state = a ^ (b + 0x9E3779B97F4A7C15ull + (a << 6) + (a >> 2));
  // One SplitMix64 round for avalanche.
  state += 0x9E3779B97F4A7C15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Journal::Journal(std::string dir, uint64_t fingerprint)
    : dir_(std::move(dir)), fingerprint_(fingerprint) {}

std::string Journal::FramePath(const std::string& name) const {
  return dir_ + "/" + name + ".ck";
}

util::Status Journal::EnsureDir() {
  if (dir_ready_) return util::Status::Ok();
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return util::InternalError("mkdir " + dir_ + ": " + ec.message());
  }
  dir_ready_ = true;
  return util::Status::Ok();
}

void Journal::Kill(uint64_t write_index, const std::string& name) {
  std::fprintf(stderr, "[ckpt] kill-point fired at write %llu (%s, %s)\n",
               static_cast<unsigned long long>(write_index),
               std::string(KillModeName(plan_.mode)).c_str(), name.c_str());
  if (plan_.exit_process) {
    std::fflush(nullptr);
    ::_exit(kKillExitCode);
  }
  throw KillPointReached(write_index, plan_.mode, name);
}

util::StatusOr<uint32_t> Journal::Commit(const std::string& name,
                                         std::string_view payload,
                                         uint32_t parent_crc) {
  GOVDNS_RETURN_IF_ERROR(EnsureDir());
  const uint64_t index = ++stats_.commits;
  const bool fire = plan_.kill_at_write != 0 && index == plan_.kill_at_write;
  if (fire && plan_.mode == KillMode::kBeforeWrite) Kill(index, name);

  const uint32_t crc = Crc32(payload);
  Writer header;
  header.Raw(std::string_view(kMagic, sizeof kMagic));
  header.U32(kFrameVersion);
  header.U64(fingerprint_);
  header.U32(parent_crc);
  header.U32(crc);
  header.U64(payload.size());
  std::string frame = header.Take();
  GOVDNS_CHECK(frame.size() == kFrameHeaderSize);
  frame.append(payload);

  const std::string tmp = dir_ + "/" + name + ".tmp";
  const std::string final_path = FramePath(name);
  GOVDNS_RETURN_IF_ERROR(WriteFileDurable(tmp, frame));
  if (plan_.fail_fsync_at_write != 0 && index == plan_.fail_fsync_at_write) {
    // Injected EIO at the temp file's fsync. The bytes may or may not be on
    // disk — fsync failure semantics promise nothing — so the only safe
    // move is to discard the temp and reject the commit outright. The
    // previous generation of <name>.ck was never touched and stays the
    // durable truth.
    ::unlink(tmp.c_str());
    ++stats_.fsync_rejected;
    return util::InternalError("fsync " + tmp +
                               ": Input/output error (injected)");
  }
  if (fire && plan_.mode == KillMode::kAfterTemp) Kill(index, name);
  if (::rename(tmp.c_str(), final_path.c_str()) != 0) {
    return util::InternalError("rename " + tmp + " -> " + final_path + ": " +
                               std::strerror(errno));
  }
  GOVDNS_RETURN_IF_ERROR(FsyncDir(dir_));
  stats_.bytes_written += frame.size();

  if (fire) {
    switch (plan_.mode) {
      case KillMode::kTruncate:
        ::truncate(final_path.c_str(), static_cast<off_t>(frame.size() / 2));
        break;
      case KillMode::kCorrupt:
        // Flip a payload byte so the CRC check must catch it (an empty
        // payload flips the stored CRC itself instead).
        FlipByteAt(final_path, payload.empty()
                                   ? kFrameHeaderSize - 12
                                   : kFrameHeaderSize + payload.size() / 2);
        break;
      default:
        break;
    }
    Kill(index, name);
  }
  return crc;
}

util::StatusOr<Journal::LoadedFrame> Journal::Load(const std::string& name,
                                                   uint32_t parent_crc) {
  const std::string path = FramePath(name);
  std::string raw;
  if (!ReadWholeFile(path, &raw)) {
    ++stats_.rejected_missing;
    return util::NotFoundError("no checkpoint frame " + path);
  }
  if (raw.size() < kFrameHeaderSize) {
    ++stats_.rejected_truncated;
    return util::DataLossError("truncated frame header in " + path);
  }
  Reader r(raw);
  if (std::memcmp(raw.data(), kMagic, sizeof kMagic) != 0) {
    ++stats_.rejected_magic;
    return util::DataLossError("bad magic in " + path);
  }
  uint8_t skip = 0;
  for (size_t i = 0; i < sizeof kMagic; ++i) r.U8(&skip);
  uint32_t version = 0, got_parent = 0, payload_crc = 0;
  uint64_t fingerprint = 0, payload_size = 0;
  if (!r.U32(&version) || !r.U64(&fingerprint) || !r.U32(&got_parent) ||
      !r.U32(&payload_crc) || !r.U64(&payload_size)) {
    ++stats_.rejected_truncated;
    return util::DataLossError("truncated frame header in " + path);
  }
  if (version != kFrameVersion) {
    ++stats_.rejected_version;
    return util::DataLossError("frame version " + std::to_string(version) +
                               " != " + std::to_string(kFrameVersion) +
                               " in " + path);
  }
  if (fingerprint != fingerprint_) {
    ++stats_.rejected_fingerprint;
    return util::DataLossError("config/world fingerprint mismatch in " + path);
  }
  if (payload_size != raw.size() - kFrameHeaderSize) {
    ++stats_.rejected_truncated;
    return util::DataLossError("payload size mismatch in " + path);
  }
  std::string_view payload(raw.data() + kFrameHeaderSize,
                           raw.size() - kFrameHeaderSize);
  if (Crc32(payload) != payload_crc) {
    ++stats_.rejected_crc;
    return util::DataLossError("payload CRC mismatch in " + path);
  }
  if (got_parent != parent_crc) {
    ++stats_.rejected_chain;
    return util::DataLossError("chain parent CRC mismatch in " + path);
  }
  ++stats_.loads_ok;
  // The payload keeps the read buffer: drop the header in place, no copy
  // into a second allocation.
  raw.erase(0, kFrameHeaderSize);
  LoadedFrame frame;
  frame.payload = std::move(raw);
  frame.crc = payload_crc;
  return frame;
}

bool Journal::Exists(const std::string& name) const {
  std::error_code ec;
  return std::filesystem::exists(FramePath(name), ec);
}

void Journal::WipeAll() {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir_, ec);
  if (ec) return;  // nothing to wipe
  for (const auto& entry : it) {
    const std::string ext = entry.path().extension().string();
    if (ext == ".ck" || ext == ".tmp") {
      std::filesystem::remove(entry.path(), ec);
    }
  }
}

}  // namespace govdns::ckpt
