// Crash-safe checkpoint journal (DESIGN.md §6f).
//
// A journal is a directory of framed snapshot files. Every frame carries a
// fixed 32-byte header:
//
//   magic "GVCK" | version u32 | fingerprint u64 | parent_crc u32 |
//   payload_crc u32 | payload_size u64
//
// followed by the payload bytes. Commits are durable and atomic: the frame
// is written to `<name>.tmp`, fsync'd, renamed to `<name>.ck`, and the
// directory fsync'd — a reader can only ever observe the old file, the new
// file, or (after a crash) a leftover temp it ignores. Loads re-validate
// everything: magic, version, fingerprint (the study's config/world
// identity), payload size, payload CRC, and the parent CRC linking this
// frame to the snapshot it was derived from. Any mismatch is a clean,
// counted rejection — the caller recomputes from the prior phase — never a
// crash and never silently reused stale data.
//
// Chain CRCs are content CRCs, deliberately: a phase that is re-run after
// its snapshot was corrupted reproduces the same bytes (the pipeline is
// deterministic), hence the same CRC, so later frames on disk remain valid
// against the recomputed parent and resume loses only the damaged phase.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/fault.h"
#include "util/status.h"

namespace govdns::ckpt {

// CRC-32 (IEEE 802.3, reflected, table-driven, slicing-by-8).
// Crc32("123456789") == 0xCBF43926.
uint32_t Crc32(std::string_view bytes);

// Mixes two 64-bit identities into one (order-sensitive; SplitMix64-based).
// Used to derive the journal fingerprint from world + study identities.
uint64_t MixFingerprint(uint64_t a, uint64_t b);

// Durably and atomically publishes `bytes` at `path`: writes `path`.tmp,
// fsyncs it, renames over `path`, and fsyncs the containing directory. The
// journal's frame commit and the snapshot-file writer share this path so a
// crash can only ever leave the old file, the new file, or an ignorable
// temp. `dir` must be the directory containing `path`.
util::Status AtomicWriteFileDurable(const std::string& dir,
                                    const std::string& path,
                                    std::string_view bytes);

// Version 2: payload sizes/counts are LEB128 varints (width-checked, never
// truncated); version-1 frames encoded them as raw U32s and are rejected.
inline constexpr uint32_t kFrameVersion = 2;
inline constexpr size_t kFrameHeaderSize = 32;

struct JournalStats {
  uint64_t commits = 0;        // Commit calls (write points; includes faulted)
  uint64_t bytes_written = 0;  // frame bytes that reached the final file
  uint64_t fsync_rejected = 0;  // commits aborted by an (injected) fsync EIO
  uint64_t loads_ok = 0;
  // Per-cause rejection counters: the "diagnostic metric" behind every
  // restart-from-scratch / restart-from-prior-phase decision.
  uint64_t rejected_missing = 0;
  uint64_t rejected_truncated = 0;  // short file or payload-size mismatch
  uint64_t rejected_magic = 0;
  uint64_t rejected_version = 0;
  uint64_t rejected_fingerprint = 0;
  uint64_t rejected_crc = 0;
  uint64_t rejected_chain = 0;  // parent CRC does not match expected

  uint64_t Rejections() const {
    return rejected_missing + rejected_truncated + rejected_magic +
           rejected_version + rejected_fingerprint + rejected_crc +
           rejected_chain;
  }
};

class Journal {
 public:
  // `dir` is created on first use. `fingerprint` stamps every frame and is
  // validated on every load; see set_fingerprint.
  Journal(std::string dir, uint64_t fingerprint);

  // Replaces the fingerprint before any IO has happened (the study mixes
  // its own config identity in after construction).
  void set_fingerprint(uint64_t fingerprint) { fingerprint_ = fingerprint; }
  uint64_t fingerprint() const { return fingerprint_; }

  void set_fault_plan(const CkptFaultPlan& plan) { plan_ = plan; }

  // Durably commits `payload` under `name` (stored as <name>.ck), chained
  // to `parent_crc`. Returns the payload CRC for chaining the next frame.
  // This is the journal's only write point — the fault plan counts these
  // calls and fires here.
  util::StatusOr<uint32_t> Commit(const std::string& name,
                                  std::string_view payload,
                                  uint32_t parent_crc);

  struct LoadedFrame {
    std::string payload;
    uint32_t crc = 0;
  };
  // Loads and fully validates <name>.ck against this journal's fingerprint
  // and `parent_crc`. Every failure mode returns a status (kNotFound for a
  // missing file, kDataLoss otherwise) and bumps exactly one rejection
  // counter.
  util::StatusOr<LoadedFrame> Load(const std::string& name,
                                   uint32_t parent_crc);

  bool Exists(const std::string& name) const;

  // Removes every frame and temp file in the directory; fresh-run
  // (non-resume) semantics.
  void WipeAll();

  const std::string& dir() const { return dir_; }
  const JournalStats& stats() const { return stats_; }

 private:
  std::string FramePath(const std::string& name) const;
  util::Status EnsureDir();
  // Fires the fault plan: _exit or throw, per plan.exit_process.
  [[noreturn]] void Kill(uint64_t write_index, const std::string& name);

  std::string dir_;
  uint64_t fingerprint_;
  CkptFaultPlan plan_;
  bool dir_ready_ = false;
  JournalStats stats_;
};

}  // namespace govdns::ckpt
