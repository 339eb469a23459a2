// Unit tests for the checkpoint layer: serialization, frame CRCs, the
// journal's atomic-commit/validated-load protocol, every corruption
// rejection mode, the kill-point fault injector's on-disk effects, and the
// cut cache's export/restore, change deltas + negative bound (DESIGN.md §6f).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/fault.h"
#include "ckpt/journal.h"
#include "ckpt/serial.h"
#include "core/cut_cache.h"
#include "core/mining.h"
#include "core/resolver.h"
#include "core/study_ckpt.h"
#include "tests/mined_datasets.h"
#include "util/rng.h"

namespace govdns {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& tag) {
  std::string dir =
      (fs::temp_directory_path() / ("govdns_ckpt_" + tag)).string();
  fs::remove_all(dir);
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// ---- serialization --------------------------------------------------------

TEST(CkptSerialTest, RoundTripsEveryPrimitive) {
  ckpt::Writer w;
  w.U8(0xAB);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFull);
  w.I32(-42);
  w.I64(-9e15);
  w.Bool(true);
  w.Bool(false);
  w.F64(3.25);
  w.Str("hello");
  w.Str("");
  const std::string bytes = w.Take();

  ckpt::Reader r(bytes);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int32_t i32 = 0;
  int64_t i64 = 0;
  bool b1 = false, b2 = true;
  double f = 0;
  std::string s1, s2;
  EXPECT_TRUE(r.U8(&u8));
  EXPECT_TRUE(r.U32(&u32));
  EXPECT_TRUE(r.U64(&u64));
  EXPECT_TRUE(r.I32(&i32));
  EXPECT_TRUE(r.I64(&i64));
  EXPECT_TRUE(r.Bool(&b1));
  EXPECT_TRUE(r.Bool(&b2));
  EXPECT_TRUE(r.F64(&f));
  EXPECT_TRUE(r.Str(&s1));
  EXPECT_TRUE(r.Str(&s2));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i32, -42);
  EXPECT_EQ(i64, static_cast<int64_t>(-9e15));
  EXPECT_TRUE(b1);
  EXPECT_FALSE(b2);
  EXPECT_EQ(f, 3.25);
  EXPECT_EQ(s1, "hello");
  EXPECT_EQ(s2, "");
}

TEST(CkptSerialTest, TruncationLatchesFailure) {
  ckpt::Writer w;
  w.U32(7);
  std::string bytes = w.Take();
  bytes.pop_back();

  ckpt::Reader r(bytes);
  uint32_t v = 99;
  EXPECT_FALSE(r.U32(&v));
  EXPECT_EQ(v, 99u);  // untouched on failure
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.AtEnd());
  // Latched: even a 1-byte read fails now.
  uint8_t b = 0;
  EXPECT_FALSE(r.U8(&b));
}

TEST(CkptSerialTest, StringLengthBeyondBufferIsRejected) {
  ckpt::Writer w;
  w.Size(1000);  // claims 1000 bytes that are not there
  w.Raw("abc");
  const std::string bytes = w.Take();
  ckpt::Reader r(bytes);
  std::string s;
  EXPECT_FALSE(r.Str(&s));
  EXPECT_FALSE(r.ok());
}

TEST(CkptSerialTest, SizeRoundTripsBeyond32Bits) {
  // The regression the widened codec exists for: a length crossing 4Gi must
  // round-trip exactly. Under the old `U32(static_cast<uint32_t>(n))`
  // encoding, (1 << 32) + 5 came back as 5 — silent wraparound, not an
  // error — and the checkpoint decoded to a plausible but wrong world.
  const uint64_t big = (uint64_t(1) << 32) + 5;
  ASSERT_NE(static_cast<uint32_t>(big), big);  // what the old path lost

  ckpt::Writer w;
  w.Size(0);
  w.Size(127);           // 1-byte varint boundary
  w.Size(128);           // 2-byte varint boundary
  w.Size(big);
  w.Size(uint64_t(1) << 63);
  w.Size(UINT64_MAX);
  const std::string bytes = w.Take();

  ckpt::Reader r(bytes);
  uint64_t v = 0;
  EXPECT_TRUE(r.Size(&v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(r.Size(&v));
  EXPECT_EQ(v, 127u);
  EXPECT_TRUE(r.Size(&v));
  EXPECT_EQ(v, 128u);
  EXPECT_TRUE(r.Size(&v));
  EXPECT_EQ(v, big);
  EXPECT_TRUE(r.Size(&v));
  EXPECT_EQ(v, uint64_t(1) << 63);
  EXPECT_TRUE(r.Size(&v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_TRUE(r.AtEnd());
}

TEST(CkptSerialTest, U32CheckedRefusesOverflowLoudly) {
  ckpt::Writer w;
  EXPECT_TRUE(w.U32Checked(0xFFFFFFFFull));  // largest value that fits
  const size_t size_before = w.size();
  EXPECT_FALSE(w.U32Checked(uint64_t(1) << 32));
  EXPECT_EQ(w.size(), size_before);  // nothing written on refusal
  EXPECT_FALSE(w.ok());
  EXPECT_EQ(w.status().code(), util::ErrorCode::kInvalidArgument);
}

TEST(CkptSerialTest, NonMinimalVarintIsRejected) {
  // 0x80 0x00 spells 0 in two bytes; only the one-byte 0x00 is legal, so a
  // corrupted stream cannot alias a valid one.
  const std::string bytes("\x80\x00", 2);
  ckpt::Reader r(bytes);
  uint64_t v = 99;
  EXPECT_FALSE(r.Size(&v));
  EXPECT_EQ(v, 99u);
  EXPECT_FALSE(r.ok());
}

TEST(CkptSerialTest, OversizedVarintIsRejected) {
  // Eleven continuation bytes claim a >64-bit value.
  const std::string bytes("\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\x01", 11);
  ckpt::Reader r(bytes);
  uint64_t v = 0;
  EXPECT_FALSE(r.Size(&v));
  EXPECT_FALSE(r.ok());
}

TEST(CkptSerialTest, CountRejectsResizeBomb) {
  // A count must be coverable by the remaining bytes (>= 1 byte/element), so
  // a corrupted count can never drive a huge allocation.
  ckpt::Writer w;
  w.Size(1U << 20);  // one million elements...
  w.Raw("abc");      // ...backed by three bytes
  const std::string bytes = w.Take();
  ckpt::Reader r(bytes);
  size_t n = 0;
  EXPECT_FALSE(r.Count(&n));
  EXPECT_FALSE(r.ok());
}

TEST(CkptSerialTest, BoolRejectsOutOfRangeByte) {
  ckpt::Writer w;
  w.U8(2);
  const std::string bytes = w.Take();
  ckpt::Reader r(bytes);
  bool b = false;
  EXPECT_FALSE(r.Bool(&b));
}

TEST(CkptSerialTest, TrailingGarbageFailsAtEnd) {
  ckpt::Writer w;
  w.U8(1);
  w.U8(2);
  const std::string bytes = w.Take();
  ckpt::Reader r(bytes);
  uint8_t b = 0;
  EXPECT_TRUE(r.U8(&b));
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.AtEnd());  // one byte left over
}

// ---- CRC / fingerprint ----------------------------------------------------

TEST(CkptCrcTest, MatchesKnownVector) {
  // The IEEE CRC-32 check value.
  EXPECT_EQ(ckpt::Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(ckpt::Crc32(""), 0x00000000u);
  EXPECT_NE(ckpt::Crc32("a"), ckpt::Crc32("b"));
}

// The byte-at-a-time loop Crc32 ran before slicing-by-8: the reference the
// fast path must match on every length and alignment.
uint32_t BytewiseCrc32(std::string_view bytes) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t c = 0xFFFFFFFFu;
  for (const char ch : bytes) {
    c = table[(c ^ static_cast<uint8_t>(ch)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::string RandomBytes(util::Rng& rng, size_t size) {
  std::string out(size, '\0');
  for (char& ch : out) ch = static_cast<char>(rng.NextU64());
  return out;
}

TEST(CkptTest, Crc32MatchesBytewiseReference) {
  EXPECT_EQ(ckpt::Crc32("123456789"), 0xCBF43926u);
  util::Rng rng(0xC3C32u);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 257; ++len) {
      const std::string buf = RandomBytes(rng, offset + len);
      const std::string_view bytes(buf.data() + offset, len);
      ASSERT_EQ(ckpt::Crc32(bytes), BytewiseCrc32(bytes))
          << "offset " << offset << " length " << len;
    }
  }
  const std::string big = RandomBytes(rng, (5u << 20) + 3);
  EXPECT_EQ(ckpt::Crc32(big), BytewiseCrc32(big));
}

TEST(CkptCrcTest, MixFingerprintIsOrderSensitive) {
  EXPECT_NE(ckpt::MixFingerprint(1, 2), ckpt::MixFingerprint(2, 1));
  EXPECT_NE(ckpt::MixFingerprint(1, 2), ckpt::MixFingerprint(1, 3));
}

TEST(CkptCrcTest, MiningConfigFingerprintSeesEveryField) {
  core::MiningConfig base;
  const uint64_t fp = core::MiningConfigFingerprint(base);
  core::MiningConfig changed = base;
  changed.stability_days = 9;
  EXPECT_NE(core::MiningConfigFingerprint(changed), fp);
  changed = base;
  changed.statistic = core::YearlyStatistic::kMean;
  EXPECT_NE(core::MiningConfigFingerprint(changed), fp);
  changed = base;
  changed.require_stable_for_active = true;
  EXPECT_NE(core::MiningConfigFingerprint(changed), fp);
  EXPECT_EQ(core::MiningConfigFingerprint(base), fp);  // stable
}

// ---- journal: commit/load protocol ---------------------------------------

TEST(CkptJournalTest, CommitThenLoadRoundTripsChainedFrames) {
  const std::string dir = TempDir("roundtrip");
  ckpt::Journal journal(dir, /*fingerprint=*/0x1234);

  auto crc1 = journal.Commit("alpha", "first payload", /*parent_crc=*/0);
  ASSERT_TRUE(crc1.ok());
  auto crc2 = journal.Commit("beta", "second payload", *crc1);
  ASSERT_TRUE(crc2.ok());

  auto f1 = journal.Load("alpha", 0);
  ASSERT_TRUE(f1.ok());
  EXPECT_EQ(f1->payload, "first payload");
  EXPECT_EQ(f1->crc, *crc1);
  auto f2 = journal.Load("beta", *crc1);
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(f2->payload, "second payload");

  EXPECT_EQ(journal.stats().commits, 2u);
  EXPECT_EQ(journal.stats().loads_ok, 2u);
  EXPECT_EQ(journal.stats().Rejections(), 0u);
  // No temp files linger after a clean commit.
  EXPECT_FALSE(fs::exists(dir + "/alpha.tmp"));
  fs::remove_all(dir);
}

TEST(CkptJournalTest, MissingFrameIsCountedNotFatal) {
  const std::string dir = TempDir("missing");
  ckpt::Journal journal(dir, 1);
  auto frame = journal.Load("nope", 0);
  EXPECT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), util::ErrorCode::kNotFound);
  EXPECT_EQ(journal.stats().rejected_missing, 1u);
  fs::remove_all(dir);
}

TEST(CkptJournalTest, TruncatedFrameRejected) {
  const std::string dir = TempDir("trunc");
  ckpt::Journal journal(dir, 1);
  ASSERT_TRUE(journal.Commit("f", "some payload bytes", 0).ok());
  std::string raw = ReadFile(dir + "/f.ck");
  WriteFile(dir + "/f.ck", raw.substr(0, raw.size() / 2));
  auto frame = journal.Load("f", 0);
  EXPECT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), util::ErrorCode::kDataLoss);
  EXPECT_EQ(journal.stats().rejected_truncated, 1u);
  fs::remove_all(dir);
}

TEST(CkptJournalTest, FlippedPayloadByteRejectedByCrc) {
  const std::string dir = TempDir("crcflip");
  ckpt::Journal journal(dir, 1);
  ASSERT_TRUE(journal.Commit("f", "some payload bytes", 0).ok());
  std::string raw = ReadFile(dir + "/f.ck");
  raw[ckpt::kFrameHeaderSize + 3] ^= 0x01;  // one payload bit
  WriteFile(dir + "/f.ck", raw);
  auto frame = journal.Load("f", 0);
  EXPECT_FALSE(frame.ok());
  EXPECT_EQ(journal.stats().rejected_crc, 1u);
  fs::remove_all(dir);
}

TEST(CkptJournalTest, WrongFormatVersionRejected) {
  const std::string dir = TempDir("version");
  ckpt::Journal journal(dir, 1);
  ASSERT_TRUE(journal.Commit("f", "payload", 0).ok());
  std::string raw = ReadFile(dir + "/f.ck");
  raw[4] = static_cast<char>(ckpt::kFrameVersion + 1);  // version u32 LSB
  WriteFile(dir + "/f.ck", raw);
  auto frame = journal.Load("f", 0);
  EXPECT_FALSE(frame.ok());
  EXPECT_EQ(journal.stats().rejected_version, 1u);
  fs::remove_all(dir);
}

TEST(CkptJournalTest, BadMagicRejected) {
  const std::string dir = TempDir("magic");
  ckpt::Journal journal(dir, 1);
  ASSERT_TRUE(journal.Commit("f", "payload", 0).ok());
  std::string raw = ReadFile(dir + "/f.ck");
  raw[0] = 'X';
  WriteFile(dir + "/f.ck", raw);
  auto frame = journal.Load("f", 0);
  EXPECT_FALSE(frame.ok());
  EXPECT_EQ(journal.stats().rejected_magic, 1u);
  fs::remove_all(dir);
}

TEST(CkptJournalTest, FingerprintMismatchRejected) {
  const std::string dir = TempDir("fp");
  {
    ckpt::Journal writer(dir, /*fingerprint=*/0xAAAA);
    ASSERT_TRUE(writer.Commit("f", "payload", 0).ok());
  }
  ckpt::Journal reader(dir, /*fingerprint=*/0xBBBB);
  auto frame = reader.Load("f", 0);
  EXPECT_FALSE(frame.ok());
  EXPECT_EQ(reader.stats().rejected_fingerprint, 1u);
  fs::remove_all(dir);
}

TEST(CkptJournalTest, ChainParentMismatchRejected) {
  const std::string dir = TempDir("chain");
  ckpt::Journal journal(dir, 1);
  ASSERT_TRUE(journal.Commit("f", "payload", 0).ok());
  auto frame = journal.Load("f", /*parent_crc=*/0x12345678);
  EXPECT_FALSE(frame.ok());
  EXPECT_EQ(journal.stats().rejected_chain, 1u);
  fs::remove_all(dir);
}

TEST(CkptJournalTest, WipeAllRemovesFramesAndTemps) {
  const std::string dir = TempDir("wipe");
  ckpt::Journal journal(dir, 1);
  ASSERT_TRUE(journal.Commit("f", "payload", 0).ok());
  WriteFile(dir + "/stale.tmp", "partial");
  journal.WipeAll();
  EXPECT_FALSE(journal.Exists("f"));
  EXPECT_FALSE(fs::exists(dir + "/stale.tmp"));
  fs::remove_all(dir);
}

// ---- fault injection: on-disk state per kill mode ------------------------

ckpt::CkptFaultPlan PlanAt(uint64_t index, ckpt::KillMode mode) {
  ckpt::CkptFaultPlan plan;
  plan.kill_at_write = index;
  plan.mode = mode;
  plan.exit_process = false;  // throw, so the test survives
  return plan;
}

TEST(CkptFaultTest, BeforeWriteLeavesNothingOnDisk) {
  const std::string dir = TempDir("kill_before");
  ckpt::Journal journal(dir, 1);
  journal.set_fault_plan(PlanAt(1, ckpt::KillMode::kBeforeWrite));
  EXPECT_THROW(
      { auto r = journal.Commit("f", "payload", 0); (void)r; },
      ckpt::KillPointReached);
  EXPECT_FALSE(fs::exists(dir + "/f.ck"));
  EXPECT_FALSE(fs::exists(dir + "/f.tmp"));
  fs::remove_all(dir);
}

TEST(CkptFaultTest, AfterTempLeavesOnlyTempFile) {
  const std::string dir = TempDir("kill_temp");
  ckpt::Journal journal(dir, 1);
  journal.set_fault_plan(PlanAt(1, ckpt::KillMode::kAfterTemp));
  EXPECT_THROW(
      { auto r = journal.Commit("f", "payload", 0); (void)r; },
      ckpt::KillPointReached);
  EXPECT_FALSE(fs::exists(dir + "/f.ck"));
  EXPECT_TRUE(fs::exists(dir + "/f.tmp"));
  // A later load ignores the orphan temp entirely.
  auto frame = journal.Load("f", 0);
  EXPECT_FALSE(frame.ok());
  EXPECT_EQ(journal.stats().rejected_missing, 1u);
  fs::remove_all(dir);
}

TEST(CkptFaultTest, TruncateModeDamagesCommittedFrame) {
  const std::string dir = TempDir("kill_trunc");
  ckpt::Journal journal(dir, 1);
  journal.set_fault_plan(PlanAt(1, ckpt::KillMode::kTruncate));
  EXPECT_THROW(
      { auto r = journal.Commit("f", "a payload long enough to halve", 0); (void)r; },
      ckpt::KillPointReached);
  ASSERT_TRUE(fs::exists(dir + "/f.ck"));
  auto frame = journal.Load("f", 0);
  EXPECT_FALSE(frame.ok());
  EXPECT_EQ(journal.stats().rejected_truncated, 1u);
  fs::remove_all(dir);
}

TEST(CkptFaultTest, CorruptModeFlipsOnePayloadByte) {
  const std::string dir = TempDir("kill_corrupt");
  ckpt::Journal journal(dir, 1);
  journal.set_fault_plan(PlanAt(1, ckpt::KillMode::kCorrupt));
  EXPECT_THROW(
      { auto r = journal.Commit("f", "a payload long enough to corrupt", 0); (void)r; },
      ckpt::KillPointReached);
  auto frame = journal.Load("f", 0);
  EXPECT_FALSE(frame.ok());
  EXPECT_EQ(journal.stats().rejected_crc, 1u);
  fs::remove_all(dir);
}

TEST(CkptFaultTest, AfterCommitLeavesValidFrame) {
  const std::string dir = TempDir("kill_after");
  ckpt::Journal journal(dir, 1);
  journal.set_fault_plan(PlanAt(1, ckpt::KillMode::kAfterCommit));
  EXPECT_THROW(
      { auto r = journal.Commit("f", "payload", 0); (void)r; },
      ckpt::KillPointReached);
  auto frame = journal.Load("f", 0);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->payload, "payload");
  fs::remove_all(dir);
}

TEST(CkptFaultTest, InjectedFsyncFailureRejectsCommitKeepsPriorGeneration) {
  const std::string dir = TempDir("fsync_fail");
  ckpt::Journal journal(dir, 1);
  ASSERT_TRUE(journal.Commit("f", "generation one", 0).ok());

  ckpt::CkptFaultPlan plan;
  plan.fail_fsync_at_write = 2;
  journal.set_fault_plan(plan);
  auto rejected = journal.Commit("f", "generation two", 0);
  EXPECT_FALSE(rejected.ok());  // an IO error, not a crash: status, no throw
  EXPECT_EQ(journal.stats().fsync_rejected, 1u);
  // No half-committed residue: the temp is gone and the prior generation is
  // still the durable, loadable truth.
  EXPECT_FALSE(fs::exists(dir + "/f.tmp"));
  auto frame = journal.Load("f", 0);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->payload, "generation one");

  // With the fault cleared the same commit goes through.
  journal.set_fault_plan(ckpt::CkptFaultPlan{});
  ASSERT_TRUE(journal.Commit("f", "generation two", 0).ok());
  auto fresh = journal.Load("f", 0);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->payload, "generation two");
  fs::remove_all(dir);
}

TEST(CkptFaultTest, FsyncFailureFiresOnlyAtItsIndex) {
  const std::string dir = TempDir("fsync_index");
  ckpt::Journal journal(dir, 1);
  ckpt::CkptFaultPlan plan;
  plan.fail_fsync_at_write = 3;
  journal.set_fault_plan(plan);
  ASSERT_TRUE(journal.Commit("a", "1", 0).ok());
  ASSERT_TRUE(journal.Commit("b", "2", 0).ok());
  EXPECT_FALSE(journal.Commit("c", "3", 0).ok());
  EXPECT_FALSE(fs::exists(dir + "/c.ck"));
  // The write index keeps advancing past the faulted commit.
  ASSERT_TRUE(journal.Commit("c", "3", 0).ok());
  fs::remove_all(dir);
}

TEST(CkptFaultTest, PlanFiresOnlyAtItsIndex) {
  const std::string dir = TempDir("kill_index");
  ckpt::Journal journal(dir, 1);
  journal.set_fault_plan(PlanAt(3, ckpt::KillMode::kAfterCommit));
  ASSERT_TRUE(journal.Commit("a", "1", 0).ok());
  ASSERT_TRUE(journal.Commit("b", "2", 0).ok());
  EXPECT_THROW(
      { auto r = journal.Commit("c", "3", 0); (void)r; },
      ckpt::KillPointReached);
  fs::remove_all(dir);
}

// ---- shared cut cache: export/restore + negative bound --------------------

dns::Name N(const char* s) { return dns::Name::FromString(s); }

TEST(CutCacheCkptTest, ExportIsSortedRestoreDropsNegatives) {
  core::SharedCutCache cache;
  core::SharedCutCache::Entry pos;
  pos.ns_names = {N("ns1.gov.aa")};
  pos.addresses = {geo::IPv4(0x01020304u)};
  cache.Publish(N("gov.aa"), pos);
  cache.Publish(N("gov.bb"), pos);
  cache.PublishUnreachable(N("dead.gov.cc"), {N("ns.dead.gov.cc")});

  auto exported = cache.Export();
  ASSERT_EQ(exported.size(), 3u);
  EXPECT_TRUE(std::is_sorted(
      exported.begin(), exported.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));

  core::SharedCutCache fresh;
  EXPECT_EQ(fresh.Restore(exported), 2u);  // the negative is dropped
  EXPECT_EQ(fresh.size(), 2u);
  auto hit = fresh.Lookup(N("gov.aa"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->reachable);
  EXPECT_EQ(hit->ns_names, pos.ns_names);
  EXPECT_FALSE(fresh.Lookup(N("dead.gov.cc")).has_value());
}

TEST(CutCacheCkptTest, TakeChangesReportsEachWriteOnce) {
  // One stripe with room for one negative: each new negative evicts the
  // previous one.
  core::SharedCutCache cache(/*stripes=*/1, /*max_negatives_per_stripe=*/1);
  core::SharedCutCache::Entry pos;
  pos.ns_names = {N("ns1.gov.aa")};
  pos.addresses = {geo::IPv4(0x01020304u)};

  // Entries added by Restore are not changes.
  EXPECT_EQ(cache.Restore({{N("gov.rr"), pos}}), 1u);
  EXPECT_TRUE(cache.TakeChanges().empty());

  // Reachable writes are reported, name-sorted; a never-reachable negative
  // yields nothing.
  cache.Publish(N("gov.bb"), pos);
  cache.Publish(N("gov.aa"), pos);
  cache.PublishUnreachable(N("dead.gov.cc"), {N("ns.dead.gov.cc")});
  auto changes = cache.TakeChanges();
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_EQ(changes[0].first, N("gov.aa"));
  EXPECT_EQ(changes[0].second, pos);
  EXPECT_EQ(changes[1].first, N("gov.bb"));
  // A second drain with no writes in between is empty.
  EXPECT_TRUE(cache.TakeChanges().empty());

  // A slot rewritten twice is reported once.
  cache.Publish(N("gov.aa"), pos);
  cache.Publish(N("gov.aa"), pos);
  changes = cache.TakeChanges();
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].first, N("gov.aa"));

  // A flip from reachable to unreachable yields a tombstone, also for a
  // restored entry.
  cache.PublishUnreachable(N("gov.bb"), {N("ns1.gov.aa")});
  cache.PublishUnreachable(N("gov.rr"), {});  // evicts gov.bb
  changes = cache.TakeChanges();
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_EQ(changes[0].first, N("gov.bb"));
  EXPECT_FALSE(changes[0].second.reachable);
  EXPECT_TRUE(changes[0].second.ns_names.empty());
  EXPECT_EQ(changes[1].first, N("gov.rr"));
  EXPECT_FALSE(changes[1].second.reachable);
  EXPECT_TRUE(cache.TakeChanges().empty());

  // The tombstone survives the cut's eviction before the drain.
  cache.PublishUnreachable(N("gov.aa"), {});      // flips, evicts gov.rr
  cache.PublishUnreachable(N("dead.gov.zz"), {});  // evicts gov.aa
  EXPECT_FALSE(cache.Lookup(N("gov.aa")).has_value());
  changes = cache.TakeChanges();
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].first, N("gov.aa"));
  EXPECT_FALSE(changes[0].second.reachable);

  // A flipped cut that comes back before the drain is reported as its new
  // positive, not as a tombstone.
  cache.Publish(N("gov.ee"), pos);
  ASSERT_EQ(cache.TakeChanges().size(), 1u);
  cache.PublishUnreachable(N("gov.ee"), {});
  cache.Publish(N("gov.ee"), pos);
  changes = cache.TakeChanges();
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].first, N("gov.ee"));
  EXPECT_TRUE(changes[0].second.reachable);
}

TEST(CutCacheCkptTest, RestoreNeverOverwritesLiveEntries) {
  core::SharedCutCache cache;
  core::SharedCutCache::Entry live;
  live.ns_names = {N("ns-live.gov.aa")};
  cache.Publish(N("gov.aa"), live);

  core::SharedCutCache::Entry stale;
  stale.ns_names = {N("ns-stale.gov.aa")};
  stale.reachable = true;
  EXPECT_EQ(cache.Restore({{N("gov.aa"), stale}}), 0u);
  auto hit = cache.Lookup(N("gov.aa"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->ns_names, live.ns_names);
}

TEST(CutCacheCkptTest, NegativeBoundEvictsCanonicallySmallest) {
  // One stripe so the bound applies globally; capacity 2.
  core::SharedCutCache cache(/*stripes=*/1, /*max_negatives_per_stripe=*/2);
  cache.PublishUnreachable(N("a.gov"), {});
  cache.PublishUnreachable(N("b.gov"), {});
  EXPECT_EQ(cache.stats().negative_evictions, 0u);

  // Full: the canonically smallest negative (a) goes.
  cache.PublishUnreachable(N("c.gov"), {});
  EXPECT_EQ(cache.stats().negative_evictions, 1u);
  EXPECT_FALSE(cache.Lookup(N("a.gov")).has_value());
  EXPECT_TRUE(cache.Lookup(N("b.gov")).has_value());

  // Full again: now b is the smallest.
  cache.PublishUnreachable(N("d.gov"), {});
  EXPECT_EQ(cache.stats().negative_evictions, 2u);
  EXPECT_FALSE(cache.Lookup(N("b.gov")).has_value());
  EXPECT_TRUE(cache.Lookup(N("c.gov")).has_value());
  EXPECT_TRUE(cache.Lookup(N("d.gov")).has_value());

  // Republishing an existing negative does not evict anything.
  cache.PublishUnreachable(N("c.gov"), {});
  EXPECT_EQ(cache.stats().negative_evictions, 2u);
  // Positives are never evicted by the negative bound.
  core::SharedCutCache::Entry pos;
  pos.ns_names = {N("ns1.gov.aa")};
  cache.Publish(N("gov.aa"), pos);
  EXPECT_TRUE(cache.Lookup(N("gov.aa")).has_value());
}

TEST(CutCacheCkptTest, NegativeEvictionTiebreakIsStable) {
  // The victim must be the canonically smaller name — an explicit order,
  // not publish order or whatever the stripe container happens to iterate
  // first — so 1-worker and N-worker runs that race publishes into the same
  // stripe evict identically.
  for (bool publish_z_first : {true, false}) {
    core::SharedCutCache cache(/*stripes=*/1, /*max_negatives_per_stripe=*/2);
    if (publish_z_first) {
      cache.PublishUnreachable(N("z.gov"), {});
      cache.PublishUnreachable(N("m.gov"), {});
    } else {
      cache.PublishUnreachable(N("m.gov"), {});
      cache.PublishUnreachable(N("z.gov"), {});
    }
    cache.PublishUnreachable(N("q.gov"), {});
    EXPECT_FALSE(cache.Lookup(N("m.gov")).has_value())
        << "publish_z_first=" << publish_z_first;
    EXPECT_TRUE(cache.Lookup(N("z.gov")).has_value());
    EXPECT_TRUE(cache.Lookup(N("q.gov")).has_value());
  }
}

TEST(CutCacheCountersTest, CountsEveryCallUnderFourThreads) {
  // Four threads publish and look up known cuts on a default-striped cache
  // whose small negative bound makes the stripes evict.
  constexpr int kThreads = 4;
  constexpr int kCuts = 120;
  constexpr int kNegatives = 60;
  constexpr size_t kBound = 2;
  core::SharedCutCache cache(/*stripes=*/16, kBound);
  auto cut = [](int t, int i) {
    return N(("z" + std::to_string(i) + ".t" + std::to_string(t) + ".gov")
                 .c_str());
  };
  auto dead = [](int t, int i) {
    return N(("dead" + std::to_string(i) + ".t" + std::to_string(t) + ".gov")
                 .c_str());
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      core::SharedCutCache::Entry pos;
      pos.ns_names = {N("ns1.gov.aa")};
      for (int i = 0; i < kCuts; ++i) {
        EXPECT_FALSE(cache.Lookup(cut(t, i)).has_value());  // a miss
        cache.Publish(cut(t, i), pos);
        EXPECT_TRUE(cache.Lookup(cut(t, i)).has_value());   // a hit
        core::ResolverCounters effort;
        effort.queries = static_cast<uint64_t>(i % 7);
        effort.timeouts = 1;
        cache.ChargeInfra(effort);
      }
      for (int i = 0; i < kNegatives; ++i) {
        cache.PublishUnreachable(dead(t, i), {});
        // A negative hit, or a miss once another publish evicted it.
        (void)cache.Lookup(dead(t, i));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // The negatives alone, one thread, on the same stripes: evictions depend
  // only on how many distinct negatives each stripe received.
  core::SharedCutCache serial(/*stripes=*/16, kBound);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kNegatives; ++i) serial.PublishUnreachable(dead(t, i), {});
  }

  const core::CutCacheStats stats = cache.stats();
  const uint64_t lookups = kThreads * (2 * kCuts + kNegatives);
  EXPECT_EQ(stats.hits + stats.misses + stats.negative_hits, lookups);
  EXPECT_EQ(stats.hits, uint64_t{kThreads} * kCuts);
  EXPECT_GE(stats.misses, uint64_t{kThreads} * kCuts);
  EXPECT_EQ(stats.publishes, uint64_t{kThreads} * kCuts);
  EXPECT_EQ(stats.negative_publishes, uint64_t{kThreads} * kNegatives);
  EXPECT_GT(stats.negative_evictions, 0u);
  EXPECT_EQ(stats.negative_evictions, serial.stats().negative_evictions);
  uint64_t charged = 0;
  for (int i = 0; i < kCuts; ++i) charged += static_cast<uint64_t>(i % 7);
  EXPECT_EQ(stats.infra.queries, kThreads * charged);
  EXPECT_EQ(stats.infra.timeouts, uint64_t{kThreads} * kCuts);
}

TEST(CutCacheCkptTest, ResolverNegativeDefaultsAreBounded) {
  core::ResolverOptions options;
  EXPECT_GT(options.negative_cache_ttl_ms, 0u);
  EXPECT_GT(options.max_negative_cuts, 0u);
}

// ---- StudyCheckpoint payload codecs --------------------------------------

core::MeasurementResult FabricateResult(int salt) {
  core::MeasurementResult res;
  res.domain = N(("d" + std::to_string(salt) + ".gov.aa").c_str());
  res.parent_located = true;
  res.parent_zone = N("gov.aa");
  res.parent_responded = true;
  res.parent_has_records = (salt % 2) == 0;
  res.parent_answered_authoritatively = (salt % 3) == 0;
  res.parent_ns = {N("ns1.gov.aa"), N("ns2.gov.aa")};
  res.child_ns = {N("ns1.gov.aa")};
  res.child_any_authoritative = true;
  core::NsHostResult host;
  host.host = N("ns1.gov.aa");
  host.addresses = {geo::IPv4(0x0A000001u + static_cast<uint32_t>(salt))};
  host.status = core::NsHostStatus::kAuthoritative;
  host.in_parent_set = true;
  host.in_child_set = true;
  res.hosts.push_back(host);
  if (salt % 2 == 0) {
    dns::SoaRdata soa;
    soa.mname = N("ns1.gov.aa");
    soa.rname = N("admin.gov.aa");
    soa.serial = 2020010100u + static_cast<uint32_t>(salt);
    soa.refresh = 7200;
    soa.retry = 900;
    soa.expire = 1209600;
    soa.minimum = 300;
    res.soa = soa;
  }
  res.rounds = 1 + (salt % 2);
  res.query_stats.queries = 10 + static_cast<uint64_t>(salt);
  res.query_stats.retries = 2;
  res.query_stats.negative_cache_hits = 1;
  res.degraded = (salt % 5) == 0;
  res.logical_ms = 1000 + static_cast<uint64_t>(salt);
  return res;
}

// Brings a StudyCheckpoint to the post-mining chain state with tiny
// fabricated snapshots, so batch/cache frames can be exercised in isolation.
// `edit`, when set, alters the mined dataset before it is saved.
void SeedPhases(core::StudyCheckpoint& ckpt,
                const std::function<void(core::MinedDataset&)>& edit = {}) {
  core::StudyCheckpoint::SelectionSnapshot sel;
  core::SeedDomain seed;
  seed.country = 0;
  seed.d_gov = N("gov.aa");
  sel.seeds.push_back(seed);
  sel.stats.total = 1;
  ckpt.SaveSelection(sel);

  core::MinedDataset mined = testing::SeedPhasesDataset();
  if (edit) edit(mined);
  ckpt.SaveMining(mined, /*profile=*/{});
}

TEST(StudyCheckpointTest, BatchResultsRoundTripBitForBit) {
  const std::string dir = TempDir("batch_rt");
  std::vector<core::MeasurementResult> batch;
  for (int i = 0; i < 5; ++i) batch.push_back(FabricateResult(i));
  {
    core::StudyCheckpoint ckpt(dir, /*config_fingerprint=*/77);
    ckpt.Bind(/*study_fingerprint=*/11);
    SeedPhases(ckpt);
    ckpt.AppendActiveBatch(0, batch);
  }
  core::StudyCheckpointOptions opts;
  opts.resume = true;
  core::StudyCheckpoint resumed(dir, 77, opts);
  resumed.Bind(11);
  ASSERT_TRUE(resumed.TryLoadSelection().has_value());
  ASSERT_TRUE(resumed.TryLoadMining(core::MiningConfig{}).has_value());
  std::vector<core::MeasurementResult> loaded =
      resumed.LoadActiveBatches(/*expected_total=*/5);
  ASSERT_EQ(loaded.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(loaded[static_cast<size_t>(i)], batch[static_cast<size_t>(i)])
        << "result " << i;
  }
  EXPECT_EQ(resumed.stats().batches_loaded, 1);
  EXPECT_EQ(resumed.stats().results_loaded, 5);
  fs::remove_all(dir);
}

TEST(StudyCheckpointTest, MiningConfigMismatchIsARejectedDecode) {
  const std::string dir = TempDir("cfg_mismatch");
  {
    core::StudyCheckpoint ckpt(dir, 77);
    ckpt.Bind(11);
    SeedPhases(ckpt);  // saved under the default MiningConfig
  }
  core::StudyCheckpointOptions opts;
  opts.resume = true;
  core::StudyCheckpoint resumed(dir, 77, opts);
  resumed.Bind(11);
  ASSERT_TRUE(resumed.TryLoadSelection().has_value());
  core::MiningConfig other;
  other.stability_days = 30;
  EXPECT_FALSE(resumed.TryLoadMining(other).has_value());
  EXPECT_EQ(resumed.stats().decode_rejects, 1);
  fs::remove_all(dir);
}

// Writes SeedPhasesDataset's mining frame with `years` rows per domain, in
// the frame's layout (EncodeMiningPayload in core/study_ckpt.cc): the
// dataset's columns cannot hold a domain whose row count disagrees with
// the config, so this writes the frame field by field.
std::string MiningPayloadWithRows(size_t years) {
  const core::MinedDataset mined = testing::SeedPhasesDataset();
  const core::MiningConfig& c = mined.config;
  ckpt::Writer w;
  w.U8(2);  // the mining frame's kind tag
  w.I32(c.first_year);
  w.I32(c.last_year);
  w.I32(c.stability_days);
  w.U8(static_cast<uint8_t>(c.statistic));
  w.I32(c.active_window.first);
  w.I32(c.active_window.last);
  w.Bool(c.filter_disposable);
  w.Bool(c.require_stable_for_active);
  w.Size(1);
  w.Str("ns1.gov.aa");
  w.Size(1);
  w.U8(3);  // d0.gov.aa
  for (const char* label : {"d0", "gov", "aa"}) w.Str(label);
  w.I32(0);  // country
  w.I32(0);  // seed_index
  w.Size(years);
  for (size_t y = 0; y < years; ++y) {
    w.I32(y == 0 ? 1 : 0);
    w.Size(y == 0 ? 1 : 0);
    if (y == 0) w.I32(0);
  }
  w.Bool(false);  // disposable
  w.Bool(true);   // in_active_window
  w.I64(1);       // seeds
  for (int i = 0; i < 2; ++i) w.I64(0);  // entries scanned, unstable
  w.I64(1);       // domains
  for (int i = 0; i < 2; ++i) w.I64(0);  // disposable, in the window
  w.Size(0);      // profile
  return w.Take();
}

// Journals the selection frame of SeedPhases, then `mining_payload` as the
// mining frame chained to it with valid CRCs, so only the decoder can
// refuse it. Returns the resumed checkpoint's stats after TryLoadMining,
// and whether it loaded.
bool LoadCraftedMining(const std::string& dir,
                       const std::string& mining_payload,
                       core::StudyCheckpointStats* stats) {
  {
    core::StudyCheckpoint ckpt(dir, 77);
    ckpt.Bind(11);
    SeedPhases(ckpt);
  }
  ckpt::Journal journal(dir, ckpt::MixFingerprint(77, 11));
  auto selection = journal.Load("selection", 0);
  EXPECT_TRUE(selection.ok());
  if (!selection.ok()) return false;
  EXPECT_TRUE(journal.Commit("mining", mining_payload, selection->crc).ok());
  core::StudyCheckpointOptions opts;
  opts.resume = true;
  core::StudyCheckpoint resumed(dir, 77, opts);
  resumed.Bind(11);
  EXPECT_TRUE(resumed.TryLoadSelection().has_value());
  const bool loaded = resumed.TryLoadMining(core::MiningConfig{}).has_value();
  EXPECT_EQ(resumed.journal_stats().Rejections(), 0u);
  *stats = resumed.stats();
  return loaded;
}

TEST(StudyCheckpointTest, MinedIndexOutOfRangeIsARejectedDecode) {
  // The dense longitudinal analyzers index by NS id and country and walk
  // every configured year, so a frame whose dataset breaks those ranges is
  // rejected even though the frame itself validated.
  const std::vector<std::function<void(core::MinedDataset&)>> breaks = {
      [](core::MinedDataset& d) { d.ns_ids[0] = 1; },
      [](core::MinedDataset& d) { d.ns_ids[0] = -1; },
      [](core::MinedDataset& d) { d.domains[0].country = -2; },
  };
  for (size_t i = 0; i < breaks.size(); ++i) {
    const std::string dir = TempDir("mined_range_" + std::to_string(i));
    {
      core::StudyCheckpoint ckpt(dir, 77);
      ckpt.Bind(11);
      SeedPhases(ckpt, breaks[i]);
    }
    core::StudyCheckpointOptions opts;
    opts.resume = true;
    core::StudyCheckpoint resumed(dir, 77, opts);
    resumed.Bind(11);
    ASSERT_TRUE(resumed.TryLoadSelection().has_value());
    EXPECT_FALSE(resumed.TryLoadMining(core::MiningConfig{}).has_value())
        << "break " << i;
    EXPECT_EQ(resumed.stats().decode_rejects, 1) << "break " << i;
    fs::remove_all(dir);
  }
  // A domain with one year fewer than the config: written field by field,
  // next to the same frame with every year, which loads.
  const size_t years =
      static_cast<size_t>(core::MiningConfig{}.year_count());
  EXPECT_EQ(MiningPayloadWithRows(years),
            core::EncodeMiningPayload(testing::SeedPhasesDataset(), {}));
  for (const size_t rows : {years, years - 1}) {
    const std::string dir = TempDir("mined_rows");
    core::StudyCheckpointStats stats;
    EXPECT_EQ(LoadCraftedMining(dir, MiningPayloadWithRows(rows), &stats),
              rows == years)
        << rows << " rows";
    EXPECT_EQ(stats.decode_rejects, rows == years ? 0 : 1) << rows << " rows";
    fs::remove_all(dir);
  }
}

// The reachable part of a cache's Export(): what a journal warm start may
// bring back.
std::vector<std::pair<dns::Name, core::SharedCutCache::Entry>> ReachableOf(
    const core::SharedCutCache& cache) {
  auto entries = cache.Export();
  std::erase_if(entries, [](const auto& e) { return !e.second.reachable; });
  return entries;
}

// Opens `dir` as a resumed checkpoint past mining, restores its cut-cache
// deltas into `cache`, and returns the number restored.
size_t RestoreInto(core::StudyCheckpoint& resumed,
                   core::SharedCutCache* cache) {
  resumed.Bind(11);
  EXPECT_TRUE(resumed.TryLoadSelection().has_value());
  EXPECT_TRUE(resumed.TryLoadMining(core::MiningConfig{}).has_value());
  return resumed.RestoreCutCache(cache);
}

TEST(StudyCheckpointTest, CutCacheDeltasFoldToTheSnapshot) {
  const std::string dir = TempDir("cache_deltas");
  core::SharedCutCache::Entry pos;
  pos.ns_names = {N("ns1.gov.aa")};
  pos.addresses = {geo::IPv4(0x0A000001u)};
  core::SharedCutCache::Entry moved = pos;
  moved.addresses = {geo::IPv4(0x0A000002u)};
  // The reachable part of Export() at each drain.
  std::vector<std::vector<std::pair<dns::Name, core::SharedCutCache::Entry>>>
      reachable_at;
  {
    core::StudyCheckpoint ckpt(dir, 77);
    ckpt.Bind(11);
    SeedPhases(ckpt);
    core::SharedCutCache cache;
    // Delta 0: a positive and a negative that is never journaled.
    cache.Publish(N("gov.aa"), pos);
    cache.PublishUnreachable(N("dead.gov.aa"), {N("ns.dead.gov.aa")});
    ckpt.AppendCutCacheDelta(cache);
    reachable_at.push_back(ReachableOf(cache));
    // Delta 1: two more positives.
    cache.Publish(N("gov.bb"), pos);
    cache.Publish(N("gov.cc"), pos);
    ckpt.AppendCutCacheDelta(cache);
    reachable_at.push_back(ReachableOf(cache));
    // Delta 2: gov.bb flips to unreachable and gov.aa is rewritten.
    cache.PublishUnreachable(N("gov.bb"), {});
    cache.Publish(N("gov.aa"), moved);
    ckpt.AppendCutCacheDelta(cache);
    reachable_at.push_back(ReachableOf(cache));
  }
  ASSERT_EQ(reachable_at[2].size(), 2u);  // gov.aa (moved) and gov.cc
  core::StudyCheckpointOptions opts;
  opts.resume = true;
  {
    core::StudyCheckpoint resumed(dir, 77, opts);
    core::SharedCutCache cache;
    EXPECT_EQ(RestoreInto(resumed, &cache), 2u);
    EXPECT_EQ(cache.Export(), reachable_at[2]);
    auto hit = cache.Lookup(N("gov.aa"));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->addresses, moved.addresses);
    EXPECT_FALSE(cache.Lookup(N("gov.bb")).has_value());  // tombstoned
    EXPECT_FALSE(cache.Lookup(N("dead.gov.aa")).has_value());
    EXPECT_EQ(resumed.stats().cache_entries_restored, 2);
  }

  // A corrupted middle delta ends the chain: only delta 0 comes back.
  const std::string middle = dir + "/cutcache_000001.ck";
  std::string raw = ReadFile(middle);
  ASSERT_GT(raw.size(), ckpt::kFrameHeaderSize);
  raw[ckpt::kFrameHeaderSize + (raw.size() - ckpt::kFrameHeaderSize) / 2] ^=
      0x5A;
  WriteFile(middle, raw);
  {
    core::StudyCheckpoint resumed(dir, 77, opts);
    core::SharedCutCache cache;
    EXPECT_EQ(RestoreInto(resumed, &cache), reachable_at[0].size());
    EXPECT_EQ(cache.Export(), reachable_at[0]);
    EXPECT_EQ(resumed.journal_stats().rejected_crc, 1u);
    EXPECT_EQ(resumed.stats().decode_rejects, 0);
    // The next delta continues the chain after the loaded prefix.
    cache.Publish(N("gov.dd"), pos);
    resumed.AppendCutCacheDelta(cache);
  }
  {
    core::StudyCheckpoint resumed(dir, 77, opts);
    core::SharedCutCache cache;
    EXPECT_EQ(RestoreInto(resumed, &cache), 2u);  // gov.aa and gov.dd
    EXPECT_TRUE(cache.Lookup(N("gov.dd")).has_value());
    // The stale delta 2 chained to the damaged delta 1, not the new one.
    EXPECT_EQ(resumed.journal_stats().rejected_chain, 1u);
  }
  fs::remove_all(dir);
}

TEST(StudyCheckpointTest, FreshRunWipesAStaleJournal) {
  const std::string dir = TempDir("fresh_wipe");
  {
    core::StudyCheckpoint ckpt(dir, 77);
    ckpt.Bind(11);
    SeedPhases(ckpt);
  }
  // resume=false (default): Bind wipes, loads find nothing.
  core::StudyCheckpoint fresh(dir, 77);
  fresh.Bind(11);
  EXPECT_FALSE(fresh.TryLoadSelection().has_value());
  EXPECT_FALSE(fs::exists(dir + "/selection.ck"));
  fs::remove_all(dir);
}

// Writes one result in the batch frame's layout (PutResult in
// core/study_ckpt.cc): the domain label by label as given, every other
// field as in a default-constructed MeasurementResult.
void PutBareResult(ckpt::Writer& w, const std::vector<std::string>& labels) {
  w.U8(static_cast<uint8_t>(labels.size()));
  for (const std::string& label : labels) w.Str(label);
  w.Bool(false);  // parent_located
  w.U8(0);        // parent_zone: the root
  w.Bool(false);  // parent_responded
  w.Bool(false);  // parent_has_records
  w.Bool(false);  // parent_answered_authoritatively
  w.Size(0);      // parent_ns
  w.Size(0);      // child_ns
  w.Bool(false);  // child_any_authoritative
  w.Size(0);      // hosts
  w.Bool(false);  // no SOA
  w.I32(1);       // rounds
  for (int i = 0; i < 13; ++i) w.U64(0);  // query_stats
  w.Bool(false);  // degraded
  w.U64(0);       // logical_ms
  w.U8(0);        // quarantine_reason: none
}

// Journals batch 0 (two fabricated results) through the checkpoint, then
// commits a crafted batch 1 holding a good result and then one whose domain
// has `labels`, chained with valid CRCs so only the decoder can refuse it.
// Returns what a resume loads.
std::vector<core::MeasurementResult> LoadAfterCraftedBatch(
    const std::string& dir, const std::vector<std::string>& labels,
    core::StudyCheckpointStats* stats) {
  {
    core::StudyCheckpoint ckpt(dir, 77);
    ckpt.Bind(11);
    SeedPhases(ckpt);
    ckpt.AppendActiveBatch(0, {FabricateResult(0), FabricateResult(1)});
  }
  ckpt::Journal journal(dir, ckpt::MixFingerprint(77, 11));
  uint32_t crc = 0;
  for (const char* frame : {"selection", "mining", "active_000000"}) {
    auto loaded = journal.Load(frame, crc);
    EXPECT_TRUE(loaded.ok()) << frame;
    if (!loaded.ok()) return {};
    crc = loaded->crc;
  }
  ckpt::Writer w;
  w.U8(3);  // the batch frame's kind tag
  w.U64(2);
  w.Size(2);
  PutBareResult(w, {"ok", "gov", "aa"});
  PutBareResult(w, labels);
  EXPECT_TRUE(journal.Commit("active_000001", w.Take(), crc).ok());

  core::StudyCheckpointOptions opts;
  opts.resume = true;
  core::StudyCheckpoint resumed(dir, 77, opts);
  resumed.Bind(11);
  EXPECT_TRUE(resumed.TryLoadSelection().has_value());
  EXPECT_TRUE(resumed.TryLoadMining(core::MiningConfig{}).has_value());
  std::vector<core::MeasurementResult> loaded =
      resumed.LoadActiveBatches(/*expected_total=*/4);
  EXPECT_GE(loaded.capacity(), 4u);
  EXPECT_EQ(resumed.journal_stats().Rejections(), 0u);
  *stats = resumed.stats();
  return loaded;
}

TEST(StudyCheckpointTest, BadNameInABatchIsOneDecodeRejectOfTheWholeBatch) {
  const std::vector<core::MeasurementResult> batch0 = {FabricateResult(0),
                                                       FabricateResult(1)};
  {  // The crafted layout itself decodes: a frame of good names loads.
    const std::string dir = TempDir("crafted_good");
    core::StudyCheckpointStats stats;
    const auto loaded = LoadAfterCraftedBatch(dir, {"ok2", "gov", "aa"},
                                              &stats);
    core::MeasurementResult ok, ok2;
    ok.domain = N("ok.gov.aa");
    ok2.domain = N("ok2.gov.aa");
    EXPECT_EQ(loaded, (std::vector<core::MeasurementResult>{
                          batch0[0], batch0[1], ok, ok2}));
    EXPECT_EQ(stats.decode_rejects, 0);
    EXPECT_EQ(stats.batches_loaded, 2);
    fs::remove_all(dir);
  }
  const std::vector<std::pair<const char*, std::vector<std::string>>> bad = {
      {"64-octet label", {std::string(64, 'a'), "gov", "aa"}},
      {"byte outside the label alphabet", {"b@d", "gov", "aa"}},
      {"over 255 wire octets",  // 4 x (1 + 63) + 1 = 257
       {std::string(63, 'a'), std::string(63, 'b'), std::string(63, 'c'),
        std::string(63, 'd')}},
      {"more labels than fit in 255 octets",
       std::vector<std::string>(dns::Name::kMaxLabels + 1, "a")},
  };
  for (const auto& [what, labels] : bad) {
    const std::string dir = TempDir("crafted_bad");
    core::StudyCheckpointStats stats;
    const auto loaded = LoadAfterCraftedBatch(dir, labels, &stats);
    EXPECT_EQ(loaded, batch0) << what;
    EXPECT_EQ(stats.decode_rejects, 1) << what;
    EXPECT_EQ(stats.batches_loaded, 1) << what;
    EXPECT_EQ(stats.results_loaded, 2) << what;
    fs::remove_all(dir);
  }
}

}  // namespace
}  // namespace govdns
