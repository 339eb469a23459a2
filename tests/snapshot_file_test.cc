// Tests for the GVSN snapshot container (ckpt/snapshot_file.h) and the
// PdnsSnapshot stored in it (pdns/db.h): container round-trip and every
// rejection mode (wrong fingerprint/version, truncation, corrupt payloads,
// misaligned sections), a randomized oracle pinning a mapped file's lookups
// to the in-memory image it was published from, crafted files whose CRCs
// are valid but whose contents are not, and the mining byte-identity
// contract across in-memory and mapped stores and worker counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "ckpt/journal.h"
#include "ckpt/serial.h"
#include "ckpt/snapshot_file.h"
#include "core/mining.h"
#include "dns/name.h"
#include "pdns/db.h"
#include "util/mmap_file.h"
#include "util/status.h"

namespace govdns {
namespace {

namespace fs = std::filesystem;
using dns::Name;
using dns::RRType;
using util::DayFromYmd;

constexpr uint64_t kFingerprint = 0xFEEDFACE12345678ull;

std::string TempDir(const std::string& tag) {
  std::string dir =
      (fs::temp_directory_path() / ("govdns_snapfile_" + tag)).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
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

// ---- container: round trip ------------------------------------------------

TEST(SnapshotContainerTest, RoundTripsSectionsAligned) {
  const std::string dir = TempDir("roundtrip");
  const std::string path = dir + "/snap.gvsn";
  ckpt::SnapshotFileWriter w(/*version=*/7, kFingerprint);
  w.AddSection(1, "alpha");
  w.AddSection(2, std::string(1000, 'x'));
  w.AddSection(9, "");  // empty sections are legal
  ASSERT_TRUE(w.WriteTo(dir, path).ok());

  for (auto validation :
       {ckpt::SnapshotValidation::kFast, ckpt::SnapshotValidation::kFull}) {
    auto view =
        ckpt::SnapshotFileView::Open(path, /*expected_version=*/7,
                                     kFingerprint, validation);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_EQ(view->section_count(), 3u);
    EXPECT_EQ(view->fingerprint(), kFingerprint);
    auto s1 = view->Section(1);
    auto s2 = view->Section(2);
    auto s9 = view->Section(9);
    ASSERT_TRUE(s1.ok() && s2.ok() && s9.ok());
    EXPECT_EQ(*s1, "alpha");
    EXPECT_EQ(*s2, std::string(1000, 'x'));
    EXPECT_EQ(*s9, "");
    EXPECT_FALSE(view->Section(42).ok());  // kNotFound, not UB
    EXPECT_EQ(view->Section(42).status().code(), util::ErrorCode::kNotFound);
  }

  // The read fallback serves identical bytes without mmap.
  auto read = util::MappedFile::OpenReadOnly(path);
  ASSERT_TRUE(read.ok());
  auto fallback = ckpt::SnapshotFileView::FromFile(
      *std::move(read), path, 7, kFingerprint,
      ckpt::SnapshotValidation::kFull);
  ASSERT_TRUE(fallback.ok());
  EXPECT_FALSE(fallback->mapped());
  EXPECT_EQ(*fallback->Section(1), "alpha");

  // Non-empty sections start at 64-byte-aligned offsets in the image.
  const std::string image = ReadFile(path);
  EXPECT_NE(image.find("alpha"), std::string::npos);
  EXPECT_EQ(image.find("alpha") % ckpt::kSnapshotSectionAlign, 0u);
  EXPECT_EQ(image.find(std::string(64, 'x')) % ckpt::kSnapshotSectionAlign,
            0u);
  fs::remove_all(dir);
}

// ---- container: rejection modes -------------------------------------------

struct ContainerFixture {
  std::string dir, path, image;

  explicit ContainerFixture(const std::string& tag) {
    dir = TempDir(tag);
    path = dir + "/snap.gvsn";
    ckpt::SnapshotFileWriter w(/*version=*/3, kFingerprint);
    w.AddSection(1, "abc");
    w.AddSection(2, std::string(100, 'y'));
    image = w.Assemble();
    WriteFile(path, image);
  }
  ~ContainerFixture() { fs::remove_all(dir); }

  util::Status Open(uint32_t version = 3, uint64_t fp = kFingerprint) const {
    return ckpt::SnapshotFileView::Open(path, version, fp,
                                        ckpt::SnapshotValidation::kFull)
        .status();
  }
};

TEST(SnapshotContainerTest, RejectsWrongFingerprint) {
  ContainerFixture f("fp");
  EXPECT_TRUE(f.Open().ok());
  auto status = f.Open(3, kFingerprint ^ 1);
  EXPECT_EQ(status.code(), util::ErrorCode::kDataLoss);
}

TEST(SnapshotContainerTest, RejectsWrongVersion) {
  ContainerFixture f("ver");
  auto status = f.Open(4);
  EXPECT_EQ(status.code(), util::ErrorCode::kDataLoss);
}

TEST(SnapshotContainerTest, RejectsMissingFileAsNotFound) {
  auto status = ckpt::SnapshotFileView::Open(
                    "/nonexistent/snap.gvsn", 3, kFingerprint,
                    ckpt::SnapshotValidation::kFast)
                    .status();
  EXPECT_EQ(status.code(), util::ErrorCode::kNotFound);
}

TEST(SnapshotContainerTest, RejectsTruncation) {
  ContainerFixture f("trunc");
  // Every truncation point must reject cleanly — header, table, payload.
  for (size_t keep : {size_t(0), size_t(10), size_t(31), size_t(40),
                      ckpt::kSnapshotHeaderSize + 2 * 32 + 5,
                      f.image.size() - 1}) {
    WriteFile(f.path, f.image.substr(0, keep));
    auto status = f.Open();
    EXPECT_EQ(status.code(), util::ErrorCode::kDataLoss) << "keep=" << keep;
  }
}

TEST(SnapshotContainerTest, RejectsCorruptMagicAndHeader) {
  ContainerFixture f("magic");
  std::string bad = f.image;
  bad[0] = 'X';  // magic
  WriteFile(f.path, bad);
  EXPECT_EQ(f.Open().code(), util::ErrorCode::kDataLoss);

  bad = f.image;
  bad[13] ^= 0x40;  // section count, caught by the header CRC
  WriteFile(f.path, bad);
  EXPECT_EQ(f.Open().code(), util::ErrorCode::kDataLoss);
}

TEST(SnapshotContainerTest, RejectsCorruptTable) {
  ContainerFixture f("table");
  std::string bad = f.image;
  bad[ckpt::kSnapshotHeaderSize + 8] ^= 0x01;  // section 1's offset
  WriteFile(f.path, bad);
  EXPECT_EQ(f.Open().code(), util::ErrorCode::kDataLoss);
}

TEST(SnapshotContainerTest, FullValidationCatchesPayloadCorruption) {
  ContainerFixture f("payload");
  std::string bad = f.image;
  bad[bad.size() - 1] ^= 0x01;  // inside the last section's payload
  WriteFile(f.path, bad);
  // kFast trusts payload bytes (O(1) open contract) ...
  EXPECT_TRUE(ckpt::SnapshotFileView::Open(f.path, 3, kFingerprint,
                                           ckpt::SnapshotValidation::kFast)
                  .ok());
  // ... kFull walks every payload CRC and rejects.
  EXPECT_EQ(f.Open().code(), util::ErrorCode::kDataLoss);
}

// Re-stamps the table CRC (header offset 24) and header CRC (offset 28)
// after tampering with table bytes, so the tampered field itself — not a
// CRC mismatch — must trigger the rejection.
void RestampCrcs(std::string* image, size_t table_bytes) {
  const uint32_t table_crc =
      ckpt::Crc32({image->data() + ckpt::kSnapshotHeaderSize, table_bytes});
  std::memcpy(image->data() + 24, &table_crc, 4);
  const uint32_t header_crc = ckpt::Crc32({image->data(), 28});
  std::memcpy(image->data() + 28, &header_crc, 4);
}

TEST(SnapshotContainerTest, RejectsMisalignedSectionOffset) {
  ContainerFixture f("misalign");
  std::string bad = f.image;
  // Section 1 ("abc", 3 bytes at offset 96 with 61 bytes of padding after):
  // shift its offset by 8 — still in bounds, no longer 64-byte aligned.
  uint64_t off = 0;
  std::memcpy(&off, bad.data() + ckpt::kSnapshotHeaderSize + 8, 8);
  off += 8;
  std::memcpy(bad.data() + ckpt::kSnapshotHeaderSize + 8, &off, 8);
  RestampCrcs(&bad, 2 * ckpt::kSnapshotTableEntrySize);
  WriteFile(f.path, bad);
  auto status = ckpt::SnapshotFileView::Open(f.path, 3, kFingerprint,
                                             ckpt::SnapshotValidation::kFast)
                    .status();
  EXPECT_EQ(status.code(), util::ErrorCode::kDataLoss);
}

TEST(SnapshotContainerTest, RejectsOutOfBoundsSection) {
  ContainerFixture f("oob");
  std::string bad = f.image;
  uint64_t len = 1 << 20;  // far past EOF
  std::memcpy(bad.data() + ckpt::kSnapshotHeaderSize + 16, &len, 8);
  RestampCrcs(&bad, 2 * ckpt::kSnapshotTableEntrySize);
  WriteFile(f.path, bad);
  auto status = ckpt::SnapshotFileView::Open(f.path, 3, kFingerprint,
                                             ckpt::SnapshotValidation::kFast)
                    .status();
  EXPECT_EQ(status.code(), util::ErrorCode::kDataLoss);
}

TEST(SnapshotContainerTest, RejectsDuplicateSectionIds) {
  ContainerFixture f("dup");
  std::string bad = f.image;
  // Rewrite section 2's id to 1.
  const uint32_t one = 1;
  std::memcpy(bad.data() + ckpt::kSnapshotHeaderSize +
                  ckpt::kSnapshotTableEntrySize,
              &one, 4);
  RestampCrcs(&bad, 2 * ckpt::kSnapshotTableEntrySize);
  WriteFile(f.path, bad);
  auto status = ckpt::SnapshotFileView::Open(f.path, 3, kFingerprint,
                                             ckpt::SnapshotValidation::kFast)
                    .status();
  EXPECT_EQ(status.code(), util::ErrorCode::kDataLoss);
}

// ---- pdns snapshot: randomized oracle -------------------------------------

// A deterministic pseudo-random government namespace: a few hundred owners
// under two ccTLD seeds with NS/A/CNAME records across the study years.
pdns::PdnsSnapshot RandomSnapshot(uint32_t seed) {
  std::mt19937 rng(seed);
  pdns::PdnsSnapshotBuilder db(/*merge_gap_days=*/30);
  const std::vector<std::string> tlds = {"gov.xx", "gov.yy"};
  const std::vector<std::string> hosts = {"www",  "mail", "portal", "moe",
                                          "mof",  "city", "health", "tax",
                                          "stat", "reg"};
  const std::vector<std::string> ns_pool = {
      "ns1.provider-a.net", "ns2.provider-a.net", "ns1.provider-b.org",
      "dns.local.gov.xx",   "dns.local.gov.yy"};
  std::uniform_int_distribution<int> tld_d(0, int(tlds.size()) - 1);
  std::uniform_int_distribution<int> host_d(0, int(hosts.size()) - 1);
  std::uniform_int_distribution<int> depth_d(0, 2);
  std::uniform_int_distribution<int> ns_d(0, int(ns_pool.size()) - 1);
  std::uniform_int_distribution<int> year_d(2011, 2020);
  std::uniform_int_distribution<int> day_d(1, 27);
  std::uniform_int_distribution<int> span_d(0, 400);
  std::uniform_int_distribution<int> type_d(0, 3);

  for (int i = 0; i < 400; ++i) {
    Name owner = Name::FromString(tlds[tld_d(rng)]);
    const int depth = depth_d(rng);
    for (int d = 0; d < depth; ++d) owner = owner.Child(hosts[host_d(rng)]);
    const auto first = DayFromYmd(year_d(rng), 1 + (i % 12), day_d(rng));
    const util::DayInterval seen{first, first + span_d(rng)};
    switch (type_d(rng)) {
      case 0:
      case 1:  // NS-heavy, like the real corpus
        db.ObserveInterval(owner, RRType::kNS, ns_pool[ns_d(rng)], seen);
        break;
      case 2:
        db.ObserveInterval(owner, RRType::kA, "192.0.2." + std::to_string(i % 250),
                           seen);
        break;
      default:
        db.ObserveInterval(owner, RRType::kCNAME, "cdn.provider-a.net", seen);
        break;
    }
  }
  return db.Build();
}

struct PdnsFileFixture {
  std::string dir, path;
  pdns::PdnsSnapshot built;  // the in-memory image the file was written from

  explicit PdnsFileFixture(const std::string& tag, uint32_t seed = 1234) {
    dir = TempDir(tag);
    path = dir + "/pdns.gvsn";
    built = RandomSnapshot(seed);
    auto status = pdns::WritePdnsSnapshotFile(built, kFingerprint, dir, path);
    GOVDNS_CHECK(status.ok());
  }
  ~PdnsFileFixture() { fs::remove_all(dir); }
};

TEST(SnapshotFileTest, MappedLookupsMatchOwningOracle) {
  PdnsFileFixture f("oracle");
  auto mapped = pdns::PdnsSnapshot::Open(f.path, kFingerprint,
                                         ckpt::SnapshotValidation::kFull);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_FALSE(f.built.mapped());
  ASSERT_EQ(mapped->name_count(), f.built.name_count());
  ASSERT_EQ(mapped->entry_count(), f.built.entry_count());

  // Every name materializes identically (and so does its canonical key),
  // and so does every entry.
  for (size_t i = 0; i < mapped->name_count(); ++i) {
    EXPECT_EQ(mapped->name(i), f.built.name(i)) << "name " << i;
    EXPECT_EQ(mapped->name_key(i), f.built.name(i).CanonicalKey());
    const auto got = mapped->entries(i), want = f.built.entries(i);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "entries of name " << i;
  }

  // Randomized suffix probes: existing owners, their parents, cousins that
  // exist nowhere, the two seeds, and the root.
  std::mt19937 rng(99);
  std::uniform_int_distribution<size_t> pick(0, f.built.name_count() - 1);
  std::vector<Name> probes = {Name::Root(), Name::FromString("gov.xx"),
                              Name::FromString("gov.yy"),
                              Name::FromString("gov.zz"),
                              Name::FromString("xx")};
  for (int i = 0; i < 200; ++i) {
    Name n = f.built.name(pick(rng));
    probes.push_back(n);
    if (!n.IsRoot()) probes.push_back(n.Child("nonexistent"));
  }
  std::vector<pdns::Query> queries(3);
  queries[1].type = RRType::kNS;
  queries[2].type = RRType::kNS;
  queries[2].min_seen_gap_days = 7;
  queries[2].window =
      util::DayInterval{DayFromYmd(2014, 1, 1), DayFromYmd(2017, 12, 31)};

  for (const Name& probe : probes) {
    EXPECT_EQ(mapped->WildcardNameRange(probe),
              f.built.WildcardNameRange(probe))
        << probe.ToString();
    for (const auto& q : queries) {
      EXPECT_EQ(mapped->WildcardSearch(probe, q),
                f.built.WildcardSearch(probe, q))
          << probe.ToString();
    }
  }
}

TEST(SnapshotFileTest, RejectsWrongFingerprintTruncationAndCorruption) {
  PdnsFileFixture f("reject");
  for (auto validation :
       {ckpt::SnapshotValidation::kFast, ckpt::SnapshotValidation::kFull}) {
    EXPECT_FALSE(
        pdns::PdnsSnapshot::Open(f.path, kFingerprint ^ 1, validation).ok());
  }

  const std::string image = ReadFile(f.path);
  const std::string tampered_path = f.dir + "/tampered.gvsn";
  for (size_t keep :
       {size_t(0), size_t(16), image.size() / 2, image.size() - 3}) {
    WriteFile(tampered_path, image.substr(0, keep));
    EXPECT_FALSE(pdns::PdnsSnapshot::Open(tampered_path, kFingerprint).ok())
        << "keep=" << keep;
    EXPECT_FALSE(pdns::PdnsSnapshot::Open(tampered_path, kFingerprint,
                                          ckpt::SnapshotValidation::kFull)
                     .ok());
  }

  // Flip one byte inside every section payload (extents read straight from
  // the section table; inter-section padding is deliberately excluded — no
  // CRC covers it). kFull must reject every one.
  std::mt19937 rng(7);
  uint32_t section_count = 0;
  std::memcpy(&section_count, image.data() + 12, 4);
  ASSERT_EQ(section_count, 6u);
  for (uint32_t i = 0; i < section_count; ++i) {
    const char* entry =
        image.data() + ckpt::kSnapshotHeaderSize + i * ckpt::kSnapshotTableEntrySize;
    uint64_t off = 0, len = 0;
    std::memcpy(&off, entry + 8, 8);
    std::memcpy(&len, entry + 16, 8);
    if (len == 0) continue;
    std::uniform_int_distribution<uint64_t> pos_d(off, off + len - 1);
    std::string bad = image;
    bad[pos_d(rng)] ^= 0x20;
    WriteFile(tampered_path, bad);
    EXPECT_FALSE(pdns::PdnsSnapshot::Open(tampered_path, kFingerprint,
                                          ckpt::SnapshotValidation::kFull)
                     .ok())
        << "section " << i;
  }
}

// ---- pdns snapshot: crafted files with valid CRCs --------------------------

// The six sections of a published snapshot, editable and re-published
// through SnapshotFileWriter, so every CRC in the result is valid and only
// the contents can be wrong.
struct CraftedSnapshot {
  std::string dir, path;
  std::string sections[6];  // indexed by section id - 1

  // Starts from a small valid snapshot: three same-length owners, two
  // entries each.
  explicit CraftedSnapshot(const std::string& tag) {
    dir = TempDir(tag);
    path = dir + "/crafted.gvsn";
    pdns::PdnsSnapshotBuilder db;
    for (const char* owner : {"a.gov.xx", "b.gov.xx", "c.gov.xx"}) {
      db.Observe(Name::FromString(owner), RRType::kNS, "ns1.host.net", 100);
      db.Observe(Name::FromString(owner), RRType::kA, "192.0.2.1", 100);
    }
    GOVDNS_CHECK(
        pdns::WritePdnsSnapshotFile(db.Build(), kFingerprint, dir, path).ok());
    auto view = ckpt::SnapshotFileView::Open(
        path, pdns::kPdnsSnapshotFormatVersion, kFingerprint,
        ckpt::SnapshotValidation::kFull);
    GOVDNS_CHECK(view.ok());
    for (uint32_t id = 1; id <= 6; ++id) {
      sections[id - 1] = std::string(*view->Section(id));
    }
  }
  ~CraftedSnapshot() { fs::remove_all(dir); }

  std::string& keys() { return sections[pdns::kSecPdnsNameKeys - 1]; }
  std::string& name_offsets() {
    return sections[pdns::kSecPdnsNameOffsets - 1];
  }
  std::string& entry_offsets() {
    return sections[pdns::kSecPdnsEntryOffsets - 1];
  }
  std::string& rdata() { return sections[pdns::kSecPdnsRdata - 1]; }

  static void SetU64(std::string& section, size_t i, uint64_t v) {
    std::memcpy(section.data() + i * 8, &v, 8);
  }
  pdns::RawPdnsEntry Entry(size_t e) {
    pdns::RawPdnsEntry raw;
    std::memcpy(&raw, sections[pdns::kSecPdnsEntries - 1].data() + e * 32,
                32);
    return raw;
  }
  void SetEntry(size_t e, const pdns::RawPdnsEntry& raw) {
    std::memcpy(sections[pdns::kSecPdnsEntries - 1].data() + e * 32, &raw,
                32);
  }

  util::Status Open(ckpt::SnapshotValidation validation) {
    ckpt::SnapshotFileWriter w(pdns::kPdnsSnapshotFormatVersion, kFingerprint);
    for (uint32_t id = 1; id <= 6; ++id) w.AddSection(id, sections[id - 1]);
    GOVDNS_CHECK(w.WriteTo(dir, path).ok());
    return pdns::PdnsSnapshot::Open(path, kFingerprint, validation).status();
  }
  // kFast stays O(1) and trusts the interior; kFull must reject it.
  void ExpectOnlyFullRejects() {
    EXPECT_TRUE(Open(ckpt::SnapshotValidation::kFast).ok());
    EXPECT_EQ(Open(ckpt::SnapshotValidation::kFull).code(),
              util::ErrorCode::kDataLoss);
  }
};

TEST(SnapshotFileTest, CraftedStartsValid) {
  CraftedSnapshot c("crafted_valid");
  EXPECT_TRUE(c.Open(ckpt::SnapshotValidation::kFull).ok());
}

TEST(SnapshotFileTest, RejectsCountsThatWrapTheSectionSizeChecks) {
  // (2^61 - 1 + 1) * 8 wraps to 0, the size of an empty fencepost section:
  // a size check by multiplication passes, and the first lookup reads far
  // outside the file.
  CraftedSnapshot c("crafted_count");
  ckpt::Writer meta;
  meta.Size((uint64_t{1} << 61) - 1);
  meta.Size(0);
  c.sections[pdns::kSecPdnsMeta - 1] = std::move(meta).Take();
  for (uint32_t id = 2; id <= 6; ++id) c.sections[id - 1].clear();
  EXPECT_EQ(c.Open(ckpt::SnapshotValidation::kFast).code(),
            util::ErrorCode::kDataLoss);
  EXPECT_EQ(c.Open(ckpt::SnapshotValidation::kFull).code(),
            util::ErrorCode::kDataLoss);
}

TEST(SnapshotFileTest, FullRejectsNonMonotonicNameFenceposts) {
  CraftedSnapshot c("crafted_name_order");
  c.SetU64(c.name_offsets(), 1, 20);  // name 0 ends after name 1 does
  c.SetU64(c.name_offsets(), 2, 12);
  c.ExpectOnlyFullRejects();
}

TEST(SnapshotFileTest, FullRejectsNameFencepostPastTheKeys) {
  CraftedSnapshot c("crafted_name_past");
  c.SetU64(c.name_offsets(), 1, c.keys().size() + 64);
  c.ExpectOnlyFullRejects();
}

TEST(SnapshotFileTest, FullRejectsInvalidCanonicalKey) {
  CraftedSnapshot c("crafted_bad_key");
  c.keys()[c.keys().size() - 1] = '!';  // not a legal label byte
  c.ExpectOnlyFullRejects();
}

TEST(SnapshotFileTest, FullRejectsKeysNotStrictlyIncreasing) {
  CraftedSnapshot c("crafted_key_order");
  // "xx\0gov\0a" "xx\0gov\0b" "xx\0gov\0c": swap the first two labels.
  ASSERT_EQ(c.keys().size(), 24u);
  std::swap(c.keys()[7], c.keys()[15]);
  c.ExpectOnlyFullRejects();
}

TEST(SnapshotFileTest, FullRejectsNonMonotonicEntryFenceposts) {
  CraftedSnapshot c("crafted_entry_order");
  c.SetU64(c.entry_offsets(), 1, 5);
  c.ExpectOnlyFullRejects();
}

TEST(SnapshotFileTest, FullRejectsEntryFencepostPastTheEntryCount) {
  CraftedSnapshot c("crafted_entry_past");
  c.SetU64(c.entry_offsets(), 2, 1000);
  c.ExpectOnlyFullRejects();
}

TEST(SnapshotFileTest, FullRejectsUnknownRRType) {
  CraftedSnapshot c("crafted_rrtype");
  pdns::RawPdnsEntry raw = c.Entry(3);
  raw.type = 999;
  c.SetEntry(3, raw);
  c.ExpectOnlyFullRejects();
}

TEST(SnapshotFileTest, FullRejectsRdataOutsideTheRdataSection) {
  CraftedSnapshot c("crafted_rdata");
  pdns::RawPdnsEntry raw = c.Entry(4);
  raw.rdata_off = c.rdata().size();  // starts at the end, length > 0
  c.SetEntry(4, raw);
  c.ExpectOnlyFullRejects();

  raw.rdata_off = ~uint64_t{0} - 2;  // off + len wraps past zero
  c.SetEntry(4, raw);
  c.ExpectOnlyFullRejects();
}

// ---- pdns snapshot: mining identity ---------------------------------------

TEST(SnapshotFileTest, MiningIsByteIdenticalAcrossSubstratesAndWorkers) {
  PdnsFileFixture f("mine");
  const std::vector<core::SeedDomain> seeds = {
      {0, Name::FromString("gov.xx"), core::SeedVerification::kRegistryPolicy,
       false},
      {1, Name::FromString("gov.yy"), core::SeedVerification::kRegistryPolicy,
       false}};
  core::MiningConfig config;

  const auto baseline = core::PdnsMiner(config).Mine(f.built, seeds);
  EXPECT_GT(baseline.domains.size(), 0u);

  auto mapped = pdns::PdnsSnapshot::Open(f.path, kFingerprint,
                                         ckpt::SnapshotValidation::kFull);
  ASSERT_TRUE(mapped.ok());

  for (int workers : {1, 4}) {
    core::MinerOptions opts;
    opts.workers = workers;
    core::PdnsMiner miner(config, opts);
    EXPECT_EQ(miner.Mine(f.built, seeds), baseline)
        << "in-memory w=" << workers;
    EXPECT_EQ(miner.Mine(*mapped, seeds), baseline) << "mapped w=" << workers;
  }
}

}  // namespace
}  // namespace govdns
