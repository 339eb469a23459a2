#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dns/message.h"
#include "dns/wire.h"
#include "util/rng.h"

// This binary's global allocator records the largest single request made
// while tracking is on, so a test can see the allocation a crafted header
// count would drive. Every form the program's new-expressions and the
// standard library pair with these is replaced, so a sanitizer runtime's
// own operator new never frees memory this one allocated. The deletes stay
// out of line: inlined, the compiler would see free() meet a pointer from
// operator new and warn of a mismatch that this pairing rules out.
namespace {
std::atomic<bool> g_track_requests{false};
std::atomic<size_t> g_largest_request{0};
std::atomic<size_t> g_requests{0};

void* TrackedAlloc(std::size_t size) noexcept {
  if (g_track_requests.load(std::memory_order_relaxed)) {
    g_requests.fetch_add(1, std::memory_order_relaxed);
    size_t seen = g_largest_request.load(std::memory_order_relaxed);
    while (size > seen &&
           !g_largest_request.compare_exchange_weak(seen, size)) {
    }
  }
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = TrackedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return TrackedAlloc(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace govdns::dns {
namespace {

// ReadName as an optional, for terse assertions.
std::optional<Name> ReadName(WireReader& r) {
  Name name;
  if (!r.ReadName(&name)) return std::nullopt;
  return name;
}

TEST(WireWriterTest, Primitives) {
  WireWriter w;
  w.WriteU8(0xAB);
  w.WriteU16(0x1234);
  w.WriteU32(0xDEADBEEF);
  ASSERT_EQ(w.size(), 7u);
  WireReader r(w.buffer());
  uint8_t u8 = 0;
  uint16_t u16 = 0;
  uint32_t u32 = 0;
  ASSERT_TRUE(r.ReadU8(&u8));
  ASSERT_TRUE(r.ReadU16(&u16));
  ASSERT_TRUE(r.ReadU32(&u32));
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0x1234);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireReaderTest, TruncationDetected) {
  std::vector<uint8_t> buf = {0x12};
  WireReader r(buf);
  uint16_t u16 = 7;
  EXPECT_FALSE(r.ReadU16(&u16));
  EXPECT_EQ(u16, 7);  // a failed read leaves its output untouched
  uint32_t u32 = 9;
  EXPECT_FALSE(WireReader(buf).ReadU32(&u32));
  EXPECT_EQ(u32, 9u);
}

TEST(WireReaderTest, FirstFailureLatches) {
  const std::vector<uint8_t> buf = {0xC0, 0x00, 0x12, 0x34};
  WireReader r(buf);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.error(), nullptr);
  Name name = Name::FromString("kept.gov.au");
  EXPECT_FALSE(r.ReadName(&name));  // a pointer to itself
  EXPECT_EQ(name, Name::FromString("kept.gov.au"));
  EXPECT_STREQ(r.error(), "forward compression pointer");
  // The bytes after the bad name would read, but the reader stays failed
  // and keeps the first reason.
  uint16_t v = 0;
  EXPECT_FALSE(r.ReadU16(&v));
  EXPECT_EQ(v, 0);
  EXPECT_FALSE(r.Fail("later reason"));
  EXPECT_STREQ(r.error(), "forward compression pointer");
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.AtEnd());
}

TEST(WireNameTest, UncompressedRoundTrip) {
  WireWriter w;
  Name name = Name::FromString("www.gov.au");
  w.WriteNameUncompressed(name);
  EXPECT_EQ(w.size(), name.WireLength());
  WireReader r(w.buffer());
  auto decoded = ReadName(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, name);
}

TEST(WireNameTest, RootName) {
  WireWriter w;
  w.WriteName(Name::Root());
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w.buffer()[0], 0);
  WireReader r(w.buffer());
  auto decoded = ReadName(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->IsRoot());
}

TEST(WireNameTest, CompressionEmitsPointer) {
  WireWriter w;
  Name a = Name::FromString("ns1.gov.cn");
  Name b = Name::FromString("ns2.gov.cn");
  w.WriteName(a);
  size_t first = w.size();
  w.WriteName(b);
  // Second name: "ns2" label (4 bytes) + 2-byte pointer to "gov.cn".
  EXPECT_EQ(w.size() - first, 4u + 2u);

  WireReader r(w.buffer());
  EXPECT_EQ(ReadName(r), a);
  EXPECT_EQ(ReadName(r), b);
}

TEST(WireNameTest, FullSuffixCompression) {
  WireWriter w;
  Name a = Name::FromString("gov.cn");
  w.WriteName(a);
  size_t first = w.size();
  w.WriteName(a);  // identical name: a bare pointer
  EXPECT_EQ(w.size() - first, 2u);
  WireReader r(w.buffer());
  EXPECT_EQ(ReadName(r), a);
  EXPECT_EQ(ReadName(r), a);
}

TEST(WireNameTest, PointerLoopRejected) {
  // A pointer that points at itself.
  std::vector<uint8_t> buf = {0xC0, 0x00};
  WireReader r(buf);
  EXPECT_FALSE(ReadName(r).has_value());
}

TEST(WireNameTest, ForwardPointerRejected) {
  // Pointer to offset 4, beyond its own position.
  std::vector<uint8_t> buf = {0xC0, 0x04, 0, 0, 3, 'c', 'o', 'm', 0};
  WireReader r(buf);
  EXPECT_FALSE(ReadName(r).has_value());
}

TEST(WireNameTest, ReservedLabelTypeRejected) {
  std::vector<uint8_t> buf = {0x80, 0x01};
  WireReader r(buf);
  EXPECT_FALSE(ReadName(r).has_value());
}

TEST(WireNameTest, IllegalLabelBytesRejected) {
  // NUL would forge a label boundary in the canonical key; '.', space and
  // bytes >= 0x80 are not legal label bytes either.
  const uint8_t kBad[] = {0x00, '.', ' ', 0x80, 0xC3, 0xFF};
  for (uint8_t bad : kBad) {
    const std::vector<uint8_t> direct = {3, 'a', bad, 'b', 3, 'g', 'o', 'v', 0};
    WireReader plain(direct);
    EXPECT_FALSE(ReadName(plain).has_value()) << int{bad};
    EXPECT_STREQ(plain.error(), "illegal byte in label") << int{bad};
    // The same label reached through a compression pointer at offset 9.
    std::vector<uint8_t> via_pointer = direct;
    via_pointer.insert(via_pointer.end(), {1, 'x', 0xC0, 0x00});
    WireReader r(via_pointer);
    uint8_t skip[9];
    ASSERT_TRUE(r.ReadBytes(skip, sizeof skip));
    EXPECT_FALSE(ReadName(r).has_value()) << int{bad};
  }
}

TEST(WireNameTest, UppercaseLabelsDecodeToLowercaseName) {
  const std::vector<uint8_t> buf = {3,   'W', 'w', 'W', 3, 'G', 'O', 'V',
                                    2,   'a', 'U', 0,   0xC0, 4};
  WireReader r(buf);
  auto name = ReadName(r);
  ASSERT_TRUE(name.has_value());
  EXPECT_EQ(*name, Name::FromString("www.gov.au"));
  EXPECT_EQ(name->CanonicalKey(), std::string("au\0gov\0www", 10));
  auto tail = ReadName(r);  // a pointer to "GOV.aU"
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(*tail, Name::FromString("gov.au"));
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireNameTest, PointerChainsAreBounded) {
  // "com" at offset 0, then pointers each to the one before: a chain of 32
  // jumps decodes, 33 are refused as a loop.
  for (size_t chain : {32, 33}) {
    std::vector<uint8_t> buf = {3, 'c', 'o', 'm', 0};
    size_t prev = 0;
    for (size_t i = 0; i < chain; ++i) {
      const size_t here = buf.size();
      buf.push_back(static_cast<uint8_t>(0xC0 | (prev >> 8)));
      buf.push_back(static_cast<uint8_t>(prev & 0xFF));
      prev = here;
    }
    WireReader r(buf);
    std::vector<uint8_t> skip(prev);
    ASSERT_TRUE(r.ReadBytes(skip.data(), prev));
    auto name = ReadName(r);
    ASSERT_EQ(name.has_value(), chain == 32) << chain;
    if (name.has_value()) {
      EXPECT_EQ(*name, Name::FromString("com"));
      EXPECT_TRUE(r.AtEnd());
    } else {
      EXPECT_STREQ(r.error(), "compression pointer loop");
    }
  }
}

// A wire name of the given label lengths, every label byte 'a'.
std::vector<uint8_t> WireNameOf(const std::vector<size_t>& lengths) {
  std::vector<uint8_t> wire;
  for (size_t len : lengths) {
    wire.push_back(static_cast<uint8_t>(len));
    wire.insert(wire.end(), len, 'a');
  }
  wire.push_back(0);
  return wire;
}

TEST(WireNameTest, LengthBoundIsCheckedInTheWalk) {
  // 255 wire octets is the largest legal name.
  const std::vector<uint8_t> max = WireNameOf({63, 63, 63, 61});
  ASSERT_EQ(max.size(), 255u);
  WireReader ok_reader(max);
  auto name = ReadName(ok_reader);
  ASSERT_TRUE(name.has_value());
  EXPECT_EQ(name->WireLength(), 255u);
  EXPECT_TRUE(ok_reader.AtEnd());
  // One octet more is refused by the walk itself, before any label is
  // copied — also when the overflow is 128 one-octet labels, one more than
  // a name can hold.
  std::vector<uint8_t> tiny_labels = WireNameOf(std::vector<size_t>(127, 1));
  ASSERT_EQ(tiny_labels.size(), 255u);
  WireReader tiny_ok(tiny_labels);
  ASSERT_TRUE(ReadName(tiny_ok).has_value());
  for (const std::vector<uint8_t>& over :
       {WireNameOf({63, 63, 63, 62}), WireNameOf(std::vector<size_t>(128, 1)),
        WireNameOf(std::vector<size_t>(200, 1))}) {
    WireReader r(over);
    EXPECT_FALSE(ReadName(r).has_value()) << over.size();
    EXPECT_STREQ(r.error(), "name too long") << over.size();
  }
}

TEST(WireRecordTest, ARecordRoundTrip) {
  ResourceRecord rr = MakeA(Name::FromString("www.gov.au"),
                            geo::IPv4(192, 0, 2, 1), 3600);
  WireWriter w;
  w.WriteRecord(rr);
  WireReader r(w.buffer());
  ResourceRecord decoded;
  ASSERT_TRUE(r.ReadRecord(&decoded));
  EXPECT_EQ(decoded, rr);
}

TEST(WireRecordTest, SoaRoundTrip) {
  ResourceRecord rr = MakeSoa(Name::FromString("gov.au"),
                              Name::FromString("ns1.gov.au"),
                              Name::FromString("hostmaster.gov.au"), 42);
  WireWriter w;
  w.WriteRecord(rr);
  WireReader r(w.buffer());
  ResourceRecord decoded;
  ASSERT_TRUE(r.ReadRecord(&decoded));
  EXPECT_EQ(decoded, rr);
}

TEST(WireRecordTest, TxtRoundTrip) {
  ResourceRecord rr = MakeTxt(Name::FromString("gov.au"), "v=spf1 -all");
  WireWriter w;
  w.WriteRecord(rr);
  WireReader r(w.buffer());
  ResourceRecord decoded;
  ASSERT_TRUE(r.ReadRecord(&decoded));
  EXPECT_EQ(decoded, rr);
}

TEST(WireRecordTest, RdlengthMismatchRejected) {
  // A record claiming 5 bytes of A rdata.
  WireWriter w;
  w.WriteName(Name::FromString("x.com"));
  w.WriteU16(1);   // type A
  w.WriteU16(1);   // class IN
  w.WriteU32(60);  // ttl
  w.WriteU16(5);   // WRONG rdlength
  w.WriteU32(0x01020304);
  w.WriteU8(0xFF);
  WireReader r(w.buffer());
  ResourceRecord decoded;
  EXPECT_FALSE(r.ReadRecord(&decoded));
  EXPECT_STREQ(r.error(), "rdata length mismatch");
}

// ---------------------------------------------------------------------------
// Whole-message properties
// ---------------------------------------------------------------------------

Message RandomMessage(util::Rng& rng) {
  static const char* kHosts[] = {
      "www.gov.au",   "ns1.gov.cn",        "moe.gov.cn",
      "a.nic.com",    "tim.ns.cloudflare.com", "ns-3.awsdns-01.co.uk",
      "deep.sub.zone.gov.br",
  };
  auto random_name = [&] {
    return Name::FromString(kHosts[rng.UniformU64(std::size(kHosts))]);
  };
  Message m;
  m.header.id = static_cast<uint16_t>(rng.NextU64());
  m.header.qr = rng.Bernoulli(0.5);
  m.header.aa = rng.Bernoulli(0.5);
  m.header.rd = rng.Bernoulli(0.5);
  m.header.rcode = rng.Bernoulli(0.2) ? Rcode::kNxDomain : Rcode::kNoError;
  m.questions.push_back(
      {random_name(), rng.Bernoulli(0.5) ? RRType::kNS : RRType::kA,
       RRClass::kIN});
  auto random_rr = [&]() -> ResourceRecord {
    switch (rng.UniformU64(4)) {
      case 0:
        return MakeA(random_name(),
                     geo::IPv4(static_cast<uint32_t>(rng.NextU64())),
                     static_cast<uint32_t>(rng.UniformU64(86400)));
      case 1:
        return MakeNs(random_name(), random_name());
      case 2:
        return MakeCname(random_name(), random_name());
      default:
        return MakeSoa(random_name(), random_name(), random_name(),
                       static_cast<uint32_t>(rng.NextU64()));
    }
  };
  for (uint64_t i = rng.UniformU64(4); i > 0; --i) m.answers.push_back(random_rr());
  for (uint64_t i = rng.UniformU64(4); i > 0; --i) m.authority.push_back(random_rr());
  for (uint64_t i = rng.UniformU64(4); i > 0; --i) m.additional.push_back(random_rr());
  return m;
}

// ---------------------------------------------------------------------------
// Pinned encoder bytes
// ---------------------------------------------------------------------------

// A fixed message corpus whose encodings are pinned byte for byte.
struct PinnedMessage {
  std::string label;
  Message message;
};

std::vector<PinnedMessage> PinnedCorpus() {
  const auto name = [](std::string_view text) { return Name::FromString(text); };
  std::vector<PinnedMessage> corpus;

  const Message query = MakeQuery(0x1234, name("www.moe.gov.cn"), RRType::kA);
  corpus.push_back({"query", query});

  Message referral = MakeResponse(query, Rcode::kNoError);
  referral.authority = {
      MakeNs(name("moe.gov.cn"), name("ns1.moe.gov.cn"), 172800),
      MakeNs(name("moe.gov.cn"), name("ns2.moe.gov.cn"), 172800),
      MakeNs(name("moe.gov.cn"), name("ns.dnspod.net"), 172800),
  };
  referral.additional = {
      MakeA(name("ns1.moe.gov.cn"), geo::IPv4(192, 0, 2, 1), 172800),
      MakeA(name("ns2.moe.gov.cn"), geo::IPv4(192, 0, 2, 2), 172800),
  };
  corpus.push_back({"referral_with_glue", referral});

  Message nxdomain = MakeResponse(
      MakeQuery(0xBEEF, name("nope.gov.cn"), RRType::kNS), Rcode::kNxDomain);
  nxdomain.header.aa = true;
  nxdomain.authority = {MakeSoa(name("gov.cn"), name("ns1.gov.cn"),
                                name("hostmaster.gov.cn"), 2022010101, 900)};
  corpus.push_back({"nxdomain_with_soa", nxdomain});

  Message cname = MakeResponse(
      MakeQuery(0x0042, name("www.gov.au"), RRType::kA), Rcode::kNoError);
  cname.header.aa = true;
  cname.answers = {
      MakeCname(name("www.gov.au"), name("www.gov.au.edgekey.net"), 300),
      MakeA(name("www.gov.au.edgekey.net"), geo::IPv4(203, 0, 113, 7), 60),
  };
  corpus.push_back({"cname_answer", cname});

  Message shared = MakeResponse(
      MakeQuery(0x7777, name("a.b.c.gov.br"), RRType::kNS), Rcode::kNoError);
  shared.answers = {
      MakeNs(name("b.c.gov.br"), name("x.b.c.gov.br")),
      MakeNs(name("c.gov.br"), name("ns.c.gov.br")),
      ResourceRecord{name("gov.br"), RRClass::kIN, 600,
                     MxRdata{10, name("mail.gov.br")}},
      ResourceRecord{name("q.a.b.c.gov.br"), RRClass::kIN, 600,
                     PtrRdata{name("br")}},
  };
  shared.authority = {MakeSoa(name("br"), name("a.dns.br"),
                              name("hostmaster.gov.br"), 7)};
  shared.additional = {
      MakeA(name("x.b.c.gov.br"), geo::IPv4(198, 51, 100, 1)),
      MakeA(name("ns.c.gov.br"), geo::IPv4(198, 51, 100, 2)),
      MakeA(name("y.a.b.c.gov.br"), geo::IPv4(198, 51, 100, 3)),
  };
  corpus.push_back({"shared_suffixes", shared});

  // A TXT record pads the message so the next owner name starts at 0x3FFE:
  // its first label is still a pointer target, nothing after it may be.
  Message late = MakeResponse(
      MakeQuery(0x0FFF, name("pad.gov.xx"), RRType::kTXT), Rcode::kNoError);
  TxtRdata pad;
  for (int i = 0; i < 63; ++i) pad.strings.push_back(std::string(255, 'p'));
  pad.strings.push_back(std::string(213, 'q'));
  late.answers = {
      ResourceRecord{name("pad.gov.xx"), RRClass::kIN, 60, pad},
      MakeA(name("edge.late.example"), geo::IPv4(192, 0, 2, 10)),
      MakeA(name("edge.late.example"), geo::IPv4(192, 0, 2, 11)),
      MakeA(name("next.late.example"), geo::IPv4(192, 0, 2, 12)),
      MakeA(name("www.pad.gov.xx"), geo::IPv4(192, 0, 2, 13)),
  };
  corpus.push_back({"suffix_past_0x3fff", late});
  return corpus;
}

std::string Hex(const std::vector<uint8_t>& bytes, size_t from = 0) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (size_t i = from; i < bytes.size(); ++i) {
    out += kDigits[bytes[i] >> 4];
    out += kDigits[bytes[i] & 0xF];
  }
  return out;
}

// Captured from the encoder that kept a std::map of presentation-form
// suffixes; compression by canonical-key prefix must emit the same bytes.
TEST(WirePinnedBytesTest, EncodingMatchesPinnedCorpus) {
  const std::vector<std::pair<std::string, std::string>> kPinned = {
      {"query",
       "12340000000100000000000003777777036d6f6503676f7602636e0000010001"},
      {"referral_with_glue",
       "12348000000100000003000203777777036d6f6503676f7602636e0000010001"
       "c010000200010002a3000006036e7331c010c010000200010002a3000006036e"
       "7332c010c010000200010002a300000f026e7306646e73706f64036e657400c0"
       "2c000100010002a3000004c0000201c03e000100010002a3000004c0000202"},
      {"nxdomain_with_soa",
       "beef84030001000000010000046e6f706503676f7602636e0000020001c01100"
       "060001000003840027036e7331c0110a686f73746d6173746572c01178856cf5"
       "00001c2000000384001275000000012c"},
      {"cname_answer",
       "0042840000010002000000000377777703676f760261750000010001c00c0005"
       "00010000012c00180377777703676f7602617507656467656b6579036e657400"
       "c028000100010000003c0004cb007107"},
      {"shared_suffixes",
       "77778000000100040001000301610162016303676f760262720000020001c00e"
       "0002000100000e1000040178c00ec0100002000100000e100005026e73c010c0"
       "12000f0001000002580009000a046d61696cc0120171c00c000c000100000258"
       "0002c016c0160006000100000e100029016103646e73c0160a686f73746d6173"
       "746572c0120000000700001c2000000384001275000000012cc02a0001000100"
       "000e100004c6336401c03a0001000100000e100004c63364020179c00c000100"
       "0100000e100004c6336403"},
  };
  const std::vector<PinnedMessage> corpus = PinnedCorpus();
  ASSERT_EQ(corpus.size(), kPinned.size() + 1);
  for (size_t i = 0; i < kPinned.size(); ++i) {
    ASSERT_EQ(corpus[i].label, kPinned[i].first);
    const std::vector<uint8_t> wire = corpus[i].message.Encode();
    EXPECT_EQ(Hex(wire), kPinned[i].second) << corpus[i].label;
    auto decoded = Message::Decode(wire);
    ASSERT_TRUE(decoded.ok()) << corpus[i].label;
    EXPECT_EQ(*decoded, corpus[i].message) << corpus[i].label;
  }

  // The 16 KiB message: pin its size, a hash of every byte, and the bytes
  // from 0x3FF0 on. "edge.late.example" starts at 0x3FFE, so only its full
  // name becomes a pointer target (the bare 0xFFFE pointer); "late.example"
  // lies past 0x3FFF and is written out again in full.
  const PinnedMessage& late = corpus.back();
  ASSERT_EQ(late.label, "suffix_past_0x3fff");
  const std::vector<uint8_t> wire = late.message.Encode();
  ASSERT_EQ(wire.size(), 16484u);
  EXPECT_EQ(util::HashString(std::string_view(
                reinterpret_cast<const char*>(wire.data()), wire.size())),
            0x43284633cde5d034ULL);
  EXPECT_EQ(Hex(wire, 0x3FF0),
            "71717171717171717171717171710465646765046c617465076578616d706c65"
            "000001000100000e100004c000020afffe0001000100000e100004c000020b04"
            "6e657874046c617465076578616d706c65000001000100000e100004c000020c"
            "03777777c00c0001000100000e100004c000020d");
  auto decoded = Message::Decode(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, late.message);
}

class MessageRoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(MessageRoundTripProperty, EncodeDecodeIdentity) {
  util::Rng rng(GetParam() * 31337);
  for (int i = 0; i < 60; ++i) {
    Message m = RandomMessage(rng);
    auto wire = m.Encode();
    auto decoded = Message::Decode(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(*decoded, m);
  }
}

TEST_P(MessageRoundTripProperty, TruncatedPrefixesNeverCrash) {
  util::Rng rng(GetParam() * 7919);
  Message m = RandomMessage(rng);
  auto wire = m.Encode();
  // Every strict prefix must decode cleanly or fail cleanly — never crash.
  for (size_t len = 0; len < wire.size(); ++len) {
    auto decoded = Message::Decode(wire.data(), len);
    if (decoded.ok()) {
      // Only possible if trailing records were absent; counts must agree.
      auto reencoded = decoded->Encode();
      EXPECT_LE(reencoded.size(), wire.size());
    }
  }
}

TEST_P(MessageRoundTripProperty, BitFlipsNeverCrash) {
  util::Rng rng(GetParam() * 104729);
  Message m = RandomMessage(rng);
  auto wire = m.Encode();
  for (int i = 0; i < 200; ++i) {
    auto corrupted = wire;
    size_t pos = rng.UniformU64(corrupted.size());
    corrupted[pos] ^= static_cast<uint8_t>(1 + rng.UniformU64(255));
    auto decoded = Message::Decode(corrupted);  // must not crash or hang
    (void)decoded;
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MessageRoundTripProperty,
                         ::testing::Range(1, 11));

// ---------------------------------------------------------------------------
// Decode limits
// ---------------------------------------------------------------------------

// The header of a query message with the given section counts.
std::vector<uint8_t> HeaderWithCounts(uint16_t qd, uint16_t an, uint16_t ns,
                                      uint16_t ar) {
  WireWriter w;
  w.WriteU16(0x1234);
  w.WriteU16(0);
  for (uint16_t count : {qd, an, ns, ar}) w.WriteU16(count);
  return w.TakeBuffer();
}

TEST(MessageDecodeTest, HugeHeaderCountsReserveNothing) {
  // A bare 12-octet header claiming 65,535 entries in every section, and
  // the same claim over one valid question: both are refused, and no
  // section reserves more than the bytes that follow the header could
  // hold.
  const std::vector<uint8_t> bare =
      HeaderWithCounts(0xFFFF, 0xFFFF, 0xFFFF, 0xFFFF);
  std::vector<uint8_t> one_question = bare;
  WireWriter q;
  q.WriteName(Name::FromString("www.gov.au"));
  q.WriteU16(static_cast<uint16_t>(RRType::kA));
  q.WriteU16(static_cast<uint16_t>(RRClass::kIN));
  one_question.insert(one_question.end(), q.buffer().begin(),
                      q.buffer().end());
  std::vector<uint8_t> answers_only = HeaderWithCounts(0, 0xFFFF, 0, 0);
  answers_only.resize(answers_only.size() + 64, 0);
  for (const std::vector<uint8_t>* wire :
       {&bare, &std::as_const(one_question), &std::as_const(answers_only)}) {
    g_largest_request.store(0);
    g_track_requests.store(true);
    auto decoded = Message::Decode(*wire);
    g_track_requests.store(false);
    ASSERT_FALSE(decoded.ok()) << wire->size();
    EXPECT_EQ(decoded.status().code(), util::ErrorCode::kParseError);
    // An uncapped reserve asks for 65,535 entries: megabytes.
    EXPECT_LE(g_largest_request.load(), 8 * sizeof(ResourceRecord))
        << wire->size();
  }
}

TEST(MessageDecodeTest, RejectionsCarryTheLatchedReason) {
  const std::vector<uint8_t> query =
      MakeQuery(7, Name::FromString("www.gov.au"), RRType::kA).Encode();
  struct Case {
    std::vector<uint8_t> wire;
    const char* reason;
  };
  std::vector<Case> cases;
  cases.push_back({std::vector<uint8_t>(query.begin(), query.begin() + 5),
                   "truncated message"});
  std::vector<uint8_t> opcode = query;
  opcode[2] |= 0x10;
  cases.push_back({opcode, "unsupported opcode"});
  std::vector<uint8_t> klass = query;
  klass.back() = 3;  // class CH
  cases.push_back({klass, "unsupported question class"});
  std::vector<uint8_t> trailing = query;
  trailing.push_back(0);
  cases.push_back({trailing, "trailing bytes in message"});
  std::vector<uint8_t> reserved = query;
  reserved[12] = 0x43;
  cases.push_back({reserved, "reserved label type"});
  std::vector<uint8_t> nul = query;
  nul[14] = 0;
  cases.push_back({nul, "illegal byte in label"});
  std::vector<uint8_t> long_name = HeaderWithCounts(1, 0, 0, 0);
  const std::vector<uint8_t> over = WireNameOf({63, 63, 63, 62});
  long_name.insert(long_name.end(), over.begin(), over.end());
  long_name.insert(long_name.end(), {0, 1, 0, 1});
  cases.push_back({long_name, "name too long"});
  for (const Case& c : cases) {
    auto decoded = Message::Decode(c.wire);
    ASSERT_FALSE(decoded.ok()) << c.reason;
    EXPECT_EQ(decoded.status().code(), util::ErrorCode::kParseError);
    EXPECT_EQ(decoded.status().message(), c.reason);
  }
}

// ---------------------------------------------------------------------------
// Reference codec: the encoder and decoder this codec replaced, kept as an
// oracle for the emitted bytes and for the set of accepted messages. The
// decoder returns a StatusOr per read, scans each label for NUL and then
// adopts the joined key through Name::FromCanonicalKey.
// ---------------------------------------------------------------------------

class RefWriter {
 public:
  void WriteU8(uint8_t v) { buffer_.push_back(v); }
  void WriteU16(uint16_t v) {
    buffer_.push_back(static_cast<uint8_t>(v >> 8));
    buffer_.push_back(static_cast<uint8_t>(v & 0xFF));
  }
  void WriteU32(uint32_t v) {
    WriteU16(static_cast<uint16_t>(v >> 16));
    WriteU16(static_cast<uint16_t>(v & 0xFFFF));
  }
  void WriteBytes(const uint8_t* data, size_t len) {
    buffer_.insert(buffer_.end(), data, data + len);
  }
  void PatchU16(size_t offset, uint16_t v) {
    buffer_[offset] = static_cast<uint8_t>(v >> 8);
    buffer_[offset + 1] = static_cast<uint8_t>(v & 0xFF);
  }

  void WriteName(const Name& name) {
    const std::string_view key = name.CanonicalKey();
    for (const std::string_view label : name.labels()) {
      const std::string_view suffix =
          key.substr(0, label.data() + label.size() - key.data());
      for (const Target& t : targets_) {
        if (t.key_size == suffix.size() &&
            target_keys_.compare(t.key_begin, t.key_size, suffix) == 0) {
          WriteU16(static_cast<uint16_t>(0xC000 | t.offset));
          return;
        }
      }
      if (buffer_.size() <= 0x3FFF) {
        targets_.push_back({static_cast<uint32_t>(target_keys_.size()),
                            static_cast<uint16_t>(suffix.size()),
                            static_cast<uint16_t>(buffer_.size())});
        target_keys_ += suffix;
      }
      WriteU8(static_cast<uint8_t>(label.size()));
      WriteBytes(reinterpret_cast<const uint8_t*>(label.data()), label.size());
    }
    WriteU8(0);
  }

  void WriteRdata(const Rdata& rdata) {
    struct Visitor {
      RefWriter& w;
      void operator()(const ARdata& r) const { w.WriteU32(r.address.bits()); }
      void operator()(const AaaaRdata& r) const {
        w.WriteBytes(r.address.data(), r.address.size());
      }
      void operator()(const NsRdata& r) const { w.WriteName(r.nameserver); }
      void operator()(const CnameRdata& r) const { w.WriteName(r.target); }
      void operator()(const PtrRdata& r) const { w.WriteName(r.target); }
      void operator()(const MxRdata& r) const {
        w.WriteU16(r.preference);
        w.WriteName(r.exchange);
      }
      void operator()(const SoaRdata& r) const {
        w.WriteName(r.mname);
        w.WriteName(r.rname);
        w.WriteU32(r.serial);
        w.WriteU32(r.refresh);
        w.WriteU32(r.retry);
        w.WriteU32(r.expire);
        w.WriteU32(r.minimum);
      }
      void operator()(const TxtRdata& r) const {
        for (const std::string& s : r.strings) {
          w.WriteU8(static_cast<uint8_t>(s.size()));
          w.WriteBytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
        }
      }
    };
    std::visit(Visitor{*this}, rdata);
  }

  void WriteRecord(const ResourceRecord& rr) {
    WriteName(rr.name);
    WriteU16(static_cast<uint16_t>(rr.type()));
    WriteU16(static_cast<uint16_t>(rr.klass));
    WriteU32(rr.ttl);
    const size_t rdlength_offset = buffer_.size();
    WriteU16(0);
    const size_t rdata_start = buffer_.size();
    WriteRdata(rr.rdata);
    PatchU16(rdlength_offset,
             static_cast<uint16_t>(buffer_.size() - rdata_start));
  }

  std::vector<uint8_t> TakeBuffer() { return std::move(buffer_); }

 private:
  struct Target {
    uint32_t key_begin;
    uint16_t key_size;
    uint16_t offset;
  };

  std::vector<uint8_t> buffer_;
  std::string target_keys_;
  std::vector<Target> targets_;
};

std::vector<uint8_t> ReferenceEncode(const Message& m) {
  RefWriter w;
  w.WriteU16(m.header.id);
  uint16_t flags = 0;
  if (m.header.qr) flags |= 0x8000;
  flags |= static_cast<uint16_t>(m.header.opcode) << 11;
  if (m.header.aa) flags |= 0x0400;
  if (m.header.tc) flags |= 0x0200;
  if (m.header.rd) flags |= 0x0100;
  if (m.header.ra) flags |= 0x0080;
  flags |= static_cast<uint16_t>(m.header.rcode) & 0x0F;
  w.WriteU16(flags);
  w.WriteU16(static_cast<uint16_t>(m.questions.size()));
  w.WriteU16(static_cast<uint16_t>(m.answers.size()));
  w.WriteU16(static_cast<uint16_t>(m.authority.size()));
  w.WriteU16(static_cast<uint16_t>(m.additional.size()));
  for (const Question& q : m.questions) {
    w.WriteName(q.name);
    w.WriteU16(static_cast<uint16_t>(q.type));
    w.WriteU16(static_cast<uint16_t>(q.klass));
  }
  for (const auto* section : {&m.answers, &m.authority, &m.additional}) {
    for (const ResourceRecord& rr : *section) w.WriteRecord(rr);
  }
  return w.TakeBuffer();
}

class RefReader {
 public:
  RefReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}

  util::StatusOr<uint8_t> ReadU8() {
    if (pos_ + 1 > len_) return util::ParseError("truncated u8");
    return data_[pos_++];
  }
  util::StatusOr<uint16_t> ReadU16() {
    if (pos_ + 2 > len_) return util::ParseError("truncated u16");
    uint16_t v = static_cast<uint16_t>((data_[pos_] << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  util::StatusOr<uint32_t> ReadU32() {
    if (pos_ + 4 > len_) return util::ParseError("truncated u32");
    uint32_t v = (uint32_t{data_[pos_]} << 24) |
                 (uint32_t{data_[pos_ + 1]} << 16) |
                 (uint32_t{data_[pos_ + 2]} << 8) | data_[pos_ + 3];
    pos_ += 4;
    return v;
  }
  util::Status ReadBytes(uint8_t* out, size_t len) {
    if (pos_ + len > len_) return util::ParseError("truncated bytes");
    std::memcpy(out, data_ + pos_, len);
    pos_ += len;
    return util::Status::Ok();
  }

  util::StatusOr<Name> ReadName() {
    size_t label_at[127];
    size_t count = 0;
    size_t wire_len = 1;
    size_t pos = pos_;
    size_t resume = 0;
    int pointers = 0;
    for (;;) {
      if (pos >= len_) return util::ParseError("truncated name");
      const uint8_t len_byte = data_[pos];
      if ((len_byte & 0xC0) == 0xC0) {
        if (pos + 2 > len_) return util::ParseError("truncated pointer");
        const size_t target = (static_cast<size_t>(len_byte & 0x3F) << 8) |
                              data_[pos + 1];
        if (target >= pos) {
          return util::ParseError("forward compression pointer");
        }
        if (++pointers > 32) return util::ParseError("compression pointer loop");
        if (resume == 0) resume = pos + 2;
        pos = target;
        continue;
      }
      if ((len_byte & 0xC0) != 0) {
        return util::ParseError("reserved label type");
      }
      if (len_byte == 0) {
        ++pos;
        break;
      }
      if (pos + 1 + len_byte > len_) return util::ParseError("truncated label");
      wire_len += 1 + len_byte;
      if (wire_len > 255) return util::ParseError("name too long");
      if (std::memchr(data_ + pos + 1, 0, len_byte) != nullptr) {
        return util::ParseError("NUL byte in label");
      }
      label_at[count++] = pos;
      pos += 1 + len_byte;
    }
    pos_ = resume != 0 ? resume : pos;
    char key[253];
    size_t key_len = 0;
    for (size_t i = count; i-- > 0;) {
      const size_t len = data_[label_at[i]];
      if (key_len > 0) key[key_len++] = '\0';
      std::memcpy(key + key_len, data_ + label_at[i] + 1, len);
      key_len += len;
    }
    return Name::FromCanonicalKey(std::string_view(key, key_len));
  }

  util::StatusOr<Rdata> ReadRdata(RRType type, uint16_t rdlength) {
    const size_t rdata_end = pos_ + rdlength;
    auto check_consumed = [&](Rdata rdata) -> util::StatusOr<Rdata> {
      if (pos_ != rdata_end) return util::ParseError("rdata length mismatch");
      return rdata;
    };
    switch (type) {
      case RRType::kA: {
        auto bits = ReadU32();
        if (!bits.ok()) return bits.status();
        return check_consumed(ARdata{geo::IPv4(*bits)});
      }
      case RRType::kAAAA: {
        AaaaRdata r;
        GOVDNS_RETURN_IF_ERROR(ReadBytes(r.address.data(), 16));
        return check_consumed(std::move(r));
      }
      case RRType::kNS: {
        auto name = ReadName();
        if (!name.ok()) return name.status();
        return check_consumed(NsRdata{*std::move(name)});
      }
      case RRType::kCNAME: {
        auto name = ReadName();
        if (!name.ok()) return name.status();
        return check_consumed(CnameRdata{*std::move(name)});
      }
      case RRType::kPTR: {
        auto name = ReadName();
        if (!name.ok()) return name.status();
        return check_consumed(PtrRdata{*std::move(name)});
      }
      case RRType::kMX: {
        auto pref = ReadU16();
        if (!pref.ok()) return pref.status();
        auto name = ReadName();
        if (!name.ok()) return name.status();
        return check_consumed(MxRdata{*pref, *std::move(name)});
      }
      case RRType::kSOA: {
        SoaRdata r;
        auto mname = ReadName();
        if (!mname.ok()) return mname.status();
        r.mname = *std::move(mname);
        auto rname = ReadName();
        if (!rname.ok()) return rname.status();
        r.rname = *std::move(rname);
        for (uint32_t* field :
             {&r.serial, &r.refresh, &r.retry, &r.expire, &r.minimum}) {
          auto v = ReadU32();
          if (!v.ok()) return v.status();
          *field = *v;
        }
        return check_consumed(std::move(r));
      }
      case RRType::kTXT: {
        TxtRdata r;
        while (pos_ < rdata_end) {
          auto len = ReadU8();
          if (!len.ok()) return len.status();
          std::string s(*len, '\0');
          GOVDNS_RETURN_IF_ERROR(
              ReadBytes(reinterpret_cast<uint8_t*>(s.data()), *len));
          r.strings.push_back(std::move(s));
        }
        return check_consumed(std::move(r));
      }
    }
    return util::ParseError("unsupported rdata type");
  }

  util::StatusOr<ResourceRecord> ReadRecord() {
    ResourceRecord rr;
    auto name = ReadName();
    if (!name.ok()) return name.status();
    rr.name = *std::move(name);
    auto type = ReadU16();
    if (!type.ok()) return type.status();
    auto klass = ReadU16();
    if (!klass.ok()) return klass.status();
    if (*klass != static_cast<uint16_t>(RRClass::kIN)) {
      return util::ParseError("unsupported class");
    }
    auto ttl = ReadU32();
    if (!ttl.ok()) return ttl.status();
    rr.ttl = *ttl;
    auto rdlength = ReadU16();
    if (!rdlength.ok()) return rdlength.status();
    if (pos_ + *rdlength > len_) return util::ParseError("rdata exceeds message");
    auto rdata = ReadRdata(static_cast<RRType>(*type), *rdlength);
    if (!rdata.ok()) return rdata.status();
    rr.rdata = *std::move(rdata);
    return rr;
  }

  bool AtEnd() const { return pos_ == len_; }

 private:
  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

util::StatusOr<Message> ReferenceDecode(const std::vector<uint8_t>& wire) {
  RefReader r(wire.data(), wire.size());
  Message msg;
  auto id = r.ReadU16();
  if (!id.ok()) return id.status();
  msg.header.id = *id;
  auto flags_or = r.ReadU16();
  if (!flags_or.ok()) return flags_or.status();
  const uint16_t flags = *flags_or;
  msg.header.qr = flags & 0x8000;
  if (((flags >> 11) & 0x0F) != 0) return util::ParseError("unsupported opcode");
  msg.header.aa = flags & 0x0400;
  msg.header.tc = flags & 0x0200;
  msg.header.rd = flags & 0x0100;
  msg.header.ra = flags & 0x0080;
  msg.header.rcode = static_cast<Rcode>(flags & 0x0F);
  uint16_t counts[4];
  for (auto& count : counts) {
    auto v = r.ReadU16();
    if (!v.ok()) return v.status();
    count = *v;
  }
  for (uint16_t i = 0; i < counts[0]; ++i) {
    Question q;
    auto name = r.ReadName();
    if (!name.ok()) return name.status();
    q.name = *std::move(name);
    auto type = r.ReadU16();
    if (!type.ok()) return type.status();
    q.type = static_cast<RRType>(*type);
    auto klass = r.ReadU16();
    if (!klass.ok()) return klass.status();
    if (*klass != static_cast<uint16_t>(RRClass::kIN)) {
      return util::ParseError("unsupported question class");
    }
    msg.questions.push_back(std::move(q));
  }
  std::vector<ResourceRecord>* sections[] = {&msg.answers, &msg.authority,
                                             &msg.additional};
  for (int s = 0; s < 3; ++s) {
    for (uint16_t i = 0; i < counts[s + 1]; ++i) {
      auto rr = r.ReadRecord();
      if (!rr.ok()) return rr.status();
      sections[s]->push_back(*std::move(rr));
    }
  }
  if (!r.AtEnd()) return util::ParseError("trailing bytes in message");
  return msg;
}

// ---------------------------------------------------------------------------
// Codec oracle: the same bytes out, the same messages accepted
// ---------------------------------------------------------------------------

// A random lowercase name of up to four fresh labels over a few public
// suffixes; now and then a 63-octet label, so the length bounds are near.
Name RandomName(util::Rng& rng) {
  static const char* kSuffixes[] = {"gov.cn", "gov.br", "gov.au", "net",
                                    "co.uk"};
  static constexpr std::string_view kLabelBytes =
      "abcdefghijklmnopqrstuvwxyz0123456789-_";
  Name name = Name::FromString(kSuffixes[rng.UniformU64(std::size(kSuffixes))]);
  for (uint64_t k = rng.UniformU64(5); k > 0; --k) {
    const size_t len = rng.Bernoulli(0.1) ? 63 : 1 + rng.UniformU64(10);
    if (name.WireLength() + 1 + len > 255) break;
    std::string label;
    for (size_t i = 0; i < len; ++i) {
      label += kLabelBytes[rng.UniformU64(kLabelBytes.size())];
    }
    name = name.Child(label);
  }
  return name;
}

// The response shapes measurement sees, over random names: a referral with
// glue, an NXDOMAIN carrying the zone's SOA, and an authoritative answer
// mixing SOA with the other rdata types (MX, PTR, TXT, AAAA).
Message ShapedMessage(util::Rng& rng) {
  const Name qname = RandomName(rng);
  const Name zone = qname.Parent();
  Message m = MakeResponse(
      MakeQuery(static_cast<uint16_t>(rng.NextU64()), qname,
                rng.Bernoulli(0.5) ? RRType::kNS : RRType::kA),
      Rcode::kNoError);
  const auto ttl = [&] { return static_cast<uint32_t>(rng.UniformU64(172801)); };
  switch (rng.UniformU64(3)) {
    case 0:
      for (uint64_t k = 1 + rng.UniformU64(4); k > 0; --k) {
        // An in-zone host when "nsK." still fits in 255 octets.
        const Name host =
            rng.Bernoulli(0.5) && zone.WireLength() + 4 <= 255
                ? zone.Child("ns" + std::to_string(k))
                : RandomName(rng);
        m.authority.push_back(MakeNs(zone, host, ttl()));
        if (rng.Bernoulli(0.7)) {
          m.additional.push_back(MakeA(
              host, geo::IPv4(static_cast<uint32_t>(rng.NextU64())), ttl()));
        }
      }
      break;
    case 1:
      m.header.aa = true;
      m.header.rcode = Rcode::kNxDomain;
      m.authority.push_back(MakeSoa(zone, RandomName(rng), RandomName(rng),
                                    static_cast<uint32_t>(rng.NextU64()),
                                    ttl()));
      break;
    default: {
      m.header.aa = true;
      m.answers.push_back(MakeSoa(qname, RandomName(rng), RandomName(rng),
                                  static_cast<uint32_t>(rng.NextU64()), ttl()));
      m.answers.push_back(
          ResourceRecord{qname, RRClass::kIN, ttl(),
                         MxRdata{static_cast<uint16_t>(rng.NextU64()),
                                 RandomName(rng)}});
      m.answers.push_back(
          ResourceRecord{qname, RRClass::kIN, ttl(), PtrRdata{RandomName(rng)}});
      TxtRdata txt;
      for (uint64_t k = rng.UniformU64(3); k > 0; --k) {
        txt.strings.push_back(std::string(rng.UniformU64(40), 't'));
      }
      m.answers.push_back(ResourceRecord{qname, RRClass::kIN, ttl(), txt});
      AaaaRdata aaaa;
      for (uint8_t& b : aaaa.address) b = static_cast<uint8_t>(rng.NextU64());
      m.additional.push_back(ResourceRecord{zone, RRClass::kIN, ttl(), aaaa});
      break;
    }
  }
  return m;
}

TEST(WireCodecOracle, EncoderMatchesReferenceBytes) {
  size_t messages = 0;
  for (int seed = 1; seed <= 10; ++seed) {
    // The same draws as MessageRoundTripProperty.EncodeDecodeIdentity.
    util::Rng rng(seed * 31337);
    for (int i = 0; i < 60; ++i, ++messages) {
      const Message m = RandomMessage(rng);
      ASSERT_EQ(m.Encode(), ReferenceEncode(m)) << seed << "/" << i;
    }
    util::Rng shapes(seed * 2718);
    for (int i = 0; i < 60; ++i, ++messages) {
      const Message m = ShapedMessage(shapes);
      ASSERT_EQ(m.Encode(), ReferenceEncode(m)) << seed << "/" << i;
    }
  }
  for (const PinnedMessage& pinned : PinnedCorpus()) {
    ASSERT_EQ(pinned.message.Encode(), ReferenceEncode(pinned.message))
        << pinned.label;
  }
  EXPECT_EQ(messages, 1200u);
}

// Where a valid encoding keeps its names: every label-length octet (the
// root octet included) and every compression pointer, in wire order.
struct NameSites {
  std::vector<size_t> lengths;
  std::vector<size_t> pointers;
};

void WalkName(const std::vector<uint8_t>& wire, size_t& pos, NameSites& sites) {
  for (;;) {
    const uint8_t len = wire[pos];
    if ((len & 0xC0) == 0xC0) {
      sites.pointers.push_back(pos);
      pos += 2;
      return;
    }
    sites.lengths.push_back(pos);
    pos += 1 + len;
    if (len == 0) return;
  }
}

NameSites FindNameSites(const std::vector<uint8_t>& wire) {
  const auto u16 = [&](size_t at) -> size_t {
    return size_t{wire[at]} << 8 | wire[at + 1];
  };
  NameSites sites;
  size_t pos = 12;
  for (size_t i = 0; i < u16(4); ++i) {
    WalkName(wire, pos, sites);
    pos += 4;
  }
  const size_t records = u16(6) + u16(8) + u16(10);
  for (size_t i = 0; i < records; ++i) {
    WalkName(wire, pos, sites);
    const auto type = static_cast<RRType>(u16(pos));
    size_t rdata = pos + 10;
    pos = rdata + u16(pos + 8);
    switch (type) {
      case RRType::kMX:
        rdata += 2;
        WalkName(wire, rdata, sites);
        break;
      case RRType::kSOA:
        WalkName(wire, rdata, sites);
        WalkName(wire, rdata, sites);
        break;
      case RRType::kNS:
      case RRType::kCNAME:
      case RRType::kPTR:
        WalkName(wire, rdata, sites);
        break;
      default:
        break;
    }
  }
  return sites;
}

// Applies one random mutation to a valid encoding: bit flips, a truncation,
// a header-count edit, a label-length or label-byte edit, or a
// compression-pointer retarget.
void Mutate(util::Rng& rng, const NameSites& sites, std::vector<uint8_t>& wire) {
  const auto pick = [&](const std::vector<size_t>& v) {
    return v[rng.UniformU64(v.size())];
  };
  switch (rng.UniformU64(6)) {
    case 0:
      for (uint64_t k = 1 + rng.UniformU64(3); k > 0; --k) {
        wire[rng.UniformU64(wire.size())] ^=
            static_cast<uint8_t>(1u << rng.UniformU64(8));
      }
      return;
    case 1:
      wire.resize(rng.UniformU64(wire.size()));
      return;
    case 2: {
      const size_t at = 4 + 2 * rng.UniformU64(4);
      const uint16_t old = static_cast<uint16_t>(wire[at] << 8 | wire[at + 1]);
      const uint16_t kEdits[] = {0,
                                 static_cast<uint16_t>(old + 1),
                                 static_cast<uint16_t>(old - 1),
                                 static_cast<uint16_t>(old + 2),
                                 0xFFFF,
                                 static_cast<uint16_t>(rng.NextU64())};
      const uint16_t v = kEdits[rng.UniformU64(std::size(kEdits))];
      wire[at] = static_cast<uint8_t>(v >> 8);
      wire[at + 1] = static_cast<uint8_t>(v & 0xFF);
      return;
    }
    case 3: {
      // Sites past a truncation made by an earlier mutation are skipped.
      const size_t at = pick(sites.lengths);
      if (at >= wire.size()) return;
      const uint8_t old = wire[at];
      const uint8_t kEdits[] = {0,
                                static_cast<uint8_t>(old + 1),
                                static_cast<uint8_t>(old - 1),
                                63,
                                64,
                                0x80,
                                static_cast<uint8_t>(rng.NextU64())};
      wire[at] = kEdits[rng.UniformU64(std::size(kEdits))];
      return;
    }
    case 4: {
      const size_t at = pick(sites.lengths);
      if (at >= wire.size() || wire[at] == 0 || wire[at] > 63) return;
      const size_t byte = at + 1 + rng.UniformU64(wire[at]);
      if (byte >= wire.size()) return;
      const uint8_t kBytes[] = {0, '.', ' ', 'A', 'z', 0x80, 0xFF,
                                static_cast<uint8_t>(rng.NextU64())};
      wire[byte] = kBytes[rng.UniformU64(std::size(kBytes))];
      return;
    }
    default: {
      // Retarget a pointer, or turn a label into one: at itself, just past
      // itself, at a label, at the first name, or anywhere.
      const bool have_pointer = !sites.pointers.empty() && rng.Bernoulli(0.7);
      const size_t at = have_pointer ? pick(sites.pointers) : pick(sites.lengths);
      if (at + 1 >= wire.size()) return;
      const size_t kTargets[] = {at,
                                 at + 1,
                                 pick(sites.lengths),
                                 12,
                                 0x3FFF,
                                 rng.UniformU64(wire.size() + 8)};
      const size_t target = kTargets[rng.UniformU64(std::size(kTargets))] & 0x3FFF;
      wire[at] = static_cast<uint8_t>(0xC0 | target >> 8);
      wire[at + 1] = static_cast<uint8_t>(target & 0xFF);
      return;
    }
  }
}

TEST(WireCodecOracle, MutantsDecodeLikeTheReference) {
  std::vector<std::vector<uint8_t>> corpus;
  for (const PinnedMessage& pinned : PinnedCorpus()) {
    corpus.push_back(pinned.message.Encode());
  }
  for (int seed = 1; seed <= 10; ++seed) {
    util::Rng rng(seed * 31337);
    util::Rng shapes(seed * 2718);
    for (int i = 0; i < 30; ++i) {
      corpus.push_back(RandomMessage(rng).Encode());
      corpus.push_back(ShapedMessage(shapes).Encode());
    }
  }
  std::vector<NameSites> sites;
  for (const std::vector<uint8_t>& wire : corpus) {
    sites.push_back(FindNameSites(wire));
  }

  constexpr size_t kMutants = 120000;
  util::Rng rng(20221);
  size_t accepted = 0;
  for (size_t i = 0; i < kMutants; ++i) {
    const size_t base = i % corpus.size();
    std::vector<uint8_t> mutant = corpus[base];
    for (uint64_t k = 1 + rng.UniformU64(2); k > 0 && mutant.size() > 12; --k) {
      Mutate(rng, sites[base], mutant);
    }
    const auto decoded = Message::Decode(mutant);
    const auto reference = ReferenceDecode(mutant);
    ASSERT_EQ(decoded.ok(), reference.ok())
        << "mutant " << i << " of message " << base << ": "
        << Hex(mutant) << " new: " << decoded.status().ToString()
        << " reference: " << reference.status().ToString();
    if (decoded.ok()) {
      ASSERT_EQ(*decoded, *reference) << "mutant " << i << ": " << Hex(mutant);
      ++accepted;
    }
  }
  // Both verdicts must be well represented for the sweep to mean much.
  EXPECT_GT(accepted, kMutants / 20);
  EXPECT_LT(accepted, kMutants / 2);
}

// ---------------------------------------------------------------------------
// The compression table past its inline capacity
// ---------------------------------------------------------------------------

// Heap blocks requested while encoding `m`.
size_t EncodeAllocations(const Message& m) {
  g_requests.store(0);
  g_track_requests.store(true);
  const std::vector<uint8_t> wire = m.Encode();
  g_track_requests.store(false);
  return g_requests.load();
}

// A referral from gov.xx to agency.gov.xx naming `targets` nameservers, each
// in a zone of its own ("ns1.dns-provider-17.net"), with glue for each.
Message WideReferral(int targets) {
  const Name qname = Name::FromString("www.agency.gov.xx");
  const Name cut = Name::FromString("agency.gov.xx");
  Message m = MakeResponse(MakeQuery(0x5151, qname, RRType::kA),
                           Rcode::kNoError);
  for (int i = 0; i < targets; ++i) {
    const Name host = Name::FromString(
        "ns1.dns-provider-" + std::to_string(i) + ".net");
    m.authority.push_back(MakeNs(cut, host, 172800));
    m.additional.push_back(
        MakeA(host, geo::IPv4(0xC6336400u + static_cast<uint32_t>(i)), 172800));
  }
  return m;
}

TEST(WireWriterSpillTest, TypicalReplyAllocatesOnlyItsBuffer) {
  for (const PinnedMessage& pinned : PinnedCorpus()) {
    if (pinned.label == "suffix_past_0x3fff") continue;  // over 512 octets
    EXPECT_EQ(EncodeAllocations(pinned.message), 1u) << pinned.label;
  }
  // Six targets: 17 suffixes and under 300 key bytes, inside the table.
  EXPECT_EQ(EncodeAllocations(WideReferral(6)), 1u);
}

TEST(WireWriterSpillTest, WideReferralMatchesReference) {
  // 40 targets in distinct zones record 83 suffixes and over 1,500 key
  // bytes: both tables move to the heap, and the glue then points at
  // targets recorded past the inline capacity.
  const Message m = WideReferral(40);
  EXPECT_GT(EncodeAllocations(m), 1u);
  const std::vector<uint8_t> wire = m.Encode();
  ASSERT_EQ(wire, ReferenceEncode(m)) << Hex(wire);
  auto decoded = Message::Decode(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, m);
}

TEST(WireWriterSpillTest, OffsetsPast0x3FFFMatchReference) {
  // Spilled tables first, then TXT padding that carries the offsets past
  // 0x3FFF, then names both already recorded (pointers into the spilled
  // tables) and new (written whole, never recorded).
  Message m = WideReferral(40);
  TxtRdata pad;
  for (int i = 0; i < 70; ++i) pad.strings.push_back(std::string(255, 'p'));
  m.additional.push_back(ResourceRecord{Name::FromString("pad.agency.gov.xx"),
                                        RRClass::kIN, 60, pad});
  for (int i = 0; i < 40; i += 3) {
    const std::string provider = "dns-provider-" + std::to_string(i) + ".net";
    m.additional.push_back(MakeA(Name::FromString("ns1." + provider),
                                 geo::IPv4(192, 0, 2, 1)));
    m.additional.push_back(MakeA(Name::FromString("ns2." + provider),
                                 geo::IPv4(192, 0, 2, 2)));
    m.additional.push_back(MakeA(Name::FromString("late" + std::to_string(i) +
                                                  ".example"),
                                 geo::IPv4(192, 0, 2, 3)));
  }
  const std::vector<uint8_t> wire = m.Encode();
  ASSERT_GT(wire.size(), size_t{0x3FFF} + 100);
  ASSERT_EQ(wire, ReferenceEncode(m));
  auto decoded = Message::Decode(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, m);
}

TEST(WireWriterSpillTest, RandomWideMessagesMatchReference) {
  // Many random names per message: the tables spill at varying points.
  util::Rng rng(4242);
  size_t spilled = 0;
  for (int i = 0; i < 200; ++i) {
    Message m = ShapedMessage(rng);
    for (uint64_t k = 20 + rng.UniformU64(60); k > 0; --k) {
      const Name host = RandomName(rng);
      m.additional.push_back(MakeA(host, geo::IPv4(10, 0, 0, 1), 60));
      if (rng.Bernoulli(0.3)) {
        m.additional.push_back(MakeNs(host.Parent().IsRoot() ? host
                                                             : host.Parent(),
                                      RandomName(rng), 60));
      }
    }
    if (EncodeAllocations(m) > 1) ++spilled;
    ASSERT_EQ(m.Encode(), ReferenceEncode(m)) << i;
  }
  EXPECT_GT(spilled, 100u);
}

}  // namespace
}  // namespace govdns::dns
