#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dns/message.h"
#include "dns/wire.h"
#include "util/rng.h"

namespace govdns::dns {
namespace {

TEST(WireWriterTest, Primitives) {
  WireWriter w;
  w.WriteU8(0xAB);
  w.WriteU16(0x1234);
  w.WriteU32(0xDEADBEEF);
  ASSERT_EQ(w.size(), 7u);
  WireReader r(w.buffer());
  EXPECT_EQ(*r.ReadU8(), 0xAB);
  EXPECT_EQ(*r.ReadU16(), 0x1234);
  EXPECT_EQ(*r.ReadU32(), 0xDEADBEEFu);
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireReaderTest, TruncationDetected) {
  std::vector<uint8_t> buf = {0x12};
  WireReader r(buf);
  EXPECT_FALSE(r.ReadU16().ok());
  EXPECT_FALSE(WireReader(buf).ReadU32().ok());
}

TEST(WireNameTest, UncompressedRoundTrip) {
  WireWriter w;
  Name name = Name::FromString("www.gov.au");
  w.WriteNameUncompressed(name);
  EXPECT_EQ(w.size(), name.WireLength());
  WireReader r(w.buffer());
  auto decoded = r.ReadName();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, name);
}

TEST(WireNameTest, RootName) {
  WireWriter w;
  w.WriteName(Name::Root());
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w.buffer()[0], 0);
  WireReader r(w.buffer());
  EXPECT_TRUE(r.ReadName()->IsRoot());
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
  EXPECT_EQ(*r.ReadName(), a);
  EXPECT_EQ(*r.ReadName(), b);
}

TEST(WireNameTest, FullSuffixCompression) {
  WireWriter w;
  Name a = Name::FromString("gov.cn");
  w.WriteName(a);
  size_t first = w.size();
  w.WriteName(a);  // identical name: a bare pointer
  EXPECT_EQ(w.size() - first, 2u);
  WireReader r(w.buffer());
  EXPECT_EQ(*r.ReadName(), a);
  EXPECT_EQ(*r.ReadName(), a);
}

TEST(WireNameTest, PointerLoopRejected) {
  // A pointer that points at itself.
  std::vector<uint8_t> buf = {0xC0, 0x00};
  WireReader r(buf);
  EXPECT_FALSE(r.ReadName().ok());
}

TEST(WireNameTest, ForwardPointerRejected) {
  // Pointer to offset 4, beyond its own position.
  std::vector<uint8_t> buf = {0xC0, 0x04, 0, 0, 3, 'c', 'o', 'm', 0};
  WireReader r(buf);
  EXPECT_FALSE(r.ReadName().ok());
}

TEST(WireNameTest, ReservedLabelTypeRejected) {
  std::vector<uint8_t> buf = {0x80, 0x01};
  WireReader r(buf);
  EXPECT_FALSE(r.ReadName().ok());
}

TEST(WireNameTest, IllegalLabelBytesRejected) {
  // NUL would forge a label boundary in the canonical key; '.', space and
  // bytes >= 0x80 are not legal label bytes either.
  const uint8_t kBad[] = {0x00, '.', ' ', 0x80, 0xC3, 0xFF};
  for (uint8_t bad : kBad) {
    const std::vector<uint8_t> direct = {3, 'a', bad, 'b', 3, 'g', 'o', 'v', 0};
    EXPECT_FALSE(WireReader(direct).ReadName().ok()) << int{bad};
    // The same label reached through a compression pointer at offset 9.
    std::vector<uint8_t> via_pointer = direct;
    via_pointer.insert(via_pointer.end(), {1, 'x', 0xC0, 0x00});
    WireReader r(via_pointer);
    uint8_t skip[9];
    ASSERT_TRUE(r.ReadBytes(skip, sizeof skip).ok());
    EXPECT_FALSE(r.ReadName().ok()) << int{bad};
  }
}

TEST(WireNameTest, UppercaseLabelsDecodeToLowercaseName) {
  const std::vector<uint8_t> buf = {3,   'W', 'w', 'W', 3, 'G', 'O', 'V',
                                    2,   'a', 'U', 0,   0xC0, 4};
  WireReader r(buf);
  auto name = r.ReadName();
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(*name, Name::FromString("www.gov.au"));
  EXPECT_EQ(name->CanonicalKey(), std::string("au\0gov\0www", 10));
  auto tail = r.ReadName();  // a pointer to "GOV.aU"
  ASSERT_TRUE(tail.ok());
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
    ASSERT_TRUE(r.ReadBytes(skip.data(), prev).ok());
    auto name = r.ReadName();
    ASSERT_EQ(name.ok(), chain == 32) << chain;
    if (name.ok()) {
      EXPECT_EQ(*name, Name::FromString("com"));
      EXPECT_TRUE(r.AtEnd());
    }
  }
}

TEST(WireRecordTest, ARecordRoundTrip) {
  ResourceRecord rr = MakeA(Name::FromString("www.gov.au"),
                            geo::IPv4(192, 0, 2, 1), 3600);
  WireWriter w;
  w.WriteRecord(rr);
  WireReader r(w.buffer());
  auto decoded = r.ReadRecord();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, rr);
}

TEST(WireRecordTest, SoaRoundTrip) {
  ResourceRecord rr = MakeSoa(Name::FromString("gov.au"),
                              Name::FromString("ns1.gov.au"),
                              Name::FromString("hostmaster.gov.au"), 42);
  WireWriter w;
  w.WriteRecord(rr);
  WireReader r(w.buffer());
  auto decoded = r.ReadRecord();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, rr);
}

TEST(WireRecordTest, TxtRoundTrip) {
  ResourceRecord rr = MakeTxt(Name::FromString("gov.au"), "v=spf1 -all");
  WireWriter w;
  w.WriteRecord(rr);
  WireReader r(w.buffer());
  auto decoded = r.ReadRecord();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, rr);
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
  EXPECT_FALSE(r.ReadRecord().ok());
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

}  // namespace
}  // namespace govdns::dns
