#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "dns/name.h"
#include "util/rng.h"

namespace govdns::dns {
namespace {

TEST(NameTest, ParseBasic) {
  auto name = Name::Parse("www.gov.au");
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name->LabelCount(), 3u);
  EXPECT_EQ(name->Label(0), "www");
  EXPECT_EQ(name->Label(2), "au");
  EXPECT_EQ(name->ToString(), "www.gov.au");
}

TEST(NameTest, ParseRoot) {
  auto root = Name::Parse(".");
  ASSERT_TRUE(root.ok());
  EXPECT_TRUE(root->IsRoot());
  EXPECT_EQ(root->ToString(), ".");
}

TEST(NameTest, ParseTrailingDot) {
  auto name = Name::Parse("gov.cn.");
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name->ToString(), "gov.cn");
}

TEST(NameTest, ParseLowercases) {
  EXPECT_EQ(Name::FromString("WWW.Gov.AU").ToString(), "www.gov.au");
}

TEST(NameTest, ParseRejectsBadInput) {
  EXPECT_FALSE(Name::Parse("").ok());
  EXPECT_FALSE(Name::Parse("a..b").ok());
  EXPECT_FALSE(Name::Parse("has space.com").ok());
  EXPECT_FALSE(Name::Parse(std::string(64, 'a') + ".com").ok());  // label>63
}

TEST(NameTest, ParseRejectsOverlongName) {
  std::string long_name;
  for (int i = 0; i < 30; ++i) long_name += "aaaaaaaaa.";  // 300 octets
  long_name += "com";
  EXPECT_FALSE(Name::Parse(long_name).ok());
}

TEST(NameTest, AcceptsUnderscoreAndHyphen) {
  EXPECT_TRUE(Name::Parse("_dmarc.example.com").ok());
  EXPECT_TRUE(Name::Parse("awsdns-03.co.uk").ok());
}

TEST(NameTest, SubdomainRelations) {
  Name root = Name::Root();
  Name au = Name::FromString("au");
  Name gov_au = Name::FromString("gov.au");
  Name www = Name::FromString("www.gov.au");

  EXPECT_TRUE(www.IsSubdomainOf(gov_au));
  EXPECT_TRUE(www.IsSubdomainOf(au));
  EXPECT_TRUE(www.IsSubdomainOf(root));
  EXPECT_TRUE(www.IsSubdomainOf(www));
  EXPECT_FALSE(gov_au.IsSubdomainOf(www));
  EXPECT_TRUE(www.IsProperSubdomainOf(gov_au));
  EXPECT_FALSE(www.IsProperSubdomainOf(www));
}

TEST(NameTest, SubdomainIsLabelWiseNotStringWise) {
  // "ngov.au" must not count as a subdomain of "gov.au".
  EXPECT_FALSE(Name::FromString("ngov.au").IsSubdomainOf(
      Name::FromString("gov.au")));
  EXPECT_FALSE(Name::FromString("gov.au").IsSubdomainOf(
      Name::FromString("ov.au")));
}

TEST(NameTest, ParentChildSuffix) {
  Name www = Name::FromString("www.gov.au");
  EXPECT_EQ(www.Parent().ToString(), "gov.au");
  EXPECT_EQ(www.Parent().Parent().ToString(), "au");
  EXPECT_EQ(Name::FromString("gov.au").Child("moe").ToString(), "moe.gov.au");
  EXPECT_EQ(www.Suffix(2).ToString(), "gov.au");
  EXPECT_EQ(www.Suffix(0).ToString(), ".");
  EXPECT_EQ(www.Suffix(3), www);
}

TEST(NameTest, WireLength) {
  EXPECT_EQ(Name::Root().WireLength(), 1u);
  EXPECT_EQ(Name::FromString("gov.au").WireLength(), 1u + 4 + 3);  // 3gov2au0
}

TEST(NameTest, CanonicalOrderingByRightmostLabel) {
  // a.gov.au < b.gov.au, and all *.gov.au sort between gov.au and gova.au.
  Name gov_au = Name::FromString("gov.au");
  Name a = Name::FromString("a.gov.au");
  Name b = Name::FromString("b.gov.au");
  Name gova = Name::FromString("gova.au");
  EXPECT_LT(gov_au, a);
  EXPECT_LT(a, b);
  EXPECT_LT(b, gova);
}

TEST(NameTest, EqualityIgnoresSourceCase) {
  EXPECT_EQ(Name::FromString("NS1.Gov.CN"), Name::FromString("ns1.gov.cn"));
}

TEST(NameTest, HashConsistentWithEquality) {
  Name::Hash hash;
  EXPECT_EQ(hash(Name::FromString("a.b.c")), hash(Name::FromString("A.b.C")));
  EXPECT_NE(hash(Name::FromString("a.b.c")), hash(Name::FromString("a.b.d")));
}

TEST(NameTest, FromLabels) {
  auto name = Name::FromLabels({"www", "gov", "au"});
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name->ToString(), "www.gov.au");
  EXPECT_FALSE(Name::FromLabels({"ok", ""}).ok());
}

// Property sweep: ordering is a strict weak order consistent with equality.
class NameOrderProperty : public ::testing::TestWithParam<int> {};

TEST_P(NameOrderProperty, TotalOrderOnRandomNames) {
  util::Rng rng(GetParam());
  std::vector<Name> names;
  static const char* kLabels[] = {"a", "b", "ns1", "gov", "cn", "au", "www"};
  for (int i = 0; i < 40; ++i) {
    std::vector<std::string> labels;
    int n = 1 + static_cast<int>(rng.UniformU64(4));
    for (int j = 0; j < n; ++j) {
      labels.push_back(kLabels[rng.UniformU64(std::size(kLabels))]);
    }
    names.push_back(*Name::FromLabels(std::move(labels)));
  }
  std::sort(names.begin(), names.end());
  for (size_t i = 0; i + 1 < names.size(); ++i) {
    // Sorted: no element greater than its successor.
    EXPECT_FALSE(names[i + 1] < names[i]);
    // Consistency: equal iff neither is less.
    bool eq = names[i] == names[i + 1];
    bool neither_less = !(names[i] < names[i + 1]) && !(names[i + 1] < names[i]);
    EXPECT_EQ(eq, neither_less);
  }
  // Subdomains are contiguous after their ancestor in canonical order.
  for (size_t i = 0; i < names.size(); ++i) {
    bool in_run = false, run_ended = false;
    for (size_t j = i + 1; j < names.size(); ++j) {
      bool sub = names[j].IsSubdomainOf(names[i]);
      if (sub) {
        EXPECT_FALSE(run_ended) << names[j].ToString() << " under "
                                << names[i].ToString() << " after a gap";
        in_run = true;
      } else if (in_run) {
        run_ended = true;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NameOrderProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Property sweep: parse/format round trip.
class NameRoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(NameRoundTripProperty, ParseFormatRoundTrip) {
  util::Rng rng(GetParam() * 977);
  for (int i = 0; i < 50; ++i) {
    std::vector<std::string> labels;
    int n = 1 + static_cast<int>(rng.UniformU64(5));
    for (int j = 0; j < n; ++j) {
      std::string label;
      int len = 1 + static_cast<int>(rng.UniformU64(12));
      for (int k = 0; k < len; ++k) {
        label += static_cast<char>('a' + rng.UniformU64(26));
      }
      labels.push_back(std::move(label));
    }
    auto name = Name::FromLabels(labels);
    ASSERT_TRUE(name.ok());
    auto reparsed = Name::Parse(name->ToString());
    ASSERT_TRUE(reparsed.ok());
    EXPECT_EQ(*name, *reparsed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NameRoundTripProperty,
                         ::testing::Range(1, 9));

TEST(NameTest, CanonicalKeyIsTheStoredEncoding) {
  const Name www = Name::FromString("www.gov.au");
  EXPECT_EQ(www.CanonicalKey(), std::string("au\0gov\0www", 10));
  EXPECT_EQ(Name::Root().CanonicalKey(), "");
  auto adopted = Name::FromCanonicalKey(std::string("AU\0Gov\0www", 10));
  ASSERT_TRUE(adopted.ok());
  EXPECT_EQ(*adopted, www);
  EXPECT_EQ(adopted->LabelCount(), 3u);
  EXPECT_TRUE(Name::FromCanonicalKey("")->IsRoot());
}

TEST(NameTest, FromCanonicalKeyRejectsForgedBoundaries) {
  using namespace std::string_literals;
  EXPECT_FALSE(Name::FromCanonicalKey("\0au"s).ok());         // leading
  EXPECT_FALSE(Name::FromCanonicalKey("au\0"s).ok());         // trailing
  EXPECT_FALSE(Name::FromCanonicalKey("au\0\0gov"s).ok());    // doubled
  EXPECT_FALSE(Name::FromCanonicalKey("\0"s).ok());
  EXPECT_FALSE(Name::FromCanonicalKey("au\0g.v"s).ok());      // bad byte
  EXPECT_FALSE(Name::FromCanonicalKey("au\0g v"s).ok());
  EXPECT_FALSE(Name::FromCanonicalKey("au\0g\xc3\xa9"s).ok());
  EXPECT_FALSE(Name::FromCanonicalKey("au\0"s + std::string(64, 'a')).ok());
  EXPECT_TRUE(Name::FromCanonicalKey("au\0"s + std::string(63, 'a')).ok());
  // 63+1+63+1+63+1+61 = 253 key bytes is 255 wire octets; one more is over.
  const std::string l63(63, 'a');
  const std::string max_key = l63 + '\0' + l63 + '\0' + l63 + '\0' +
                              std::string(61, 'b');
  auto max = Name::FromCanonicalKey(max_key);
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max->WireLength(), 255u);
  EXPECT_FALSE(Name::FromCanonicalKey(max_key + 'b').ok());
}

TEST(NameTest, EveryConstructorRejectsNulInsideALabel) {
  using namespace std::string_literals;
  EXPECT_FALSE(Name::Parse("a\0b.gov.au"s).ok());
  EXPECT_FALSE(Name::FromLabels({"a\0b"s, "gov"}).ok());
  EXPECT_FALSE(IsValidLabel("a\0b"s));
  EXPECT_DEATH(Name::FromString("gov.au").Child("a\0b"s), "");
}

TEST(NameTest, HashValuesPinned) {
  // Cut-cache stripes are chosen by these values; they must not move.
  Name::Hash hash;
  EXPECT_EQ(hash(Name::Root()), 0xcbf29ce484222325ULL);
  EXPECT_EQ(hash(Name::FromString("au")), 0xf393e1635654ceb6ULL);
  EXPECT_EQ(hash(Name::FromString("www.gov.au")), 0x1f9c809c271ce053ULL);
  EXPECT_EQ(hash(Name::FromString("ns1.moe.gov.cn")), 0x6c2ce289e747e6e1ULL);
  EXPECT_EQ(hash(Name::FromString("a-b_c.x0.example")), 0xa49ba84fa7795a2dULL);
}

TEST(NameTest, CopyAndMoveAcrossInlineAndHeapKeys) {
  using namespace std::string_literals;
  // Keys of 30 bytes are stored inline, 31 and up on the heap.
  const Name inline_max = *Name::FromCanonicalKey("au\0"s + std::string(27, 'i'));
  const Name heap_min = *Name::FromCanonicalKey("au\0"s + std::string(28, 'h'));
  const Name heap_max = *Name::FromCanonicalKey(
      std::string(63, 'a') + '\0' + std::string(63, 'b') + '\0' +
      std::string(63, 'c') + '\0' + std::string(61, 'd'));
  ASSERT_EQ(inline_max.CanonicalKey().size(), 30u);
  ASSERT_EQ(heap_min.CanonicalKey().size(), 31u);
  ASSERT_EQ(heap_max.WireLength(), 255u);
  const Name short_name = Name::FromString("gov.au");
  for (const Name* a : {&short_name, &inline_max, &heap_min, &heap_max}) {
    Name copy = *a;
    EXPECT_EQ(copy, *a);
    EXPECT_EQ(copy.ToString(), a->ToString());
    for (const Name* b : {&short_name, &inline_max, &heap_min, &heap_max}) {
      Name assigned = *b;
      assigned = *a;
      EXPECT_EQ(assigned, *a);
      Name moved_into = *b;
      Name source = *a;
      moved_into = std::move(source);
      EXPECT_EQ(moved_into, *a);
      EXPECT_TRUE(source.IsRoot());  // NOLINT(bugprone-use-after-move)
    }
    Name self = *a;
    const Name& alias = self;
    self = alias;
    EXPECT_EQ(self, *a);
    Name moved = std::move(copy);
    EXPECT_EQ(moved, *a);
    EXPECT_TRUE(copy.IsRoot());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(moved.Parent().Child(std::string(moved.Label(0))), *a);
  }
  EXPECT_TRUE(heap_min.IsProperSubdomainOf(Name::FromString("au")));
  EXPECT_LT(heap_min, inline_max);  // "hhh..." sorts before "iii..."
  EXPECT_LT(short_name, heap_min);  // "gov" sorts before "hhh..." under au
}

// The label-wise representation Name had before it became one flat key,
// kept as a test-only oracle: labels leftmost-first, compared right to left.
struct RefName {
  std::vector<std::string> labels;

  std::strong_ordering operator<=>(const RefName& other) const {
    const size_t n = std::min(labels.size(), other.labels.size());
    for (size_t i = 1; i <= n; ++i) {
      const std::string& a = labels[labels.size() - i];
      const std::string& b = other.labels[other.labels.size() - i];
      if (auto cmp = a <=> b; cmp != 0) return cmp;
    }
    return labels.size() <=> other.labels.size();
  }
  bool operator==(const RefName& other) const { return labels == other.labels; }

  bool IsSubdomainOf(const RefName& other) const {
    return other.labels.size() <= labels.size() &&
           std::equal(other.labels.rbegin(), other.labels.rend(),
                      labels.rbegin());
  }
  RefName Suffix(size_t count) const {
    return {std::vector<std::string>(labels.end() - count, labels.end())};
  }
  std::string ToString() const {
    if (labels.empty()) return ".";
    std::string out;
    for (const std::string& label : labels) {
      if (!out.empty()) out += '.';
      out += label;
    }
    return out;
  }
  size_t WireLength() const {
    size_t len = 1;
    for (const std::string& label : labels) len += 1 + label.size();
    return len;
  }
  size_t Hash() const {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::string& label : labels) h = util::HashString(label, h);
    return static_cast<size_t>(h);
  }
};

std::string RandomLabel(util::Rng& rng) {
  // Labels sharing prefixes exercise the '\0'-below-every-byte argument.
  static const char* kShared[] = {"ab", "ab-", "abc", "ab_", "a",
                                  "a0", "z",   "gov", "gov-", "gova"};
  static constexpr std::string_view kAlphabet =
      "abcdefghijklmnopqrstuvwxyz0123456789_-";
  if (rng.Bernoulli(0.5)) return kShared[rng.UniformU64(std::size(kShared))];
  const size_t len = rng.Bernoulli(0.8) ? 1 + rng.UniformU64(8)
                                        : 1 + rng.UniformU64(63);
  std::string label;
  for (size_t i = 0; i < len; ++i) {
    label += kAlphabet[rng.UniformU64(kAlphabet.size())];
  }
  return label;
}

// 1-8 labels, at most 255 wire octets; a third of the names extend an
// earlier one so subdomain relations are common.
std::vector<RefName> RandomRefNames(util::Rng& rng, size_t count) {
  std::vector<RefName> names;
  while (names.size() < count) {
    RefName name;
    if (!names.empty() && rng.Bernoulli(0.33)) {
      name = names[rng.UniformU64(names.size())];
      if (name.labels.size() == 8) continue;
      name.labels.insert(name.labels.begin(), RandomLabel(rng));
    } else {
      const size_t n = 1 + rng.UniformU64(8);
      for (size_t i = 0; i < n; ++i) name.labels.push_back(RandomLabel(rng));
    }
    if (name.WireLength() <= 255) names.push_back(std::move(name));
  }
  return names;
}

class NameReferenceOracle : public ::testing::TestWithParam<int> {};

TEST_P(NameReferenceOracle, FlatKeyMatchesLabelWiseReference) {
  util::Rng rng(GetParam() * 6151);
  const std::vector<RefName> refs = RandomRefNames(rng, 80);
  std::vector<Name> names;
  for (const RefName& ref : refs) {
    auto name = Name::FromLabels(ref.labels);
    ASSERT_TRUE(name.ok()) << ref.ToString();
    names.push_back(*std::move(name));
  }
  for (size_t i = 0; i < refs.size(); ++i) {
    const RefName& ref = refs[i];
    const Name& name = names[i];
    ASSERT_EQ(name.ToString(), ref.ToString());
    EXPECT_EQ(name.WireLength(), ref.WireLength());
    EXPECT_EQ(Name::Hash()(name), ref.Hash());
    ASSERT_EQ(name.LabelCount(), ref.labels.size());
    size_t at = 0;
    for (std::string_view label : name.labels()) {
      EXPECT_EQ(label, ref.labels[at]);
      EXPECT_EQ(name.Label(at), ref.labels[at]);
      ++at;
    }
    EXPECT_EQ(at, ref.labels.size());
    for (size_t k = 0; k <= ref.labels.size(); ++k) {
      const Name suffix = name.Suffix(k);
      EXPECT_EQ(suffix.ToString(), ref.Suffix(k).ToString());
      EXPECT_EQ(suffix.LabelCount(), k);
      EXPECT_EQ(suffix, *Name::FromLabels(ref.Suffix(k).labels));
    }
    EXPECT_EQ(name.Parent(), name.Suffix(ref.labels.size() - 1));
    EXPECT_EQ(name.Parent().ToString(),
              ref.Suffix(ref.labels.size() - 1).ToString());
    EXPECT_EQ(*Name::Parse(ref.ToString()), name);
    EXPECT_EQ(*Name::FromCanonicalKey(name.CanonicalKey()), name);
    RefName upper = ref;
    for (std::string& label : upper.labels) {
      for (char& c : label) c = static_cast<char>(std::toupper(c));
    }
    EXPECT_EQ(*Name::FromLabels(upper.labels), name);
    for (size_t j = 0; j < refs.size(); ++j) {
      const RefName& other_ref = refs[j];
      const Name& other = names[j];
      EXPECT_EQ(name <=> other, ref <=> other_ref)
          << ref.ToString() << " vs " << other_ref.ToString();
      EXPECT_EQ(name == other, ref == other_ref);
      EXPECT_EQ(name.IsSubdomainOf(other), ref.IsSubdomainOf(other_ref))
          << ref.ToString() << " under " << other_ref.ToString();
      EXPECT_EQ(name.IsProperSubdomainOf(other),
                ref.IsSubdomainOf(other_ref) && !(ref == other_ref));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NameReferenceOracle, ::testing::Range(1, 9));

}  // namespace
}  // namespace govdns::dns
