#include <gtest/gtest.h>

#include "core/export.h"
#include "util/json.h"
#include "worldgen/adapter.h"

namespace govdns {
namespace {

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

TEST(JsonWriterTest, ObjectsArraysScalars) {
  util::JsonWriter json;
  json.BeginObject();
  json.Kv("name", "gov.cn");
  json.Kv("count", 42);
  json.Kv("ratio", 0.5);
  json.Kv("flag", true);
  json.Key("nothing").Null();
  json.Key("list").BeginArray().Int(1).Int(2).Int(3).EndArray();
  json.Key("nested").BeginObject().Kv("a", 1).EndObject();
  json.EndObject();
  EXPECT_EQ(json.TakeString(),
            R"({"name":"gov.cn","count":42,"ratio":0.5,"flag":true,)"
            R"("nothing":null,"list":[1,2,3],"nested":{"a":1}})");
}

TEST(JsonWriterTest, EscapesControlAndQuote) {
  util::JsonWriter json;
  json.BeginArray().String("a\"b\\c\nd\te\x01").EndArray();
  EXPECT_EQ(json.TakeString(), "[\"a\\\"b\\\\c\\nd\\te\\u0001\"]");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  util::JsonWriter json;
  json.BeginArray().Double(1.0 / 0.0).Double(0.25).EndArray();
  EXPECT_EQ(json.TakeString(), "[null,0.25]");
}

TEST(JsonWriterTest, EmptyContainers) {
  util::JsonWriter json;
  json.BeginObject()
      .Key("a").BeginArray().EndArray()
      .Key("o").BeginObject().EndObject()
      .EndObject();
  EXPECT_EQ(json.TakeString(), R"({"a":[],"o":{}})");
}

// ---------------------------------------------------------------------------
// Report export over a small end-to-end run
// ---------------------------------------------------------------------------

class ExportTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    worldgen::WorldConfig config;
    config.scale = 0.01;
    world_ = worldgen::BuildWorld(config).release();
    bound_ = new worldgen::BoundStudy(worldgen::MakeStudy(*world_));
    report_ = new core::StudyReport(bound_->study->Run());
  }
  static void TearDownTestSuite() {
    delete report_;
    delete bound_;
    delete world_;
  }
  static worldgen::World* world_;
  static worldgen::BoundStudy* bound_;
  static core::StudyReport* report_;
};

worldgen::World* ExportTest::world_ = nullptr;
worldgen::BoundStudy* ExportTest::bound_ = nullptr;
core::StudyReport* ExportTest::report_ = nullptr;

TEST_F(ExportTest, JsonContainsEverySection) {
  std::string json = core::ExportReportJson(*report_);
  for (const char* key :
       {"\"selection\":", "\"pdns_per_year\":", "\"funnel\":",
        "\"replication\":", "\"diversity\":", "\"d1ns_churn\":",
        "\"private_share\":", "\"providers\":", "\"delegations\":",
        "\"hijack\":", "\"consistency\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Balanced braces as a cheap well-formedness proxy.
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST_F(ExportTest, CsvTablesHaveHeadersAndRows) {
  for (const char* table :
       {"pdns_per_year", "d1ns_churn", "private_share", "diversity",
        "delegations_by_country"}) {
    std::string csv = core::ExportCsv(*report_, table);
    ASSERT_FALSE(csv.empty()) << table;
    // Header + at least one data row.
    EXPECT_GE(std::count(csv.begin(), csv.end(), '\n'), 2) << table;
  }
}

TEST_F(ExportTest, UnknownCsvTableIsEmpty) {
  EXPECT_TRUE(core::ExportCsv(*report_, "no_such_table").empty());
}

TEST_F(ExportTest, PdnsCsvMatchesReport) {
  std::string csv = core::ExportCsv(*report_, "pdns_per_year");
  std::istringstream is(csv);
  std::string header, first_row;
  std::getline(is, header);
  std::getline(is, first_row);
  std::string expected = std::to_string(report_->pdns_per_year[0].year) + "," +
                         std::to_string(report_->pdns_per_year[0].domains);
  EXPECT_EQ(first_row.substr(0, expected.size()), expected);
}

}  // namespace
}  // namespace govdns
