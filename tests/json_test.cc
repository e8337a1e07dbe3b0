// Unit tests for common/json: the parser and the streaming writer that
// every exported JSON document goes through. The parser tests keep the
// ObsJsonTest suite name they had before the parser moved out of
// src/obs, so their test ids stay stable.
#include "common/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

namespace hdmap {
namespace {

TEST(ObsJsonTest, ParsesScalars) {
  auto parsed = ParseJson("  {\"a\":1.5,\"b\":\"x\",\"c\":true,\"d\":null,"
                          "\"e\":false,\"f\":-7}  ");
  ASSERT_TRUE(parsed.ok());
  const JsonValue& doc = parsed.value();
  ASSERT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.GetNumber("a"), 1.5);
  EXPECT_EQ(doc.GetString("b"), "x");
  ASSERT_NE(doc.Find("c"), nullptr);
  EXPECT_TRUE(doc.Find("c")->bool_value);
  EXPECT_TRUE(doc.Find("d")->is_null());
  EXPECT_FALSE(doc.Find("e")->bool_value);
  EXPECT_EQ(doc.GetI64("f"), -7);
}

TEST(ObsJsonTest, ParsesNestedArraysAndObjects) {
  auto parsed = ParseJson("{\"rows\":[{\"id\":1},{\"id\":2},[3,4],[]]}");
  ASSERT_TRUE(parsed.ok());
  const JsonValue* rows = parsed->Find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->array.size(), 4u);
  EXPECT_EQ(rows->array[0].GetI64("id"), 1);
  EXPECT_EQ(rows->array[1].GetI64("id"), 2);
  ASSERT_EQ(rows->array[2].array.size(), 2u);
  EXPECT_DOUBLE_EQ(rows->array[2].array[1].number_value, 4.0);
  EXPECT_TRUE(rows->array[3].array.empty());
}

TEST(ObsJsonTest, DecodesStringEscapes) {
  auto parsed = ParseJson("{\"s\":\"a\\\"b\\\\c\\nd\\t\\u0041\\u0007\"}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetString("s"), "a\"b\\c\nd\tA\x07");
}

TEST(ObsJsonTest, DecodesUnicodeEscapesToUtf8) {
  auto decode = [](const std::string& literal) {
    auto parsed = ParseJson("\"" + literal + "\"");
    EXPECT_TRUE(parsed.ok()) << literal;
    return parsed.ok() ? parsed->string_value : std::string();
  };
  EXPECT_EQ(decode("\\u00e9"), "\xC3\xA9");
  EXPECT_EQ(decode("\\u20ac"), "\xE2\x82\xAC");
  EXPECT_EQ(decode("\\ud83d\\ude00"), "\xF0\x9F\x98\x80");
  EXPECT_EQ(decode("a\\u00E9b"), "a\xC3\xA9" "b");
}

TEST(ObsJsonTest, RejectsLoneSurrogates) {
  EXPECT_FALSE(ParseJson("\"\\ud83d\"").ok());
  EXPECT_FALSE(ParseJson("\"\\ud83dx\"").ok());
  EXPECT_FALSE(ParseJson("\"\\ud83d\\u0041\"").ok());
  EXPECT_FALSE(ParseJson("\"\\ude00\"").ok());
}

TEST(ObsJsonTest, NumbersFollowTheJsonGrammar) {
  for (const char* bad : {"+1", "1.", "01", ".5", "-", "1e", "1e+", "-01",
                          "[+1]", "[1.]", "[01]", "{\"a\":.5}"}) {
    EXPECT_FALSE(ParseJson(bad).ok()) << bad;
  }
  auto number = [](const char* text) {
    auto parsed = ParseJson(text);
    EXPECT_TRUE(parsed.ok()) << text;
    return parsed.ok() ? parsed->number_value : -1.0;
  };
  EXPECT_EQ(number("-0"), 0.0);
  EXPECT_TRUE(std::signbit(number("-0")));
  EXPECT_DOUBLE_EQ(number("1e-3"), 0.001);
  EXPECT_DOUBLE_EQ(number("1E+2"), 100.0);
  EXPECT_DOUBLE_EQ(number("0.25"), 0.25);
  EXPECT_DOUBLE_EQ(number("-12.5e1"), -125.0);
}

TEST(ObsJsonTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("nul").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
}

TEST(ObsJsonTest, RejectsPathologicalNesting) {
  std::string deep(256, '[');
  deep += std::string(256, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(ObsJsonTest, TypedAccessorsFallBackOnShapeMismatch) {
  auto parsed = ParseJson("{\"s\":\"text\",\"n\":3}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetNumber("s", -1.0), -1.0);   // wrong kind
  EXPECT_EQ(parsed->GetString("n", "dflt"), "dflt");
  EXPECT_EQ(parsed->GetU64("missing", 9), 9u);     // absent key
  EXPECT_EQ(parsed->array.size(), 0u);
}

TEST(JsonWriterTest, WritesEveryValueKindCompactly) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject()
      .Key("s").String("x")
      .Key("i").Int(-9223372036854775807LL - 1)
      .Key("u").Uint(18446744073709551615ULL)
      .Key("d").Double(0.1)
      .Key("whole").Double(3.0)
      .Key("tiny").Double(1e-300)
      .Key("nan").Double(std::nan(""))
      .Key("inf").Double(std::numeric_limits<double>::infinity())
      .Key("t").Bool(true)
      .Key("f").Bool(false)
      .Key("n").Null()
      .Key("a").BeginArray().Int(1).BeginArray().EndArray()
      .BeginObject().EndObject().EndArray()
      .EndObject();
  EXPECT_EQ(out,
            "{\"s\":\"x\",\"i\":-9223372036854775808,"
            "\"u\":18446744073709551615,\"d\":0.1,\"whole\":3,"
            "\"tiny\":1e-300,\"nan\":null,\"inf\":null,\"t\":true,"
            "\"f\":false,\"n\":null,\"a\":[1,[],{}]}");
  auto parsed = ParseJson(out);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->GetNumber("d"), 0.1);  // Shortest form round-trips.
  EXPECT_EQ(parsed->GetNumber("tiny"), 1e-300);
}

TEST(JsonWriterTest, AppendsToExistingText) {
  std::string out = "prefix ";
  JsonWriter w(&out);
  w.BeginArray().String("a").String("b").EndArray();
  EXPECT_EQ(out, "prefix [\"a\",\"b\"]");
}

TEST(JsonWriterTest, EscapesQuotesBackslashesAndControlBytes) {
  const std::string raw = "\"\\\n\t\r\x01\x1f\x7f";
  const std::string escaped = "\"\\\"\\\\\\n\\t\\r\\u0001\\u001f\x7f\"";
  std::string out;
  JsonWriter(&out).BeginObject().Key(raw).String(raw).EndObject();
  EXPECT_EQ(out, "{" + escaped + ":" + escaped + "}");
  auto parsed = ParseJson(out);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  ASSERT_EQ(parsed->object.size(), 1u);
  EXPECT_EQ(parsed->object[0].first, raw);
  EXPECT_EQ(parsed->object[0].second.string_value, raw);
}

TEST(JsonWriterTest, PassesMultiByteUtf8Through) {
  const std::string utf8 = "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x97\xba";
  std::string out;
  JsonWriter(&out).String(utf8);
  EXPECT_EQ(out, "\"" + utf8 + "\"");
  auto parsed = ParseJson(out);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->string_value, utf8);
}

TEST(JsonWriterTest, ParseWriteParseIsStable) {
  const std::string text =
      " { \"name\" : \"n\\u0001\\\"x\\\"\", \"values\": [1, -2.5, 1e21, "
      "0.30000000000000004, true, false, null, {\"deep\": [[]]}],"
      " \"empty\": {}, \"utf8\": \"\xc3\xa9\" } ";
  auto first = ParseJson(text);
  ASSERT_TRUE(first.ok()) << first.status().message();
  std::string written;
  JsonWriter(&written).Value(first.value());
  auto second = ParseJson(written);
  ASSERT_TRUE(second.ok()) << second.status().message();
  // Writing the second parse reproduces the same bytes: nothing was lost
  // or altered between the two parses.
  std::string rewritten;
  JsonWriter(&rewritten).Value(second.value());
  EXPECT_EQ(rewritten, written);
  EXPECT_EQ(second->GetString("name"), "n\x01\"x\"");
  EXPECT_EQ(second->GetString("utf8"), "\xc3\xa9");
  const JsonValue* values = second->Find("values");
  ASSERT_NE(values, nullptr);
  ASSERT_EQ(values->array.size(), 8u);
  EXPECT_EQ(values->array[2].number_value, 1e21);
  EXPECT_EQ(values->array[3].number_value, 0.30000000000000004);
  EXPECT_TRUE(values->array[6].is_null());
  EXPECT_TRUE(second->Find("empty")->is_object());
}

}  // namespace
}  // namespace hdmap
