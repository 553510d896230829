// Unit tests for util/: deterministic RNG, statistics (NRMSE, SSIM,
// histogram, correlation), geometry primitives, and the JSON reader/writer.

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "util/geometry.hpp"
#include "util/jsonl.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"
#include "util/stats.hpp"

namespace dco3d {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng r(11);
  double sum = 0.0, sum2 = 0.0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  auto copy = v;
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, sorted);
}

TEST(Stats, MeanVariance) {
  const std::vector<float> v{1.0f, 2.0f, 3.0f, 4.0f};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_DOUBLE_EQ(variance(v), 1.25);
}

TEST(Stats, RmseZeroForIdentical) {
  const std::vector<float> v{1.0f, 2.0f, 3.0f};
  EXPECT_DOUBLE_EQ(rmse(v, v), 0.0);
}

TEST(Stats, NrmseNormalizesByRange) {
  const std::vector<float> truth{0.0f, 10.0f};
  const std::vector<float> pred{1.0f, 9.0f};
  // rmse = 1, range = 10 -> 0.1
  EXPECT_NEAR(nrmse(pred, truth), 0.1, 1e-9);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<float> a{1.0f, 2.0f, 3.0f, 4.0f};
  const std::vector<float> b{2.0f, 4.0f, 6.0f, 8.0f};
  EXPECT_NEAR(pearson(a, b), 1.0, 1e-9);
  std::vector<float> c{4.0f, 3.0f, 2.0f, 1.0f};
  EXPECT_NEAR(pearson(a, c), -1.0, 1e-9);
}

TEST(Stats, PearsonConstantSignalIsZero) {
  const std::vector<float> a{1.0f, 1.0f, 1.0f};
  const std::vector<float> b{1.0f, 2.0f, 3.0f};
  EXPECT_DOUBLE_EQ(pearson(a, b), 0.0);
}

TEST(Stats, SsimIdenticalImagesIsOne) {
  std::vector<float> img(16 * 16);
  for (std::size_t i = 0; i < img.size(); ++i)
    img[i] = static_cast<float>(i % 7) * 0.3f;
  EXPECT_NEAR(ssim(img, img, 16, 16), 1.0, 1e-6);
}

TEST(Stats, SsimDissimilarImagesLower) {
  std::vector<float> a(16 * 16, 0.0f), b(16 * 16);
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = static_cast<float>((i / 16 + i % 16) % 2);
  EXPECT_LT(ssim(a, b, 16, 16), 0.6);
}

TEST(Stats, HistogramCountsAndClamping) {
  const std::vector<float> v{-1.0f, 0.05f, 0.15f, 0.95f, 2.0f};
  const auto h = histogram(v, 0.0, 1.0, 10);
  ASSERT_EQ(h.size(), 10u);
  EXPECT_EQ(h[0], 2u);  // -1 clamps into bucket 0, 0.05 lands there
  EXPECT_EQ(h[1], 1u);
  EXPECT_EQ(h[9], 2u);  // 0.95 and clamped 2.0
  std::size_t total = 0;
  for (auto c : h) total += c;
  EXPECT_EQ(total, v.size());
}

TEST(Stats, FractionThresholds) {
  const std::vector<float> v{0.1f, 0.3f, 0.5f, 0.7f};
  EXPECT_DOUBLE_EQ(fraction_below(v, 0.4), 0.5);
  EXPECT_DOUBLE_EQ(fraction_above(v, 0.4), 0.5);
}

TEST(Stats, AsciiHeatmapShapeAndContent) {
  std::vector<float> map(8 * 8, 0.0f);
  map[0] = 1.0f;  // bottom-left hot spot
  const std::string art = ascii_heatmap(map, 8, 8, 8);
  ASSERT_FALSE(art.empty());
  // Bottom row emitted last; the hotspot should produce a non-space char.
  const auto last_row = art.substr(art.size() - 9, 8);
  EXPECT_NE(last_row[0], ' ');
}

TEST(Geometry, RectBasics) {
  const Rect r{0, 0, 4, 2};
  EXPECT_DOUBLE_EQ(r.width(), 4.0);
  EXPECT_DOUBLE_EQ(r.height(), 2.0);
  EXPECT_DOUBLE_EQ(r.area(), 8.0);
  EXPECT_DOUBLE_EQ(r.half_perimeter(), 6.0);
  EXPECT_TRUE(r.contains({1, 1}));
  EXPECT_FALSE(r.contains({5, 1}));
}

TEST(Geometry, OverlapArea) {
  const Rect a{0, 0, 2, 2};
  const Rect b{1, 1, 3, 3};
  EXPECT_DOUBLE_EQ(a.overlap_area(b), 1.0);
  const Rect c{5, 5, 6, 6};
  EXPECT_DOUBLE_EQ(a.overlap_area(c), 0.0);
}

TEST(Geometry, BBoxAccumulates) {
  BBox box;
  EXPECT_TRUE(box.empty);
  box.add({1, 2});
  box.add({-1, 5});
  EXPECT_FALSE(box.empty);
  EXPECT_DOUBLE_EQ(box.rect.xlo, -1.0);
  EXPECT_DOUBLE_EQ(box.rect.yhi, 5.0);
}

TEST(Geometry, ManhattanAndEuclidean) {
  EXPECT_DOUBLE_EQ(manhattan({0, 0}, {3, 4}), 7.0);
  EXPECT_DOUBLE_EQ(euclidean({0, 0}, {3, 4}), 5.0);
}

// ---------------------------------------------------------------------------
// JSON: the parser's conformance is pinned on literal text only (never on
// JsonWriter output), so the trace validator and the serve protocol keep an
// independent check that what the emitters write is JSON.

using util::JsonObject;
using util::JsonValue;
using Kind = util::JsonValue::Kind;

JsonValue parse_ok(const std::string& text) {
  JsonValue v;
  const Status st = util::parse_json(text, v);
  EXPECT_TRUE(st.ok()) << text << ": " << st.message();
  return v;
}

bool parses(const std::string& text) {
  JsonValue v;
  const Status st = util::parse_json(text, v);
  if (!st.ok()) EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << text;
  return st.ok();
}

TEST(Json, ParsesScalarsArraysAndObjects) {
  const JsonValue v = parse_ok(
      R"( {"s":"x","n":-12.5e1,"t":true,"f":false,"z":null,)"
      R"( "a":[1,[],{}, "y"],"o":{"k":{"deep":[0]}}} )");
  ASSERT_TRUE(v.is(Kind::kObject));
  EXPECT_EQ(v.find("s")->str, "x");
  EXPECT_EQ(v.find("n")->num, -125.0);
  EXPECT_TRUE(v.find("t")->b);
  EXPECT_TRUE(v.find("f")->is(Kind::kBool));
  EXPECT_FALSE(v.find("f")->b);
  EXPECT_TRUE(v.find("z")->is(Kind::kNull));
  const JsonValue* a = v.find("a");
  ASSERT_TRUE(a && a->is(Kind::kArray));
  ASSERT_EQ(a->arr.size(), 4u);
  EXPECT_EQ(a->arr[0].num, 1.0);
  EXPECT_TRUE(a->arr[1].is(Kind::kArray) && a->arr[1].arr.empty());
  EXPECT_TRUE(a->arr[2].is(Kind::kObject) && a->arr[2].obj.empty());
  EXPECT_EQ(a->arr[3].str, "y");
  const JsonValue* deep = v.find("o")->find("k")->find("deep");
  ASSERT_TRUE(deep && deep->is(Kind::kArray));
  EXPECT_EQ(deep->arr.at(0).num, 0.0);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_EQ(a->find("s"), nullptr) << "find on a non-object";
  EXPECT_TRUE(parse_ok("7").is(Kind::kNumber));
  EXPECT_EQ(parse_ok(R"("top")").str, "top");
  // Duplicate keys: the last one wins.
  EXPECT_EQ(parse_ok(R"({"k":1,"k":2})").find("k")->num, 2.0);
}

TEST(Json, DecodesEscapesAndUnicodeToUtf8) {
  const JsonValue v = parse_ok(
      R"("q\" b\\ s\/ \b\f\n\r\t \u0041\u00e9\u20AC\u0001 raw é")");
  EXPECT_EQ(v.str, std::string("q\" b\\ s/ \b\f\n\r\t "
                               "A\xc3\xa9\xe2\x82\xac\x01 raw \xc3\xa9"));
  EXPECT_FALSE(parses(R"("\x")"));
  EXPECT_FALSE(parses(R"("\u12")"));
  EXPECT_FALSE(parses(R"("\u12g4")"));
  EXPECT_FALSE(parses(R"("open)"));
  EXPECT_FALSE(parses("\"trailing backslash\\"));
}

TEST(Json, NumbersFollowRfc8259) {
  EXPECT_EQ(parse_ok("0").num, 0.0);
  EXPECT_TRUE(std::signbit(parse_ok("-0").num));
  EXPECT_EQ(parse_ok("-1.5").num, -1.5);
  EXPECT_EQ(parse_ok("12e3").num, 12000.0);
  EXPECT_EQ(parse_ok("1E+2").num, 100.0);
  EXPECT_EQ(parse_ok("2.5e-3").num, 2.5e-3);
  EXPECT_EQ(parse_ok("0.30000000000000004").num, 0.1 + 0.2);
  EXPECT_EQ(parse_ok("18446744073709551615").num, 18446744073709551615.0);
  EXPECT_GT(parse_ok("4.9e-324").num, 0.0);  // smallest denormal
  for (const char* bad :
       {"inf", "-infinity", "-nan", "nan", "NaN", "0x10", "+1", "01", "-01",
        "1.", ".5", "-", "1e", "1e+", "1.e3", "--1", "1e400", "-1e400",
        "1e-400", "Infinity"})
    EXPECT_FALSE(parses(bad)) << bad;
  JsonObject o;
  EXPECT_FALSE(util::parse_json_object(R"({"scale":inf})", o).ok());
  EXPECT_FALSE(util::parse_json_object(R"({"scale":-nan})", o).ok());
}

TEST(Json, NestingDepthIsCapped) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_TRUE(parses(nested(util::kJsonMaxDepth)));
  EXPECT_FALSE(parses(nested(util::kJsonMaxDepth + 1)));
  // A hostile unterminated line is refused at the cap, not by the stack.
  const std::string hostile(1u << 20, '[');
  JsonValue v;
  const Status st = util::parse_json(hostile, v);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("nesting deeper than"), std::string::npos)
      << st.message();
  std::string objects;
  for (int i = 0; i <= util::kJsonMaxDepth; ++i) objects += R"({"k":)";
  objects += "1" + std::string(util::kJsonMaxDepth + 1, '}');
  EXPECT_FALSE(parses(objects));
}

TEST(Json, RejectsMalformedStructureAndTrailingContent) {
  for (const char* bad :
       {"", "   ", "{", "}", "[1,]", "[1 2]", R"({"a":1,})", R"({"a" 1})",
        R"({a:1})", R"({"a":})", "tru", "nul", "{} x", "[] []", "1 2",
        R"({"a":1}})", "[", "]"})
    EXPECT_FALSE(parses(bad)) << "'" << bad << "'";
  EXPECT_TRUE(parses(" \t\r\n{ \"a\" : [ 1 , 2 ] }\n"));
  JsonValue v;
  const Status st = util::parse_json("{} x", v);
  EXPECT_EQ(st.message(), "json: trailing content at offset 3");
}

TEST(Json, FlatObjectRejectsAnyNestedValue) {
  JsonObject o;
  ASSERT_TRUE(util::parse_json_object(
                  R"({"s":"v","n":2,"b":true,"z":null})", o)
                  .ok());
  EXPECT_EQ(util::json_str(o, "s"), "v");
  EXPECT_EQ(util::json_num(o, "n"), 2.0);
  EXPECT_TRUE(util::json_bool(o, "b"));
  EXPECT_TRUE(util::json_has(o, "z"));
  EXPECT_EQ(util::json_str(o, "n", "dflt"), "dflt") << "wrong kind -> default";
  ASSERT_TRUE(util::parse_json_object(" {} ", o).ok());
  EXPECT_TRUE(o.empty());

  for (const char* bad : {R"({"a":{"b":1}})", R"({"a":[1]})", R"({"a":[]})",
                          "[1]", "\"s\"", "3", "this is not json"}) {
    o["stale"] = {};
    const Status st = util::parse_json_object(bad, o);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_TRUE(o.empty()) << bad;
  }
  const Status nested = util::parse_json_object(R"({"cmd":"x","t":{}})", o);
  EXPECT_EQ(nested.message(),
            "json: nested containers are not part of the flat protocol at "
            "offset 15");
  const Status not_object = util::parse_json_object("  [1]", o);
  EXPECT_EQ(not_object.message(), "json: expected '{' at offset 2");
}

TEST(Json, WriterEscapesAndComposesNestedValues) {
  std::string s;
  util::json_escape_into(s, "a\"b\\c\nd\te\rf\x01");
  EXPECT_EQ(s, R"("a\"b\\c\nd\te\rf\u0001")");

  const std::string inner = util::JsonWriter().field("x", 1).done();
  const std::string out =
      util::JsonWriter()
          .field("s", "v")
          .field("d", 0.1)
          .field("nan", std::nan(""))
          .field("u", std::uint64_t{18446744073709551615ull})
          .field("i", std::int64_t{-7})
          .field("b", false)
          .array("rows", {inner, util::JsonWriter().done(), "[2]"})
          .array("none", {})
          .raw("obj", inner)
          .done();
  EXPECT_EQ(out,
            R"({"s":"v","d":0.10000000000000001,"nan":0,)"
            R"("u":18446744073709551615,"i":-7,"b":false,)"
            R"("rows":[{"x":1},{},[2]],"none":[],"obj":{"x":1}})");
}

// ---------------------------------------------------------------------------
// LineReader over a socketpair. A writer thread feeds one end because the
// capped lines are larger than the kernel's socket buffer.

struct SocketPair {
  util::Fd writer, reader;
  SocketPair() {
    int sv[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    writer.reset(sv[0]);
    reader.reset(sv[1]);
  }
};

TEST(LineReader, PipelinedLinesSplitAcrossChunkBoundaries) {
  std::vector<std::string> lines;
  std::string data;
  for (int i = 0; i < 120; ++i) {
    // Lengths 0..9999 straddle the reader's 4 KB receive chunks.
    lines.emplace_back(static_cast<std::size_t>(i * 733 % 10000),
                       static_cast<char>('a' + i % 26));
    data += lines.back() + '\n';
  }
  SocketPair sp;
  std::thread writer([&] {
    // Odd-sized pieces: line ends land anywhere inside a piece.
    for (std::size_t off = 0; off < data.size(); off += 997)
      util::send_all(sp.writer.get(), std::string_view(data).substr(off, 997));
    sp.writer.reset();
  });
  util::LineReader reader(sp.reader.get());
  std::string got;
  for (const std::string& want : lines) {
    if (!reader.read_line(got)) break;
    EXPECT_EQ(got, want);
  }
  EXPECT_FALSE(reader.read_line(got)) << "EOF after the last line";
  EXPECT_FALSE(reader.overlong());
  sp.reader.reset();  // on a failure above, unblock the writer
  writer.join();
}

TEST(LineReader, AcceptsLineAtCapAndRejectsOneByteMore) {
  const std::string at_cap(util::kMaxLineBytes, 'x');
  SocketPair sp;
  std::thread writer([&] {
    util::send_line(sp.writer.get(), "first");
    util::send_line(sp.writer.get(), at_cap);
    util::send_line(sp.writer.get(), at_cap + "y");
    util::send_line(sp.writer.get(), "never read");
  });
  util::LineReader reader(sp.reader.get());
  std::string got;
  EXPECT_TRUE(reader.read_line(got));
  EXPECT_EQ(got, "first");
  EXPECT_TRUE(reader.read_line(got));
  EXPECT_EQ(got.size(), util::kMaxLineBytes);
  EXPECT_FALSE(reader.overlong());
  EXPECT_FALSE(reader.read_line(got));
  EXPECT_TRUE(reader.overlong());
  EXPECT_FALSE(reader.read_line(got)) << "an overlong stream stays failed";
  sp.reader.reset();  // the writer's blocked send fails instead of hanging
  writer.join();
}

}  // namespace
}  // namespace dco3d
