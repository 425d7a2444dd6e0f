// Exactness and robustness of the trace text layer: the exported bytes
// against a golden document, numbers read back against std::strtod, and the
// streaming reader against window boundaries and malformed input.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "obs/trace_read.hpp"
#include "support/parsed_trace.hpp"

namespace paradyn::obs {
namespace {

TEST(TraceExport, BytesMatchTheGoldenDocument) {
  TraceRecorder recorder(16);
  Tracer t = recorder.create_tracer("sim \"0\"");
  t.set_track_name(2, std::string("app\\1\x01"));
  t.complete("cpu", "app", 2, 0.0625, 1.0005, "remaining_us", -0.0004, "ready", 3.0);
  t.instant("pipe", "full", 2, 1e6 + 0.1875, "capacity", 64.0);
  t.counter("main.backlog", 2.5, 1e-9);
  t.async_begin("sample", "lifecycle", 0xdeadbeefULL, 2, 7.0);
  t.async_instant("sample", "lifecycle", 0xdeadbeefULL, 2, 7.5, "enq", 1.0);
  t.async_end("sample", "lifecycle", 0xdeadbeefULL, 2, -3.25);
  t.instant("fault", "nan", 0, std::nan(""));
  std::ostringstream os;
  recorder.write_chrome_json(os);
  const std::string golden =
      R"({"traceEvents":[
{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"sim \"0\""}},
{"name":"thread_name","ph":"M","pid":0,"tid":2,"args":{"name":"app\\1\u0001"}},
{"name":"app","cat":"cpu","ph":"X","ts":0.062,"dur":1.000,"pid":0,"tid":2,"args":{"remaining_us":-0.000,"ready":3.000}},
{"name":"full","cat":"pipe","ph":"i","ts":1000000.188,"pid":0,"tid":2,"s":"t","args":{"capacity":64.000}},
{"name":"main.backlog","cat":"counter","ph":"C","ts":2.500,"pid":0,"tid":0,"args":{"value":0.000}},
{"name":"lifecycle","cat":"sample","ph":"b","ts":7.000,"pid":0,"tid":2,"id":"0xdeadbeef"},
{"name":"lifecycle","cat":"sample","ph":"n","ts":7.500,"pid":0,"tid":2,"id":"0xdeadbeef","args":{"enq":1.000}},
{"name":"lifecycle","cat":"sample","ph":"e","ts":-3.250,"pid":0,"tid":2,"id":"0xdeadbeef"},
{"name":"nan","cat":"fault","ph":"i","ts":0,"pid":0,"tid":0,"s":"t"}
],"displayTimeUnit":"ms","otherData":{"recorded":7,"dropped":0}}
)";
  EXPECT_EQ(os.str(), golden);
}

/// What "%.3f" prints for `v`, by the standard library; non-finite values
/// export as 0.
std::string fixed3_oracle(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[400];
  return {buf, std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, 3).ptr};
}

/// The numbers write_chrome_json prints for `values`, in order: four per
/// complete span (ts, dur and two arguments), one recorder per batch.
std::vector<std::string> exported_numbers(const std::vector<double>& values) {
  std::vector<std::string> out;
  out.reserve(values.size() + 3);
  constexpr std::size_t kSpans = std::size_t{1} << 15;
  const auto value = [&](std::size_t i) { return i < values.size() ? values[i] : 0.0; };
  for (std::size_t first = 0; first < values.size(); first += 4 * kSpans) {
    TraceRecorder recorder(kSpans);
    Tracer t = recorder.create_tracer();
    for (std::size_t i = first; i < std::min(values.size(), first + 4 * kSpans); i += 4) {
      t.complete("c", "x", 0, value(i), value(i + 1), "a", value(i + 2), "b", value(i + 3));
    }
    std::ostringstream os;
    recorder.write_chrome_json(os);
    const std::string json = os.str();
    std::size_t pos = 0;
    for (;;) {
      for (const std::string key : {R"("ts":)", R"("dur":)", R"("a":)", R"("b":)"}) {
        pos = json.find(key, pos);
        if (pos == std::string::npos) break;
        pos += key.size();
        const std::size_t end = json.find_first_of(",}", pos);
        out.push_back(json.substr(pos, end - pos));
        pos = end;
      }
      if (pos == std::string::npos) break;
    }
  }
  out.resize(values.size());
  return out;
}

void expect_exported_like_to_chars(const std::vector<double>& values) {
  const std::vector<std::string> got = exported_numbers(values);
  int mismatches = 0;
  for (std::size_t i = 0; i < values.size() && mismatches < 10; ++i) {
    const std::string want = fixed3_oracle(values[i]);
    if (got[i] != want) {
      ++mismatches;
      ADD_FAILURE() << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(values[i])
                    << std::dec << " exported as " << got[i] << ", to_chars gives " << want;
    }
  }
}

TEST(TraceExport, NumbersMatchToChars) {
  std::vector<double> edges = {0.0, -0.0, -0.0004, 0.0004, 0.0005, -0.0005, 0.0015, 1e6 + 0.1875,
                               -(1e6 + 0.1875), std::numeric_limits<double>::denorm_min(),
                               -std::numeric_limits<double>::denorm_min(),
                               std::numeric_limits<double>::min(),
                               std::numeric_limits<double>::max(),
                               -std::numeric_limits<double>::max(), 1e300, -1e-300,
                               std::nan(""), std::numeric_limits<double>::infinity()};
  // Exact ties of the third decimal at several magnitudes: k/16 and k/2048
  // land on ...5 in the fourth decimal for many k.
  for (double scale : {1.0, 1e3, 1e6, 1e9, 1e12, 1e15}) {
    for (int k = 0; k < 4096; ++k) {
      edges.push_back(scale + k / 16.0);
      edges.push_back(-(scale + k / 2048.0));
      edges.push_back(scale * 2 + k / 2048.0);
    }
  }
  // Subnormals.
  for (int e = -1074; e <= -1022; ++e) edges.push_back(std::ldexp(1.0, e) * 1.5);
  // Both sides of the integer path's end, |v| * 1000 < 2^64 (~1.8e16):
  // the last doubles on it, the first past it, and a stretch beyond.
  double below = 18446744073709551616.0 / 1000.0;
  double above = below;
  for (int i = 0; i < 64; ++i) {
    for (const double v : {below, above}) {
      edges.push_back(v);
      edges.push_back(-v);
    }
    below = std::nextafter(below, 0.0);
    above = std::nextafter(above, 1e300);
  }
  for (double v = 1e16; v < 1e17; v *= 1.001) edges.push_back(v);
  expect_exported_like_to_chars(edges);

  std::mt19937_64 rng(20);
  std::vector<double> random(1'000'000);
  // Random bit patterns: every sign, exponent and mantissa, so half land
  // on the std::to_chars fallback and NaN and infinity appear too.
  for (double& v : random) v = std::bit_cast<double>(rng());
  expect_exported_like_to_chars(random);
  // Random timestamps across a long run, in microseconds.
  std::uniform_real_distribution<double> ts(0.0, 1e7);
  for (double& v : random) v = ts(rng);
  expect_exported_like_to_chars(random);
}

/// A recorder trace of `chains` sample lifecycles plus the spans around
/// them, as JSON.
std::string synthetic_trace(int chains, const std::string& long_arg = "") {
  TraceRecorder recorder(10 * static_cast<std::size_t>(chains) + 16);
  Tracer t = recorder.create_tracer("rep 0");
  t.set_track_name(1, "app 0");
  for (int i = 0; i < chains; ++i) {
    const double ts = 10.0 * i;
    const auto id = static_cast<std::uint64_t>(i);
    t.async_begin("sample", "lifecycle", id, 1, ts);
    t.complete("cpu", "app", 1, ts, 3.0 + (i % 7), "remaining_us", 0.5 * i, "ready", 2.0);
    t.async_instant("sample", "lifecycle", id, 1, ts + 1.0, "enq", 1.0);
    t.instant("pipe", i % 11 == 0 ? "full" : "enqueue", 1, ts + 1.0, "depth", 3.0);
    t.async_instant("sample", "lifecycle", id, 2, ts + 4.0, "deq", 0.0);
    t.async_instant("sample", "lifecycle", id, 2, ts + 5.5, "collect", 1.5);
    t.async_instant("sample", "lifecycle", id, 2, ts + 6.0, "fwd", 1.0);
    t.async_instant("sample", "lifecycle", id, 3, ts + 8.0, "net", 2.0);
    t.async_end("sample", "lifecycle", id, 4, ts + 9.0);
    t.counter("main.backlog", ts + 9.0, static_cast<double>(i % 5));
  }
  std::ostringstream os;
  recorder.write_chrome_json(os);
  std::string json = os.str();
  if (!long_arg.empty()) {
    // One event with a string argument far larger than the read window.
    const std::string marker = "{\"traceEvents\":[\n";
    json.insert(marker.size(), R"({"name":"big","cat":"x","ph":"i","ts":1,"pid":0,"tid":0,)"
                               R"("args":{"blob":")" + long_arg + "\"}},\n");
  }
  return json;
}

std::vector<ParsedEvent> parse_all(const std::string& json, TraceStreamInfo* info = nullptr) {
  std::vector<ParsedEvent> out;
  std::istringstream is(json);
  const TraceStreamInfo got =
      stream_chrome_trace(is, [&](const EventView& ev) { out.push_back(to_parsed(ev)); });
  if (info != nullptr) *info = got;
  return out;
}

bool same_events(const std::vector<ParsedEvent>& a, const std::vector<ParsedEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const ParsedEvent& x = a[i];
    const ParsedEvent& y = b[i];
    if (x.name != y.name || x.cat != y.cat || x.ph != y.ph || x.id != y.id || x.pid != y.pid ||
        x.tid != y.tid || std::memcmp(&x.ts, &y.ts, sizeof x.ts) != 0 ||
        std::memcmp(&x.dur, &y.dur, sizeof x.dur) != 0 || x.num_args != y.num_args ||
        x.str_args != y.str_args) {
      return false;
    }
  }
  return true;
}

void expect_read_like_strtod(const ParsedEvent& event, const std::string& literal) {
  const double want = std::strtod(literal.c_str(), nullptr);
  EXPECT_EQ(std::memcmp(&event.ts, &want, sizeof want), 0)
      << literal << " read as " << event.ts << ", strtod gives " << want;
}

TEST(TraceReader, NumbersReadLikeStrtod) {
  const std::vector<std::string> edges = {
      "0", "-0", "0.000", "-0.000", "1", "12.5", "0.062", "1000000.188", "4503599627370.496",
      "9007199254740993", "1e22", "1e23", "1.5E+3", "2e-5", "123456789012345678901", "00012",
      "1.", ".5", "+1.5", "0x10", "-0x1p3", "1e999", "-1e999", "1e-400", "4.9e-324",
      "2.2250738585072011e-308", "inf", "-nan", "nan(12)",
      // Edges of the exact fast path (mantissa below 10^15, at most 22
      // decimals, no exponent).
      "123456789012345", "999999999999999", "-999999999999999", "1234567890123456",
      "123456789012345.6", "12345678901234.5", "99999999999999.99", "0.0000000000000001",
      "0.0000000000000000000001", "0.00000000000000000000001", "1.0000000000000000000000",
      "0.1", "0.3", "5.", "-5.", "5.e3", "-.5"};
  // Each edge literal cut by the end of the first 64 KiB read window at
  // every position.
  const std::string head = R"([{"ph":"i","ts":)";
  for (const std::string& literal : edges) {
    for (std::size_t cut = 0; cut <= literal.size(); ++cut) {
      const auto events = parse_all(std::string((std::size_t{1} << 16) - head.size() - cut, ' ') +
                                    head + literal + "}]");
      ASSERT_EQ(events.size(), 1u) << literal;
      expect_read_like_strtod(events[0], literal);
    }
  }
  // Random values as the exporter and other writers spell them.
  std::vector<std::string> literals;
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> exponent(-20, 40);
  char buf[64];
  for (int i = 0; i < 30'000; ++i) {
    const double v = (i % 2 ? -1.0 : 1.0) * unit(rng) * std::ldexp(1.0, exponent(rng));
    for (const char* format : {"%.3f", "%.17g", "%g"}) {
      std::snprintf(buf, sizeof(buf), format, v);
      literals.emplace_back(buf);
    }
  }
  std::string json = "[";
  for (const std::string& literal : literals) json += R"({"ph":"i","ts":)" + literal + "},";
  json.back() = ']';
  const auto events = parse_all(json);
  ASSERT_EQ(events.size(), literals.size());
  for (std::size_t i = 0; i < literals.size(); ++i) expect_read_like_strtod(events[i], literals[i]);
}

TEST(TraceReader, WindowBoundariesDoNotChangeWhatIsRead) {
  // The reader refills its window in 64 KiB steps.  Shifting the document
  // by 0..159 bytes of leading whitespace moves every step boundary across
  // a whole event, so every token kind gets split somewhere.
  const std::string json = synthetic_trace(240);
  ASSERT_GT(json.size(), std::size_t{3} << 16);
  TraceStreamInfo info;
  const auto reference = parse_all(json, &info);
  EXPECT_EQ(info.events, reference.size());
  EXPECT_EQ(info.recorded, 2400u);
  for (int pad = 1; pad < 160; ++pad) {
    ASSERT_TRUE(same_events(parse_all(std::string(static_cast<std::size_t>(pad), ' ') + json),
                            reference))
        << "pad " << pad;
  }
}

TEST(TraceReader, EventLargerThanTheWindowIsRead) {
  const std::string blob(300'000, 'z');
  const auto events = parse_all(synthetic_trace(50, blob));
  ASSERT_FALSE(events.empty());
  bool found = false;
  for (const auto& e : events) {
    if (e.name == "big") found = e.str_args.count("blob") && e.str_args.at("blob") == blob;
  }
  EXPECT_TRUE(found);
}

TEST(TraceReader, EscapesRepeatsAndNumericIdsReadLikeParsedEvent) {
  const std::string json =
      R"({"traceEvents":[{"name":"a\"bé\n","cat":"c","ph":"n","ts":1.5e3,"pid":-2,)"
      R"("tid":7,"id":42,"args":{"k":1,"k":2,"s":"x","s":"y\/z","o":{"deep":[1,{"x":null}]}},)"
      R"("args":{"t":true}}]})";
  const auto events = parse_all(json);
  ASSERT_EQ(events.size(), 1u);
  const ParsedEvent& e = events.front();
  EXPECT_EQ(e.name, "a\"b\xc3\xa9\n");
  EXPECT_DOUBLE_EQ(e.ts, 1500.0);
  EXPECT_EQ(e.pid, -2);
  EXPECT_EQ(e.id, std::to_string(42.0));  // numeric ids read as std::to_string spells them
  EXPECT_EQ(e.num_args, (std::map<std::string, double>{{"k", 2.0}}));  // last repeat wins
  EXPECT_EQ(e.str_args, (std::map<std::string, std::string>{{"s", "y/z"}}));
}

TEST(TraceReader, DeepNestingFailsWithAMessage) {
  const std::string deep = std::string(200'000, '[') + std::string(200'000, ']');
  const std::string json = R"({"traceEvents":[{"name":"x","args":{"a":)" + deep + "}}]}";
  try {
    (void)parse_all(json);
    FAIL() << "deeply nested value parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("nested too deeply"), std::string::npos) << e.what();
  }
}

TEST(TraceReader, OutOfRangeIntegersAreDefined) {
  const auto events = parse_all(R"([{"ph":"i","pid":1e300,"tid":-1e300,"ts":0}])");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].pid, std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(events[0].tid, std::numeric_limits<std::int64_t>::min());
  TraceStreamInfo info;
  (void)parse_all(R"({"traceEvents":[],"otherData":{"recorded":-5,"dropped":1e40}})", &info);
  EXPECT_EQ(info.recorded, 0u);
  EXPECT_EQ(info.dropped, 0u);
}

TEST(TraceReader, MutatedTracesParseOrFailCleanly) {
  // Every truncation and a fixed set of byte mutations of a real trace must
  // either parse or throw std::runtime_error: never crash, hang or read out
  // of bounds (the sanitizer CI job runs this too).
  const std::string json = synthetic_trace(4);
  const auto outcome = [](const std::string& doc) {
    int parsed = 0;
    try {
      std::istringstream is(doc);
      (void)profile_trace_stream(is);
      ++parsed;
    } catch (const std::runtime_error&) {
    }
    try {
      std::istringstream is(doc);
      (void)summarize_trace(is);
      ++parsed;
    } catch (const std::runtime_error&) {
    }
    EXPECT_NE(parsed, 1) << "the profiler and the summary disagree on a document";
    return parsed / 2;
  };
  ASSERT_EQ(outcome(json), 1);
  int failed = 0;
  for (std::size_t cut = 0; cut < json.size(); ++cut) failed += 1 - outcome(json.substr(0, cut));
  EXPECT_GT(failed, 0);
  // No exponent letters: they could turn a timestamp into one centuries
  // long, which is valid input that merely costs the full window vector.
  std::mt19937_64 rng(99);
  const std::string alphabet = "{}[]\":,.-+0123456789xtfnu\\ \n\x01\xff";
  for (int i = 0; i < 3000; ++i) {
    std::string doc = json;
    const int edits = 1 + static_cast<int>(rng() % 3);
    for (int k = 0; k < edits; ++k) {
      doc[rng() % doc.size()] = alphabet[rng() % alphabet.size()];
    }
    (void)outcome(doc);
  }
}

TEST(Profiler, EndlessCpuSpanStaysBounded) {
  // A span lasting 1e300 us must not walk the busy windows one by one to
  // its end, nor grow them past the window cap.
  EventView span;
  span.name = "app";
  span.cat = "cpu";
  span.ph = "X";
  span.ts = 5.0;
  span.dur = 1e300;
  Profiler profiler;
  profiler.feed(span);
  const ProfileReport report = profiler.finalize();
  ASSERT_EQ(report.resources.size(), 1u);
  EXPECT_EQ(report.resources[0].spans, 1u);
}

/// Reference oracle: the same merge over an ordered map.
void reference_merge(std::map<double, double>& m, double s, double e, double gap) {
  if (e < s) std::swap(s, e);
  auto it = m.upper_bound(s);
  if (it != m.begin()) {
    auto prev = std::prev(it);
    if (prev->second + gap >= s) {
      s = prev->first;
      e = std::max(e, prev->second);
      m.erase(prev);
    }
  }
  for (auto next = m.upper_bound(s); next != m.end() && next->first <= e + gap;
       next = m.upper_bound(s)) {
    e = std::max(e, next->second);
    m.erase(next);
  }
  m[s] = e;
}

TEST(BusyIntervals, MergeMatchesTheOrderedMapReference) {
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> start(0.0, 1000.0);
  std::exponential_distribution<double> length(0.2);
  for (int trial = 0; trial < 200; ++trial) {
    std::map<double, double> ref;
    std::vector<BusyInterval> got;
    const double gap = trial % 4 == 0 ? 0.0 : 0.002 * trial;
    double clock = 0.0;
    for (int i = 0; i < 300; ++i) {
      // Mostly in time order, as a track's spans arrive, with stragglers.
      double s = (i % 5 == 0) ? start(rng) : (clock += length(rng));
      double e = s + ((i % 9 == 0) ? -length(rng) : length(rng));
      if (i % 13 == 0) s = e = std::floor(s);
      reference_merge(ref, s, e, gap);
      merge_busy_interval(got, s, e, gap);
    }
    ASSERT_EQ(got.size(), ref.size());
    std::size_t i = 0;
    for (const auto& [s, e] : ref) {
      ASSERT_EQ(got[i].start, s);
      ASSERT_EQ(got[i].end, e);
      ++i;
    }
  }
}

}  // namespace
}  // namespace paradyn::obs
