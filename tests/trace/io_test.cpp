#include "trace/io.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "trace/generator.hpp"

namespace paradyn::trace {
namespace {

std::vector<TraceRecord> sample_records() {
  return {
      {0.0, 0, 1, ProcessClass::Application, ResourceKind::Cpu, 2213.5},
      {100.25, 1, 2, ProcessClass::ParadynDaemon, ResourceKind::Network, 71.0},
      {250.0, 0, 3, ProcessClass::MainParadyn, ResourceKind::Cpu, 3208.0},
  };
}

TEST(TraceIo, StreamRoundTrip) {
  const auto in = sample_records();
  std::stringstream ss;
  write_csv(ss, in);
  const auto out = read_csv(ss);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i].timestamp_us, in[i].timestamp_us);
    EXPECT_EQ(out[i].node, in[i].node);
    EXPECT_EQ(out[i].pid, in[i].pid);
    EXPECT_EQ(out[i].pclass, in[i].pclass);
    EXPECT_EQ(out[i].resource, in[i].resource);
    EXPECT_DOUBLE_EQ(out[i].duration_us, in[i].duration_us);
  }
}

TEST(TraceIo, EmptyTraceRoundTrip) {
  std::stringstream ss;
  write_csv(ss, {});
  EXPECT_TRUE(read_csv(ss).empty());
}

TEST(TraceIo, RejectsMissingHeader) {
  std::stringstream ss("1,2,3\n");
  EXPECT_THROW((void)read_csv(ss), std::runtime_error);
}

TEST(TraceIo, RejectsWrongFieldCount) {
  std::stringstream ss;
  ss << "timestamp_us,node,pid,process_class,resource,duration_us\n";
  ss << "1.0,0,1,application,cpu\n";  // five fields
  EXPECT_THROW((void)read_csv(ss), std::runtime_error);
}

TEST(TraceIo, RejectsBadNumericField) {
  std::stringstream ss;
  ss << "timestamp_us,node,pid,process_class,resource,duration_us\n";
  ss << "abc,0,1,application,cpu,5.0\n";
  EXPECT_THROW((void)read_csv(ss), std::runtime_error);
}

TEST(TraceIo, RejectsUnknownClass) {
  std::stringstream ss;
  ss << "timestamp_us,node,pid,process_class,resource,duration_us\n";
  ss << "1.0,0,1,martian,cpu,5.0\n";
  EXPECT_THROW((void)read_csv(ss), std::runtime_error);
}

TEST(TraceIo, SkipsBlankLines) {
  std::stringstream ss;
  ss << "timestamp_us,node,pid,process_class,resource,duration_us\n";
  ss << "1.0,0,1,application,cpu,5.0\n\n";
  EXPECT_EQ(read_csv(ss).size(), 1u);
}

TEST(TraceIo, FileRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "paradyn_trace_io_test.csv";
  const auto model = Sp2TraceModel::paper_pvmbt(0.5e6);
  const auto in = generate_trace(model, 2, 3);
  write_csv_file(path.string(), in);
  const auto out = read_csv_file(path.string());
  EXPECT_EQ(out.size(), in.size());
  std::filesystem::remove(path);
}

/// Parse `csv`: true if it parsed to records with finite, non-negative
/// fields; false if it threw std::runtime_error citing a line.  Anything
/// else fails the test.
bool parses_cleanly(const std::string& csv) {
  std::istringstream is(csv);
  try {
    for (const TraceRecord& r : read_csv(is)) {
      EXPECT_TRUE(std::isfinite(r.timestamp_us) && r.timestamp_us >= 0.0) << r.timestamp_us;
      EXPECT_TRUE(std::isfinite(r.duration_us) && r.duration_us >= 0.0) << r.duration_us;
      EXPECT_GE(r.node, 0);
      EXPECT_GE(r.pid, 0);
    }
    return true;
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("trace CSV line ", 0), 0u) << e.what();
    return false;
  }
}

TEST(TraceIo, MutatedCsvParsesOrFailsCleanly) {
  // A tracegen CSV, every truncation of it, seeded byte mutations, and
  // every numeric field set to a non-finite, negative or overflowing
  // value: each parses to finite, non-negative fields or throws
  // std::runtime_error naming the line.
  std::ostringstream os;
  write_csv(os, generate_trace(Sp2TraceModel::paper_pvmbt(0.05e6), 2, 5));
  const std::string csv = os.str();
  ASSERT_TRUE(parses_cleanly(csv));
  int failed = 0;
  for (std::size_t cut = 0; cut < csv.size(); ++cut) {
    failed += parses_cleanly(csv.substr(0, cut)) ? 0 : 1;
  }
  EXPECT_GT(failed, 0);

  std::mt19937_64 rng(26);
  const std::string alphabet = "0123456789.,-+eEinfa\n x";
  for (int i = 0; i < 2000; ++i) {
    std::string doc = csv;
    const int edits = 1 + static_cast<int>(rng() % 3);
    for (int k = 0; k < edits; ++k) doc[rng() % doc.size()] = alphabet[rng() % alphabet.size()];
    (void)parses_cleanly(doc);
  }

  // Every numeric field of every record set to a non-finite, negative or
  // overflowing value fails, citing that record's line.
  std::vector<std::string> lines;
  std::istringstream split(csv);
  for (std::string line; std::getline(split, line);) lines.push_back(line);
  for (std::size_t line = 1; line < lines.size(); ++line) {
    std::vector<std::string> fields;
    std::istringstream cells(lines[line]);
    for (std::string cell; std::getline(cells, cell, ',');) fields.push_back(cell);
    ASSERT_EQ(fields.size(), 6u);
    const std::string want = "trace CSV line " + std::to_string(line + 1) + ":";
    for (const std::size_t field : {0u, 1u, 2u, 5u}) {
      for (const char* bad : {"nan", "inf", "-inf", "-5", "1e400"}) {
        std::string doc;
        for (std::size_t l = 0; l < lines.size(); ++l) {
          if (l != line) {
            doc += lines[l] + "\n";
            continue;
          }
          for (std::size_t f = 0; f < fields.size(); ++f) {
            if (f > 0) doc += ',';
            doc += f == field ? std::string(bad) : fields[f];
          }
          doc += "\n";
        }
        std::istringstream is(doc);
        try {
          (void)read_csv(is);
          ADD_FAILURE() << "accepted " << bad << " in field " << field << " of line " << line + 1;
        } catch (const std::runtime_error& e) {
          EXPECT_EQ(std::string(e.what()).rfind(want, 0), 0u) << e.what();
        }
      }
    }
  }
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW((void)read_csv_file("/nonexistent/definitely/missing.csv"), std::runtime_error);
}

}  // namespace
}  // namespace paradyn::trace
