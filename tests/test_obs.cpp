//===----------------------------------------------------------------------===//
///
/// \file
/// Unit and integration tests for the observability layer: span
/// recording on the modelled-time lane clocks, log-bucketed histogram
/// geometry, Chrome trace_event JSON round-trips through a real JSON
/// parser, Prometheus text grammar, and the reconciliation contract —
/// per-lane stage-span totals must equal the report's busy times.
///
//===----------------------------------------------------------------------===//

#include "core/ReductionPipeline.h"
#include "obs/MetricsRegistry.h"
#include "obs/TraceRecorder.h"
#include "util/ThreadPool.h"
#include "workload/VdbenchStream.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <map>
#include <sstream>
#include <set>
#include <string>
#include <vector>

using namespace padre;
using namespace padre::obs;

//===----------------------------------------------------------------------===//
// TraceRecorder
//===----------------------------------------------------------------------===//

TEST(TraceRecorder, RecordsAndTotalsPerLane) {
  TraceRecorder Trace;
  Trace.record("chunk", CategoryStage, Resource::CpuPool, 0.0, 10.0);
  Trace.record("dedup", CategoryStage, Resource::CpuPool, 10.0, 5.0);
  Trace.record("kernel:hashing", CategoryKernel, Resource::Gpu, 0.0, 3.0);
  EXPECT_EQ(Trace.spanCount(), 3u);
  EXPECT_DOUBLE_EQ(Trace.laneTotalUs(Resource::CpuPool), 15.0);
  EXPECT_DOUBLE_EQ(Trace.laneTotalUs(Resource::CpuPool, CategoryStage),
                   15.0);
  EXPECT_DOUBLE_EQ(Trace.laneTotalUs(Resource::Gpu, CategoryKernel), 3.0);
  EXPECT_DOUBLE_EQ(Trace.laneTotalUs(Resource::Gpu, CategoryStage), 0.0);
  EXPECT_DOUBLE_EQ(Trace.laneTotalUs(Resource::Ssd), 0.0);
}

TEST(TraceRecorder, DropsEmptyAndInvalidDurations) {
  TraceRecorder Trace;
  Trace.record("a", CategoryStage, Resource::CpuPool, 0.0, 0.0);
  Trace.record("b", CategoryStage, Resource::CpuPool, 0.0, -1.0);
  Trace.record("c", CategoryStage, Resource::CpuPool, 0.0, 0.5e-3);
  Trace.record("d", CategoryStage, Resource::CpuPool, 0.0,
               std::nan(""));
  EXPECT_EQ(Trace.spanCount(), 0u);
  // One nanosecond — the ledger's resolution — is kept.
  Trace.record("e", CategoryStage, Resource::CpuPool, 0.0, 1e-3);
  EXPECT_EQ(Trace.spanCount(), 1u);
}

TEST(TraceRecorder, ClearDropsEverything) {
  TraceRecorder Trace;
  Trace.record("a", CategoryStage, Resource::Ssd, 0.0, 7.0);
  Trace.clear();
  EXPECT_EQ(Trace.spanCount(), 0u);
  EXPECT_DOUBLE_EQ(Trace.laneTotalUs(Resource::Ssd), 0.0);
}

TEST(TraceRecorder, SpansSortParentsBeforeChildren) {
  TraceRecorder Trace;
  // Inserted in child-first order; spans() must yield (lane, begin asc,
  // longest-first) so enclosing spans precede what they contain.
  Trace.record("child", CategoryKernel, Resource::Gpu, 0.0, 2.0);
  Trace.record("parent", CategoryStage, Resource::Gpu, 0.0, 10.0);
  Trace.record("early-cpu", CategoryStage, Resource::CpuPool, 5.0, 1.0);
  Trace.record("earlier-cpu", CategoryStage, Resource::CpuPool, 1.0, 1.0);
  const std::vector<TraceSpan> Spans = Trace.spans();
  ASSERT_EQ(Spans.size(), 4u);
  EXPECT_STREQ(Spans[0].Name, "earlier-cpu");
  EXPECT_STREQ(Spans[1].Name, "early-cpu");
  EXPECT_STREQ(Spans[2].Name, "parent");
  EXPECT_STREQ(Spans[3].Name, "child");
}

TEST(TraceRecorder, LaneSpanBracketsLedgerCharges) {
  TraceRecorder Trace;
  ResourceLedger Ledger;
  Ledger.chargeMicros(Resource::Pcie, 100.0); // before: not in the span
  {
    const LaneSpan Span(&Trace, Ledger, Resource::Pcie, "dma:h2d",
                        CategoryDma);
    Ledger.chargeMicros(Resource::Pcie, 40.0);
    Ledger.chargeMicros(Resource::Ssd, 999.0); // other lane: ignored
  }
  const std::vector<TraceSpan> Spans = Trace.spans();
  ASSERT_EQ(Spans.size(), 1u);
  EXPECT_EQ(Spans[0].Lane, Resource::Pcie);
  EXPECT_NEAR(Spans[0].BeginUs, 100.0, 1e-9);
  EXPECT_NEAR(Spans[0].DurUs, 40.0, 1e-9);
}

TEST(TraceRecorder, StageSpanEmitsOnlyLanesThatAccrued) {
  TraceRecorder Trace;
  ResourceLedger Ledger;
  {
    const StageSpan Stage(&Trace, Ledger, "dedup");
    Ledger.chargeMicros(Resource::CpuPool, 12.0);
    Ledger.chargeMicros(Resource::Gpu, 8.0);
  }
  // CPU and GPU accrued; PCIe/SSD/lock stayed flat — no empty spans.
  EXPECT_EQ(Trace.spanCount(), 2u);
  EXPECT_NEAR(Trace.laneTotalUs(Resource::CpuPool, CategoryStage), 12.0,
              1e-9);
  EXPECT_NEAR(Trace.laneTotalUs(Resource::Gpu, CategoryStage), 8.0, 1e-9);
  EXPECT_DOUBLE_EQ(Trace.laneTotalUs(Resource::Pcie), 0.0);
}

TEST(TraceRecorder, NullRecorderIsNoop) {
  ResourceLedger Ledger;
  const LaneSpan Lane(nullptr, Ledger, Resource::Gpu, "x", CategoryKernel);
  const StageSpan Stage(nullptr, Ledger, "y");
  Ledger.chargeMicros(Resource::Gpu, 5.0);
  // Nothing to assert beyond "does not crash / does not record".
  SUCCEED();
}

TEST(TraceRecorder, ThreadSafeUnderParallelFor) {
  TraceRecorder Trace;
  ResourceLedger Ledger;
  ThreadPool Pool(4);
  constexpr std::size_t N = 512;
  Pool.parallelFor(0, N, [&](std::size_t) {
    const LaneSpan Span(&Trace, Ledger, Resource::CpuPool, "work",
                        CategoryStage);
    Ledger.chargeMicros(Resource::CpuPool, 2.0);
  });
  // No span lost under concurrency, and every span covers at least its
  // own charge (concurrent charges on the shared lane clock can only
  // widen a span, never shrink it).
  const std::vector<TraceSpan> Spans = Trace.spans();
  ASSERT_EQ(Spans.size(), N);
  for (const TraceSpan &Span : Spans)
    EXPECT_GE(Span.DurUs, 2.0 - 1e-9);
  EXPECT_GE(Trace.laneTotalUs(Resource::CpuPool), N * 2.0 - 1e-6);
  EXPECT_NEAR(Ledger.busyMicros(Resource::CpuPool), N * 2.0, 1e-6);
}

//===----------------------------------------------------------------------===//
// LogHistogram
//===----------------------------------------------------------------------===//

TEST(LogHistogram, BoundsGrowGeometrically) {
  const LogHistogram Hist(1.0, 2.0, 4);
  const std::vector<double> &Bounds = Hist.bounds();
  ASSERT_EQ(Bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(Bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(Bounds[1], 2.0);
  EXPECT_DOUBLE_EQ(Bounds[2], 4.0);
  EXPECT_DOUBLE_EQ(Bounds[3], 8.0);
}

TEST(LogHistogram, BucketIndexUsesLeSemantics) {
  const LogHistogram Hist(1.0, 2.0, 4);
  // Prometheus `le`: a value exactly on a bound belongs to that bucket.
  EXPECT_EQ(Hist.bucketIndex(0.5), 0u);
  EXPECT_EQ(Hist.bucketIndex(1.0), 0u);
  EXPECT_EQ(Hist.bucketIndex(1.001), 1u);
  EXPECT_EQ(Hist.bucketIndex(2.0), 1u);
  EXPECT_EQ(Hist.bucketIndex(8.0), 3u);
  EXPECT_EQ(Hist.bucketIndex(8.001), 4u); // overflow bucket
}

TEST(LogHistogram, ObserveAccumulatesCountsAndSum) {
  LogHistogram Hist(1.0, 2.0, 4);
  Hist.observe(0.5);
  Hist.observe(3.0);
  Hist.observe(3.5);
  Hist.observe(100.0); // overflow
  EXPECT_EQ(Hist.count(), 4u);
  EXPECT_DOUBLE_EQ(Hist.sum(), 107.0);
  EXPECT_EQ(Hist.bucketCount(0), 1u);
  EXPECT_EQ(Hist.bucketCount(1), 0u);
  EXPECT_EQ(Hist.bucketCount(2), 2u);
  EXPECT_EQ(Hist.bucketCount(3), 0u);
  EXPECT_EQ(Hist.bucketCount(4), 1u);
}

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

TEST(MetricsRegistry, RegistrationIsIdempotent) {
  MetricsRegistry Metrics;
  Counter &A = Metrics.counter("padre_test_total", "help");
  Counter &B = Metrics.counter("padre_test_total");
  EXPECT_EQ(&A, &B);
  A.add(3);
  EXPECT_EQ(B.value(), 3u);
}

TEST(MetricsRegistry, FindRespectsKindAndAbsence) {
  MetricsRegistry Metrics;
  Metrics.counter("padre_a_total");
  Metrics.gauge("padre_b");
  Metrics.histogram("padre_c_us");
  EXPECT_NE(Metrics.findCounter("padre_a_total"), nullptr);
  EXPECT_EQ(Metrics.findCounter("padre_b"), nullptr);  // wrong kind
  EXPECT_EQ(Metrics.findGauge("padre_a_total"), nullptr);
  EXPECT_NE(Metrics.findHistogram("padre_c_us"), nullptr);
  EXPECT_EQ(Metrics.findCounter("padre_missing_total"), nullptr);
}

namespace {

/// True if \p Name is a valid Prometheus metric name.
bool validMetricName(const std::string &Name) {
  if (Name.empty())
    return false;
  for (std::size_t I = 0; I < Name.size(); ++I) {
    const char C = Name[I];
    const bool Ok = std::isalpha(static_cast<unsigned char>(C)) ||
                    C == '_' || C == ':' ||
                    (I > 0 && std::isdigit(static_cast<unsigned char>(C)));
    if (!Ok)
      return false;
  }
  return true;
}

} // namespace

TEST(MetricsRegistry, PrometheusTextFollowsTheGrammar) {
  MetricsRegistry Metrics;
  Metrics.counter("padre_hits_total{tier=\"buffer\"}", "Hits by tier")
      .add(4);
  Metrics.counter("padre_hits_total{tier=\"tree\"}", "Hits by tier")
      .add(2);
  Metrics.gauge("padre_offload_fraction", "Current offload").set(0.25);
  LogHistogram &Hist =
      Metrics.histogram("padre_lat_us", "Latency", 1.0, 2.0, 3);
  Hist.observe(0.5);
  Hist.observe(3.0);
  Hist.observe(50.0);

  const std::string Text = Metrics.prometheusText();
  std::istringstream Stream(Text);
  std::string Line;
  std::map<std::string, unsigned> HelpCount, TypeCount;
  std::map<std::string, std::vector<double>> BucketsBySeries;
  double HistSum = -1.0, HistCount = -1.0, InfBucket = -1.0;
  while (std::getline(Stream, Line)) {
    if (Line.empty())
      continue;
    if (Line.rfind("# HELP ", 0) == 0 || Line.rfind("# TYPE ", 0) == 0) {
      std::istringstream Fields(Line.substr(2));
      std::string Keyword, Base, Rest;
      Fields >> Keyword >> Base >> Rest;
      EXPECT_TRUE(validMetricName(Base)) << Line;
      EXPECT_FALSE(Rest.empty()) << "header missing help/type: " << Line;
      if (Keyword == "HELP")
        ++HelpCount[Base];
      else
        ++TypeCount[Base];
      if (Keyword == "TYPE") {
        EXPECT_TRUE(Rest == "counter" || Rest == "gauge" ||
                    Rest == "histogram")
            << Line;
      }
      continue;
    }
    // Sample line: name[{labels}] SP value
    const std::size_t Space = Line.rfind(' ');
    ASSERT_NE(Space, std::string::npos) << Line;
    const std::string Series = Line.substr(0, Space);
    const std::string ValueText = Line.substr(Space + 1);
    const std::size_t Brace = Series.find('{');
    const std::string Name =
        Brace == std::string::npos ? Series : Series.substr(0, Brace);
    EXPECT_TRUE(validMetricName(Name)) << Line;
    if (Brace != std::string::npos) {
      EXPECT_EQ(Series.back(), '}') << Line;
    }
    double Value = 0.0;
    if (ValueText == "+Inf")
      Value = std::numeric_limits<double>::infinity();
    else
      ASSERT_NO_THROW(Value = std::stod(ValueText)) << Line;
    if (Name == "padre_lat_us_bucket") {
      BucketsBySeries["padre_lat_us"].push_back(Value);
      if (Series.find("le=\"+Inf\"") != std::string::npos)
        InfBucket = Value;
    } else if (Name == "padre_lat_us_sum") {
      HistSum = Value;
    } else if (Name == "padre_lat_us_count") {
      HistCount = Value;
    }
  }

  // One HELP and one TYPE per base name, shared across label series.
  for (const char *Base :
       {"padre_hits_total", "padre_offload_fraction", "padre_lat_us"}) {
    EXPECT_EQ(HelpCount[Base], 1u) << Base;
    EXPECT_EQ(TypeCount[Base], 1u) << Base;
  }
  // Histogram buckets are cumulative and end at +Inf == _count.
  const std::vector<double> &Buckets = BucketsBySeries["padre_lat_us"];
  ASSERT_EQ(Buckets.size(), 4u); // 3 finite bounds + +Inf
  for (std::size_t I = 1; I < Buckets.size(); ++I)
    EXPECT_GE(Buckets[I], Buckets[I - 1]);
  EXPECT_DOUBLE_EQ(InfBucket, 3.0);
  EXPECT_DOUBLE_EQ(HistCount, 3.0);
  EXPECT_DOUBLE_EQ(HistSum, 53.5);
}

//===----------------------------------------------------------------------===//
// Chrome trace_event JSON round-trip
//===----------------------------------------------------------------------===//

namespace {

/// Minimal JSON value + recursive-descent parser: just enough to
/// round-trip the exporter's output through a real grammar check
/// (objects, arrays, strings with escapes, numbers, true/false/null).
struct JsonValue {
  enum Kind { Null, Bool, Number, String, Array, Object } K = Null;
  bool B = false;
  double Num = 0.0;
  std::string Str;
  std::vector<JsonValue> Arr;
  std::map<std::string, JsonValue> Obj;
};

class JsonParser {
public:
  explicit JsonParser(const std::string &Text) : Text(Text) {}

  bool parse(JsonValue &Out) {
    return value(Out) && (skipSpace(), Pos == Text.size());
  }

private:
  void skipSpace() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  bool literal(const char *Word) {
    const std::size_t Len = std::string(Word).size();
    if (Text.compare(Pos, Len, Word) != 0)
      return false;
    Pos += Len;
    return true;
  }

  bool value(JsonValue &Out) {
    skipSpace();
    if (Pos >= Text.size())
      return false;
    const char C = Text[Pos];
    if (C == '{')
      return object(Out);
    if (C == '[')
      return array(Out);
    if (C == '"') {
      Out.K = JsonValue::String;
      return string(Out.Str);
    }
    if (literal("true")) {
      Out.K = JsonValue::Bool;
      Out.B = true;
      return true;
    }
    if (literal("false")) {
      Out.K = JsonValue::Bool;
      Out.B = false;
      return true;
    }
    if (literal("null")) {
      Out.K = JsonValue::Null;
      return true;
    }
    return number(Out);
  }

  bool string(std::string &Out) {
    if (Text[Pos] != '"')
      return false;
    ++Pos;
    while (Pos < Text.size() && Text[Pos] != '"') {
      char C = Text[Pos++];
      if (C == '\\') {
        if (Pos >= Text.size())
          return false;
        const char E = Text[Pos++];
        switch (E) {
        case '"':
        case '\\':
        case '/':
          C = E;
          break;
        case 'n':
          C = '\n';
          break;
        case 't':
          C = '\t';
          break;
        case 'u': {
          if (Pos + 4 > Text.size())
            return false;
          C = static_cast<char>(
              std::stoul(Text.substr(Pos, 4), nullptr, 16));
          Pos += 4;
          break;
        }
        default:
          return false;
        }
      }
      Out.push_back(C);
    }
    if (Pos >= Text.size())
      return false;
    ++Pos; // closing quote
    return true;
  }

  bool number(JsonValue &Out) {
    const std::size_t Start = Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '-' || Text[Pos] == '+' || Text[Pos] == '.' ||
            Text[Pos] == 'e' || Text[Pos] == 'E'))
      ++Pos;
    if (Pos == Start)
      return false;
    Out.K = JsonValue::Number;
    Out.Num = std::stod(Text.substr(Start, Pos - Start));
    return true;
  }

  bool array(JsonValue &Out) {
    Out.K = JsonValue::Array;
    ++Pos; // '['
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == ']') {
      ++Pos;
      return true;
    }
    while (true) {
      JsonValue Element;
      if (!value(Element))
        return false;
      Out.Arr.push_back(std::move(Element));
      skipSpace();
      if (Pos >= Text.size())
        return false;
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      return false;
    }
  }

  bool object(JsonValue &Out) {
    Out.K = JsonValue::Object;
    ++Pos; // '{'
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == '}') {
      ++Pos;
      return true;
    }
    while (true) {
      skipSpace();
      std::string Key;
      if (Pos >= Text.size() || Text[Pos] != '"' || !string(Key))
        return false;
      skipSpace();
      if (Pos >= Text.size() || Text[Pos] != ':')
        return false;
      ++Pos;
      JsonValue Member;
      if (!value(Member))
        return false;
      Out.Obj[Key] = std::move(Member);
      skipSpace();
      if (Pos >= Text.size())
        return false;
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      return false;
    }
  }

  const std::string &Text;
  std::size_t Pos = 0;
};

} // namespace

TEST(ChromeTrace, JsonRoundTripsThroughAParser) {
  TraceRecorder Trace;
  Trace.record("chunk", CategoryStage, Resource::CpuPool, 0.0, 120.5);
  Trace.record("kernel:compression", CategoryKernel, Resource::Gpu, 3.25,
               42.0);
  Trace.record("ssd:seq-write", CategoryIo, Resource::Ssd, 10.0, 77.125);

  const std::string Json = Trace.chromeJson();
  JsonValue Root;
  ASSERT_TRUE(JsonParser(Json).parse(Root)) << Json;
  ASSERT_EQ(Root.K, JsonValue::Object);
  ASSERT_EQ(Root.Obj.count("traceEvents"), 1u);
  const JsonValue &Events = Root.Obj["traceEvents"];
  ASSERT_EQ(Events.K, JsonValue::Array);

  std::size_t MetaThreads = 0;
  std::vector<TraceSpan> Expected = Trace.spans();
  std::size_t NextSpan = 0;
  for (const JsonValue &Event : Events.Arr) {
    ASSERT_EQ(Event.K, JsonValue::Object);
    const std::string &Phase = Event.Obj.at("ph").Str;
    EXPECT_DOUBLE_EQ(Event.Obj.at("pid").Num, 1.0);
    if (Phase == "M") {
      if (Event.Obj.at("name").Str == "thread_name")
        ++MetaThreads;
      continue;
    }
    ASSERT_EQ(Phase, "X");
    ASSERT_LT(NextSpan, Expected.size());
    const TraceSpan &Span = Expected[NextSpan++];
    EXPECT_EQ(Event.Obj.at("name").Str, Span.Name);
    EXPECT_EQ(Event.Obj.at("cat").Str, Span.Category);
    EXPECT_NEAR(Event.Obj.at("tid").Num,
                static_cast<double>(static_cast<unsigned>(Span.Lane)),
                1e-9);
    EXPECT_NEAR(Event.Obj.at("ts").Num, Span.BeginUs, 1e-3);
    EXPECT_NEAR(Event.Obj.at("dur").Num, Span.DurUs, 1e-3);
    EXPECT_EQ(Event.Obj.at("args").Obj.at("lane").Str,
              resourceName(Span.Lane));
  }
  EXPECT_EQ(NextSpan, Expected.size());
  EXPECT_EQ(MetaThreads, static_cast<std::size_t>(ResourceCount));
}

TEST(ChromeTrace, EscapesStringsSafely) {
  TraceRecorder Trace;
  Trace.record("odd\"name\\with\ttabs\n", CategoryStage,
               Resource::CpuPool, 0.0, 1.0);
  const std::string Json = Trace.chromeJson();
  JsonValue Root;
  ASSERT_TRUE(JsonParser(Json).parse(Root));
  bool Found = false;
  for (const JsonValue &Event : Root.Obj["traceEvents"].Arr)
    if (Event.Obj.at("ph").Str == "X") {
      EXPECT_EQ(Event.Obj.at("name").Str, "odd\"name\\with\ttabs\n");
      Found = true;
    }
  EXPECT_TRUE(Found);
}

//===----------------------------------------------------------------------===//
// Pipeline integration: the reconciliation contract
//===----------------------------------------------------------------------===//

namespace {

struct ObsRun {
  PipelineReport Report;
  std::size_t SpanCount = 0;
};

/// Runs a small stream through the pipeline with (or without) the obs
/// sinks attached and returns the report.
ObsRun runPipeline(PipelineMode Mode, TraceRecorder *Trace,
                   MetricsRegistry *Metrics, bool Verify = false) {
  PipelineConfig Config;
  Config.Mode = Mode;
  Config.Dedup.Index.BinBits = 8;
  Config.VerifyDuplicates = Verify;
  Config.Trace = Trace;
  Config.Metrics = Metrics;

  WorkloadConfig Load;
  Load.TotalBytes = 4ull << 20;
  Load.DedupRatio = 2.0;
  Load.CompressRatio = 2.0;
  const ByteVector Data = VdbenchStream(Load).generateAll();

  ReductionPipeline Pipeline(Platform::paper(), Config);
  Pipeline.write(ByteSpan(Data.data(), Data.size()));
  Pipeline.finish();
  ObsRun Run;
  Run.Report = Pipeline.report();
  Run.SpanCount = Trace ? Trace->spanCount() : 0;
  return Run;
}

class ObsPipelineTest : public ::testing::TestWithParam<PipelineMode> {};

} // namespace

TEST_P(ObsPipelineTest, StageSpanTotalsReconcileWithReportBusyTimes) {
  // With verify-on-dedup the write path reads older duplicates through
  // the restore engine; its restore:* stage spans sit beside the
  // verify span, not inside it, so the lanes still add up.
  for (const bool Verify : {false, true}) {
    SCOPED_TRACE(Verify ? "verify-on-dedup" : "plain");
    TraceRecorder Trace;
    const ObsRun Run = runPipeline(GetParam(), &Trace, nullptr, Verify);
    ASSERT_GT(Run.SpanCount, 0u);
    // The contract: stage spans tile each lane, so their totals equal
    // the ledger busy times the report publishes — within a
    // microsecond.
    EXPECT_NEAR(Trace.laneTotalUs(Resource::CpuPool, CategoryStage),
                Run.Report.CpuBusySec * 1e6, 1.0);
    EXPECT_NEAR(Trace.laneTotalUs(Resource::Gpu, CategoryStage),
                Run.Report.GpuBusySec * 1e6, 1.0);
    EXPECT_NEAR(Trace.laneTotalUs(Resource::Pcie, CategoryStage),
                Run.Report.PcieBusySec * 1e6, 1.0);
    EXPECT_NEAR(Trace.laneTotalUs(Resource::Ssd, CategoryStage),
                Run.Report.SsdBusySec * 1e6, 1.0);
    // Detail spans (kernels, DMAs, I/O) nest inside stage spans, so
    // each category total is bounded by its lane's stage total.
    EXPECT_LE(Trace.laneTotalUs(Resource::Gpu, CategoryKernel),
              Trace.laneTotalUs(Resource::Gpu, CategoryStage) + 1.0);
    EXPECT_LE(Trace.laneTotalUs(Resource::Pcie, CategoryDma),
              Trace.laneTotalUs(Resource::Pcie, CategoryStage) + 1.0);
    EXPECT_LE(Trace.laneTotalUs(Resource::Ssd, CategoryIo),
              Trace.laneTotalUs(Resource::Ssd, CategoryStage) + 1.0);
    double FetchSsdUs = 0.0;
    for (const TraceSpan &Span : Trace.spans())
      if (Span.Lane == Resource::Ssd &&
          std::string(Span.Category) == CategoryStage &&
          std::string(Span.Name) == "restore:fetch")
        FetchSsdUs += Span.DurUs;
    EXPECT_EQ(FetchSsdUs > 0.0, Verify);
  }
}

TEST_P(ObsPipelineTest, SpanNamesOutliveThePipeline) {
  // The recorder keeps names by pointer, so every name — the backend
  // spans included — must still be readable once the pipeline that
  // emitted it is gone (ASan flags a dangling one).
  TraceRecorder Trace;
  runPipeline(GetParam(), &Trace, nullptr);
  std::set<std::string> Names;
  for (const TraceSpan &Span : Trace.spans())
    Names.insert(Span.Name);
  EXPECT_EQ(Names.count("backend:gpu"),
            GetParam() == PipelineMode::GpuCompress ? 1u : 0u);
  EXPECT_EQ(Names.count("backend:cpu"),
            GetParam() == PipelineMode::CpuOnly ? 1u : 0u);
  EXPECT_NE(Trace.chromeJson().find("\"backend:"), std::string::npos);
}

TEST_P(ObsPipelineTest, MetricsMatchTheReport) {
  MetricsRegistry Metrics;
  const ObsRun Run = runPipeline(GetParam(), nullptr, &Metrics);
  const PipelineReport &Report = Run.Report;
  EXPECT_EQ(Metrics.findCounter("padre_chunks_total")->value(),
            Report.LogicalChunks);
  EXPECT_EQ(Metrics.findCounter("padre_logical_bytes_total")->value(),
            Report.LogicalBytes);
  EXPECT_EQ(Metrics.findCounter("padre_unique_chunks_total")->value(),
            Report.UniqueChunks);
  EXPECT_EQ(
      Metrics.findCounter("padre_dup_chunks_total{tier=\"buffer\"}")
          ->value(),
      Report.DupFromBuffer);
  EXPECT_EQ(
      Metrics.findCounter("padre_dup_chunks_total{tier=\"tree\"}")
          ->value(),
      Report.DupFromTree);
  EXPECT_EQ(Metrics.findCounter("padre_dup_chunks_total{tier=\"gpu\"}")
                ->value(),
            Report.DupFromGpu);
  EXPECT_EQ(Metrics.findCounter("padre_stored_bytes_total")->value(),
            Report.StoredBytes);
  const LogHistogram *Latency =
      Metrics.findHistogram("padre_chunk_latency_us");
  ASSERT_NE(Latency, nullptr);
  EXPECT_EQ(Latency->count(), Report.LogicalChunks);
  // GPU modes must count kernel launches; CPU-only must not.
  std::uint64_t Launches = 0;
  for (const char *Family : {"indexing", "hashing", "compression"})
    if (const Counter *C = Metrics.findCounter(
            std::string("padre_gpu_kernel_launches_total{family=\"") +
            Family + "\"}"))
      Launches += C->value();
  EXPECT_EQ(Launches, Report.KernelLaunches);
}

TEST_P(ObsPipelineTest, DisabledObservabilityLeavesTheReportUnchanged) {
  TraceRecorder Trace;
  MetricsRegistry Metrics;
  const ObsRun Traced = runPipeline(GetParam(), &Trace, &Metrics);
  const ObsRun Plain = runPipeline(GetParam(), nullptr, nullptr);
  const PipelineReport &A = Traced.Report, &B = Plain.Report;
  EXPECT_EQ(A.LogicalBytes, B.LogicalBytes);
  EXPECT_EQ(A.LogicalChunks, B.LogicalChunks);
  EXPECT_EQ(A.UniqueChunks, B.UniqueChunks);
  EXPECT_EQ(A.DupChunks, B.DupChunks);
  EXPECT_EQ(A.DupFromBuffer, B.DupFromBuffer);
  EXPECT_EQ(A.DupFromTree, B.DupFromTree);
  EXPECT_EQ(A.DupFromGpu, B.DupFromGpu);
  EXPECT_EQ(A.StoredBytes, B.StoredBytes);
  EXPECT_EQ(A.KernelLaunches, B.KernelLaunches);
  EXPECT_EQ(A.SsdNandBytes, B.SsdNandBytes);
  // Modelled time is deterministic: tracing only *reads* the clocks.
  EXPECT_DOUBLE_EQ(A.MakespanSec, B.MakespanSec);
  EXPECT_DOUBLE_EQ(A.CpuBusySec, B.CpuBusySec);
  EXPECT_DOUBLE_EQ(A.GpuBusySec, B.GpuBusySec);
  EXPECT_DOUBLE_EQ(A.PcieBusySec, B.PcieBusySec);
  EXPECT_DOUBLE_EQ(A.SsdBusySec, B.SsdBusySec);
  EXPECT_DOUBLE_EQ(A.ThroughputIops, B.ThroughputIops);
  EXPECT_DOUBLE_EQ(A.LatencyP50Us, B.LatencyP50Us);
  EXPECT_DOUBLE_EQ(A.LatencyP99Us, B.LatencyP99Us);
}

TEST(ObsPipeline, ResetMeasurementClearsWarmupSpans) {
  TraceRecorder Trace;
  PipelineConfig Config;
  Config.Dedup.Index.BinBits = 8;
  Config.Trace = &Trace;
  WorkloadConfig Load;
  Load.TotalBytes = 2ull << 20;
  const ByteVector Data = VdbenchStream(Load).generateAll();
  ReductionPipeline Pipeline(Platform::paper(), Config);
  const std::size_t Half = Data.size() / 2;
  Pipeline.write(ByteSpan(Data.data(), Half));
  ASSERT_GT(Trace.spanCount(), 0u);
  Pipeline.resetMeasurement();
  EXPECT_EQ(Trace.spanCount(), 0u);
  // Post-reset spans start from the rewound lane clocks and still
  // reconcile with the (reset) ledger.
  Pipeline.write(ByteSpan(Data.data() + Half, Data.size() - Half));
  Pipeline.finish();
  const PipelineReport Report = Pipeline.report();
  EXPECT_NEAR(Trace.laneTotalUs(Resource::CpuPool, CategoryStage),
              Report.CpuBusySec * 1e6, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ObsPipelineTest,
    ::testing::Values(PipelineMode::CpuOnly, PipelineMode::GpuCompress),
    [](const ::testing::TestParamInfo<PipelineMode> &Info) {
      return Info.param == PipelineMode::CpuOnly ? "CpuOnly"
                                                 : "GpuCompress";
    });
