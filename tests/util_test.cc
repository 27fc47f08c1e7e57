#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <thread>

#include "util/binary_io.h"
#include "util/csv.h"
#include "util/latency_histogram.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/status.h"

namespace causaltad {
namespace util {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad thing");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(7), b(8);
  int differing = 0;
  for (int i = 0; i < 10; ++i) differing += (a.NextU64() != b.NextU64());
  EXPECT_GT(differing, 5);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntInRangeAndCoversAll) {
  Rng rng(5);
  std::vector<int> hits(10, 0);
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = rng.UniformInt(10);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 10);
    hits[v]++;
  }
  for (int h : hits) EXPECT_GT(h, 300);  // ~500 expected each
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(13);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> hits(3, 0);
  for (int i = 0; i < 8000; ++i) hits[rng.Categorical(w)]++;
  EXPECT_EQ(hits[1], 0);
  EXPECT_NEAR(static_cast<double>(hits[2]) / hits[0], 3.0, 0.4);
}

TEST(RngTest, PermutationIsAPermutation) {
  Rng rng(17);
  auto p = rng.Permutation(50);
  std::vector<bool> seen(50, false);
  for (int64_t v : p) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 50);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(21);
  Rng child = a.Fork();
  // The child stream should not replay the parent stream.
  Rng b(21);
  b.Fork();
  EXPECT_EQ(a.NextU64(), b.NextU64());  // parent streams stay in sync
  int differing = 0;
  for (int i = 0; i < 10; ++i) differing += (child.NextU64() != a.NextU64());
  EXPECT_GT(differing, 5);
}

TEST(CsvTest, SplitPlain) {
  auto cells = SplitCsvLine("a,b,c");
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0], "a");
  EXPECT_EQ(cells[2], "c");
}

TEST(CsvTest, SplitQuotedWithCommaAndQuote) {
  auto cells = SplitCsvLine(R"(x,"a,b","he said ""hi""")");
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[1], "a,b");
  EXPECT_EQ(cells[2], "he said \"hi\"");
}

TEST(CsvTest, EscapeRoundTrip) {
  const std::string nasty = "a,\"b\" c";
  auto cells = SplitCsvLine(EscapeCsvCell(nasty));
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0], nasty);
}

TEST(CsvTest, WriteReadRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "causaltad_csv_test.csv")
          .string();
  CsvTable table;
  table.header = {"id", "name"};
  table.rows = {{"1", "alpha,beta"}, {"2", "plain"}};
  ASSERT_TRUE(WriteCsv(path, table).ok());
  auto loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->header, table.header);
  EXPECT_EQ(loaded->rows, table.rows);
  EXPECT_EQ(loaded->ColumnIndex("name"), 1);
  EXPECT_EQ(loaded->ColumnIndex("missing"), -1);
  std::remove(path.c_str());
}

TEST(CsvTest, ReadMissingFileFails) {
  EXPECT_FALSE(ReadCsv("/nonexistent/dir/nope.csv").ok());
}

TEST(BinaryIoTest, RoundTripAllTypes) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "causaltad_bin_test.bin")
          .string();
  {
    BinaryWriter w(path, 0xABCD1234u, 3);
    w.WriteU32(7);
    w.WriteI64(-42);
    w.WriteF64(3.5);
    w.WriteString("hello");
    w.WriteFloats({1.0f, 2.0f, 3.0f});
    w.WriteInts({9, -9});
    ASSERT_TRUE(w.Close().ok());
  }
  BinaryReader r(path, 0xABCD1234u, 3);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ReadU32(), 7u);
  EXPECT_EQ(r.ReadI64(), -42);
  EXPECT_EQ(r.ReadF64(), 3.5);
  EXPECT_EQ(r.ReadString(), "hello");
  EXPECT_EQ(r.ReadFloats(), (std::vector<float>{1.0f, 2.0f, 3.0f}));
  EXPECT_EQ(r.ReadInts(), (std::vector<int32_t>{9, -9}));
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RejectsBadMagicAndVersion) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "causaltad_bin_test2.bin")
          .string();
  {
    BinaryWriter w(path, 0x11111111u, 1);
    ASSERT_TRUE(w.Close().ok());
  }
  EXPECT_FALSE(BinaryReader(path, 0x22222222u, 1).ok());
  EXPECT_FALSE(BinaryReader(path, 0x11111111u, 2).ok());
  EXPECT_TRUE(BinaryReader(path, 0x11111111u, 1).ok());
  std::remove(path.c_str());
}

TEST(BufferIoTest, RoundTripAllTypes) {
  std::vector<uint8_t> bytes;
  BufferWriter w(&bytes);
  w.WriteU8(0xab);
  w.WriteU32(7);
  w.WriteU64(1ull << 40);
  w.WriteI32(-42);
  w.WriteF64(3.5);
  w.WriteString("hello");
  w.WriteF64s({1.5, -2.5});

  BufferReader r(bytes.data(), bytes.size());
  EXPECT_EQ(r.ReadU8(), 0xab);
  EXPECT_EQ(r.ReadU32(), 7u);
  EXPECT_EQ(r.ReadU64(), 1ull << 40);
  EXPECT_EQ(r.ReadI32(), -42);
  EXPECT_EQ(r.ReadF64(), 3.5);
  EXPECT_EQ(r.ReadString(), "hello");
  EXPECT_EQ(r.ReadF64s(), (std::vector<double>{1.5, -2.5}));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BufferIoTest, NeverReadsPastTheEnd) {
  std::vector<uint8_t> bytes;
  BufferWriter w(&bytes);
  w.WriteU32(5);  // looks like a 5-byte string length...
  w.WriteU8('x');  // ...but only one byte follows

  BufferReader r(bytes.data(), bytes.size());
  EXPECT_EQ(r.ReadString(), "");
  EXPECT_FALSE(r.ok());
  // Every later read on a failed reader returns a zero value.
  EXPECT_EQ(r.ReadU64(), 0u);
  EXPECT_TRUE(r.ReadF64s().empty());

  // A container length that would overflow the remaining bytes fails too.
  BufferReader r2(bytes.data(), bytes.size());
  EXPECT_TRUE(r2.ReadF64s().empty());
  EXPECT_FALSE(r2.ok());
}

TEST(ParallelPoolTest, GrowsAfterSetParallelThreads) {
  // Regression: Pool::Instance() used to freeze its worker count at the
  // knob in force on the FIRST ParallelFor — raising the knob afterwards
  // was silently ignored. Force a first use under a low knob, raise it,
  // then require 4 shards to run concurrently (each blocks until all four
  // have entered; a frozen pool can only field two, so every waiter times
  // out instead of hanging).
  SetParallelThreads(2);
  ParallelFor(4, 0, [](int64_t, int64_t) {});
  SetParallelThreads(4);

  std::mutex mu;
  std::condition_variable cv;
  int entered = 0;
  int concurrent_ok = 0;
  ParallelFor(4, 0, [&](int64_t, int64_t) {
    std::unique_lock<std::mutex> lock(mu);
    ++entered;
    cv.notify_all();
    if (cv.wait_for(lock, std::chrono::seconds(5),
                    [&] { return entered >= 4; })) {
      ++concurrent_ok;
    }
  });
  EXPECT_EQ(concurrent_ok, 4);
  SetParallelThreads(0);
}

TEST(ParallelPoolTest, NestedCallFromCallerShardRunsInline) {
  // Regression: the shard holding index 0 runs on the calling thread, which
  // was not marked as a worker, so a nested ParallelFor from it fanned out
  // to the pool that was busy with the outer call's other shards.
  SetParallelThreads(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> nested_calls{0};
  std::atomic<int> off_caller{0};
  ParallelFor(4, 4, [&](int64_t begin, int64_t) {
    if (begin != 0) return;
    ParallelFor(64, 4, [&](int64_t, int64_t) {
      ++nested_calls;
      if (std::this_thread::get_id() != caller) ++off_caller;
    });
  });
  SetParallelThreads(0);
  EXPECT_EQ(nested_calls.load(), 1);
  EXPECT_EQ(off_caller.load(), 0);
}

TEST(LatencyHistogramTest, PercentilesWithinBucketResolution) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.TotalCount(), 0);
  EXPECT_EQ(hist.Percentile(50.0), 0.0);

  for (int i = 0; i < 99; ++i) hist.Add(1.0);
  hist.Add(100.0);
  EXPECT_EQ(hist.TotalCount(), 100);
  // Quarter-octave buckets: the reported value is the geometric midpoint
  // of the sample's bucket, within ~19% of the true value.
  EXPECT_NEAR(hist.Percentile(50.0), 1.0, 0.25);
  EXPECT_NEAR(hist.Percentile(99.0), 1.0, 0.25);
  EXPECT_NEAR(hist.Percentile(100.0), 100.0, 25.0);
  EXPECT_LE(hist.Percentile(50.0), hist.Percentile(95.0));
  EXPECT_LE(hist.Percentile(95.0), hist.Percentile(100.0));

  // The mean is exact (µs resolution), not bucket-quantized.
  EXPECT_NEAR(hist.MeanMs(), (99.0 * 1.0 + 100.0) / 100.0, 1e-9);

  hist.Reset();
  EXPECT_EQ(hist.TotalCount(), 0);
  EXPECT_EQ(hist.MeanMs(), 0.0);

  // Out-of-range samples clamp to the end buckets instead of indexing out.
  hist.Add(-3.0);
  hist.Add(1e12);
  EXPECT_EQ(hist.TotalCount(), 2);
  EXPECT_GT(hist.Percentile(100.0), hist.Percentile(0.0));
}

TEST(LatencyHistogramTest, WindowedSnapshotSeesOnlyNewSamples) {
  LatencyHistogram hist;
  for (int i = 0; i < 50; ++i) hist.Add(100.0);

  const LatencyHistogram::Snapshot base = hist.TakeSnapshot();
  EXPECT_EQ(hist.CountSince(base), 0);
  EXPECT_EQ(hist.PercentileSince(base, 50.0), 0.0);

  for (int i = 0; i < 20; ++i) hist.Add(1.0);
  EXPECT_EQ(hist.CountSince(base), 20);
  // The window holds only the 1ms samples; the 100ms pre-baseline bulk must
  // not drag the windowed median up.
  EXPECT_NEAR(hist.PercentileSince(base, 50.0), 1.0, 0.25);
  EXPECT_NEAR(hist.Percentile(50.0), 100.0, 25.0);
}

TEST(LatencyHistogramTest, MergedPercentileSinceEmptyWindow) {
  LatencyHistogram a;
  LatencyHistogram b;
  // Pre-baseline samples are invisible to the merged window.
  for (int i = 0; i < 10; ++i) a.Add(5.0);
  const LatencyHistogram* hists[] = {&a, &b};
  const LatencyHistogram::Snapshot bases[] = {a.TakeSnapshot(),
                                              b.TakeSnapshot()};
  EXPECT_EQ(LatencyHistogram::MergedPercentileSince(hists, bases, 2, 50.0),
            0.0);
  EXPECT_EQ(LatencyHistogram::MergedPercentileSince(hists, bases, 0, 50.0),
            0.0);
}

TEST(LatencyHistogramTest, MergedPercentileSinceSingleSample) {
  LatencyHistogram a;
  LatencyHistogram b;
  const LatencyHistogram* hists[] = {&a, &b};
  const LatencyHistogram::Snapshot bases[] = {a.TakeSnapshot(),
                                              b.TakeSnapshot()};
  b.Add(8.0);
  EXPECT_NEAR(LatencyHistogram::MergedPercentileSince(hists, bases, 2, 50.0),
              8.0, 2.0);
  EXPECT_NEAR(LatencyHistogram::MergedPercentileSince(hists, bases, 2, 100.0),
              8.0, 2.0);
}

TEST(LatencyHistogramTest, MergedPercentileSinceUnionsShardWindows) {
  // Two shards with disjoint latency populations: the merged windowed
  // median sits between them, and the tail comes from the slow shard.
  LatencyHistogram fast;
  LatencyHistogram slow;
  for (int i = 0; i < 1000; ++i) fast.Add(1000.0);  // pre-window noise
  const LatencyHistogram* hists[] = {&fast, &slow};
  const LatencyHistogram::Snapshot bases[] = {fast.TakeSnapshot(),
                                              slow.TakeSnapshot()};
  for (int i = 0; i < 100; ++i) fast.Add(1.0);
  for (int i = 0; i < 100; ++i) slow.Add(64.0);
  EXPECT_NEAR(LatencyHistogram::MergedPercentileSince(hists, bases, 2, 25.0),
              1.0, 0.25);
  EXPECT_NEAR(LatencyHistogram::MergedPercentileSince(hists, bases, 2, 99.0),
              64.0, 16.0);
  // Matches merging done by hand: the union percentile equals the percentile
  // of one histogram holding both windows.
  LatencyHistogram manual;
  for (int i = 0; i < 100; ++i) manual.Add(1.0);
  for (int i = 0; i < 100; ++i) manual.Add(64.0);
  EXPECT_EQ(LatencyHistogram::MergedPercentileSince(hists, bases, 2, 75.0),
            manual.Percentile(75.0));
}

TEST(LatencyHistogramTest, MergedPercentileSinceConcurrentRecordsDeterministic) {
  // Writers hammer both histograms while the merged window is computed; the
  // final (quiesced) answer must be exact regardless of interleaving, and
  // mid-flight reads must stay within the recorded value range.
  LatencyHistogram shard0;
  LatencyHistogram shard1;
  const LatencyHistogram* hists[] = {&shard0, &shard1};
  const LatencyHistogram::Snapshot bases[] = {shard0.TakeSnapshot(),
                                              shard1.TakeSnapshot()};
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const double p =
          LatencyHistogram::MergedPercentileSince(hists, bases, 2, 95.0);
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 4.0 * 1.25);
    }
  });
  std::thread w0([&] {
    for (int i = 0; i < 5000; ++i) shard0.Add(2.0);
  });
  std::thread w1([&] {
    for (int i = 0; i < 5000; ++i) shard1.Add(4.0);
  });
  w0.join();
  w1.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(shard0.CountSince(bases[0]), 5000);
  EXPECT_EQ(shard1.CountSince(bases[1]), 5000);
  EXPECT_NEAR(LatencyHistogram::MergedPercentileSince(hists, bases, 2, 25.0),
              2.0, 0.5);
  EXPECT_NEAR(LatencyHistogram::MergedPercentileSince(hists, bases, 2, 95.0),
              4.0, 1.0);
}

}  // namespace
}  // namespace util
}  // namespace causaltad
