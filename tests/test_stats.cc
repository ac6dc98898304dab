/**
 * @file
 * Unit tests for counters, the Wm:n active-thread histogram and the table
 * emitters.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "stats/histogram.h"
#include "stats/table.h"

namespace drs::stats {
namespace {

TEST(Counter, AddAndReset)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(ActiveThreadHistogram, SimdEfficiency)
{
    ActiveThreadHistogram h;
    EXPECT_DOUBLE_EQ(h.simdEfficiency(), 0.0);
    h.recordInstruction(32);
    EXPECT_DOUBLE_EQ(h.simdEfficiency(), 1.0);
    h.recordInstruction(0);
    EXPECT_DOUBLE_EQ(h.simdEfficiency(), 0.5);
    h.recordInstruction(16);
    h.recordInstruction(16);
    EXPECT_DOUBLE_EQ(h.simdEfficiency(), (32 + 0 + 16 + 16) / (4.0 * 32));
}

TEST(ActiveThreadHistogram, BucketBoundaries)
{
    ActiveThreadHistogram h;
    h.recordInstruction(1);  // W1:8
    h.recordInstruction(8);  // W1:8
    h.recordInstruction(9);  // W9:16
    h.recordInstruction(16); // W9:16
    h.recordInstruction(17); // W17:24
    h.recordInstruction(24); // W17:24
    h.recordInstruction(25); // W25:32
    h.recordInstruction(32); // W25:32
    for (int b = 0; b < ActiveThreadHistogram::kNumBuckets; ++b)
        EXPECT_DOUBLE_EQ(h.bucketFraction(b), 2.0 / 8.0) << b;
}

TEST(ActiveThreadHistogram, BulkRecordEqualsRepeatedRecord)
{
    for (const bool spawn : {false, true}) {
        for (const int active : {0, 1, 8, 9, 17, 25, 32}) {
            for (const std::uint64_t n : {0u, 1u, 2u, 37u}) {
                ActiveThreadHistogram bulk;
                ActiveThreadHistogram repeated;
                bulk.recordInstruction(5); // prior tallies add up too
                repeated.recordInstruction(5);
                bulk.recordInstructions(active, spawn, n);
                for (std::uint64_t i = 0; i < n; ++i)
                    repeated.recordInstruction(active, spawn);
                EXPECT_EQ(bulk, repeated) << "active " << active << " spawn "
                                          << spawn << " n " << n;
            }
        }
    }
}

TEST(ActiveThreadHistogram, SpawnCategorySeparate)
{
    ActiveThreadHistogram h;
    h.recordInstruction(32, false);
    h.recordInstruction(32, true);
    h.recordInstruction(32, true);
    EXPECT_EQ(h.instructions(), 3u);
    EXPECT_EQ(h.spawnInstructions(), 2u);
    EXPECT_DOUBLE_EQ(h.spawnFraction(), 2.0 / 3.0);
    // Spawn instructions count toward efficiency but not the Wm:n buckets.
    EXPECT_DOUBLE_EQ(h.bucketFraction(3), 1.0 / 3.0);
    EXPECT_DOUBLE_EQ(h.simdEfficiency(), 1.0);
}

TEST(ActiveThreadHistogram, MergeAccumulates)
{
    ActiveThreadHistogram a, b;
    a.recordInstruction(32);
    b.recordInstruction(8);
    b.recordInstruction(8, true);
    a.merge(b);
    EXPECT_EQ(a.instructions(), 3u);
    EXPECT_EQ(a.spawnInstructions(), 1u);
    EXPECT_EQ(a.activeThreads(), 48u);
    EXPECT_EQ(a.exactCount(8), 2u);
}

TEST(ActiveThreadHistogram, BucketLabels)
{
    EXPECT_EQ(ActiveThreadHistogram::bucketLabel(0), "W1:8");
    EXPECT_EQ(ActiveThreadHistogram::bucketLabel(3), "W25:32");
}

TEST(RunningMean, MeanAndMerge)
{
    RunningMean m;
    EXPECT_DOUBLE_EQ(m.mean(), 0.0);
    m.add(2.0);
    m.add(4.0);
    EXPECT_DOUBLE_EQ(m.mean(), 3.0);
    RunningMean other;
    other.add(12.0);
    m.merge(other);
    EXPECT_DOUBLE_EQ(m.mean(), 6.0);
    EXPECT_EQ(m.count(), 3u);
}

TEST(Table, AlignedPrint)
{
    Table t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer", "2.5"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(Table, CsvOutput)
{
    Table t({"a", "b"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, RowPaddedToHeaderWidth)
{
    Table t({"a", "b", "c"});
    t.addRow({"1"});
    EXPECT_EQ(t.row(0).size(), 3u);
    EXPECT_EQ(t.numCols(), 3u);
    EXPECT_EQ(t.numRows(), 1u);
}

TEST(Formatting, Doubles)
{
    EXPECT_EQ(formatDouble(1.23456, 2), "1.23");
    EXPECT_EQ(formatDouble(1.23456, 0), "1");
    EXPECT_EQ(formatPercent(0.4106), "41.06%");
    EXPECT_EQ(formatPercent(1.0, 0), "100%");
}

} // namespace
} // namespace drs::stats
