/**
 * @file
 * Self-tests of the benchmark harness (perfbench/harness): they run in
 * milliseconds and need none of the workloads.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "harness/harness.hh"

namespace perfbench
{
namespace
{

TEST(Percentile, NearestRankWithSampleCount)
{
    std::vector<double> v;
    for (int i = 10; i >= 1; i--)
        v.push_back(i);
    Percentile p50 = percentile(v, 50);
    EXPECT_EQ(p50.value, 5.0);
    EXPECT_EQ(p50.samples, 10u);
    EXPECT_EQ(percentile(v, 90).value, 9.0);
    EXPECT_EQ(percentile(v, 100).value, 10.0);
    EXPECT_EQ(percentile({7.0}, 90).value, 7.0);
    Percentile none = percentile({}, 50);
    EXPECT_EQ(none.value, 0.0);
    EXPECT_EQ(none.samples, 0u);
}

TEST(Median, EvenAndOddCounts)
{
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(Percentile, OverPerKindMediansIgnoresOneSlowSample)
{
    // Three kinds, three samples each; one sample of "b" ran 10x slow.
    std::map<std::string, std::vector<double>> byKind = {
        {"a", {1.0, 1.1, 0.9}},
        {"b", {2.0, 20.0, 2.1}},
        {"c", {3.0, 3.0, 3.2}},
        {"unused", {}},
    };
    Percentile p50 = percentileOfMedians(byKind, 50);
    EXPECT_EQ(p50.value, 2.1);
    EXPECT_EQ(p50.samples, 9u);
    EXPECT_EQ(percentileOfMedians(byKind, 90).value, 3.0);
    EXPECT_EQ(percentileOfMedians(byKind, 10).value, 1.0);
    // Pooled, the slow sample would be the 90th percentile.
    std::vector<double> pooled;
    for (const auto &[kind, v] : byKind)
        pooled.insert(pooled.end(), v.begin(), v.end());
    EXPECT_EQ(percentile(pooled, 90).value, 20.0);
    EXPECT_EQ(percentileOfMedians({}, 50).samples, 0u);
}

TEST(OpLedger, FailedShareCountsEveryAttempt)
{
    OpLedger l;
    EXPECT_EQ(l.failedShare(), 0.0);
    l.pass();
    l.pass();
    l.pass();
    l.fail("oracle mismatch");
    EXPECT_FALSE(l.check(false, "hit a cap"));
    EXPECT_TRUE(l.check(true, "unused"));
    EXPECT_EQ(l.attempted(), 6u);
    EXPECT_EQ(l.failed(), 2u);
    EXPECT_DOUBLE_EQ(l.failedShare(), 2.0 / 6.0);
    ASSERT_EQ(l.failures().size(), 2u);
    EXPECT_EQ(l.failures()[1], "hit a cap");
}

TEST(SelfTime, NestedSpansSubtractTheUnionOfChildren)
{
    // op [0, 10]: children [1, 4] and [3, 6] overlap (parallel work),
    // [8, 12] runs past the parent's end; grandchild [1, 2] belongs
    // to the first child only.
    std::vector<Span> spans = {
        {"op", 0.0, 10.0, -1, 0},  {"a", 1.0, 4.0, 0, 0},
        {"b", 3.0, 6.0, 0, 0},     {"c", 8.0, 12.0, 0, 0},
        {"a.inner", 1.0, 2.0, 1, 0},
    };
    std::vector<double> self = selfTimes(spans);
    EXPECT_DOUBLE_EQ(self[0], 10.0 - 5.0 - 2.0);
    EXPECT_DOUBLE_EQ(self[1], 2.0);
    EXPECT_DOUBLE_EQ(self[2], 3.0);
    EXPECT_DOUBLE_EQ(self[3], 4.0);
    EXPECT_DOUBLE_EQ(self[4], 1.0);
}

TEST(Tracer, ScopesNestAndDisabledRecordsNothing)
{
    Tracer t(true);
    {
        Tracer::Scope outer(t, "outer", 7);
        EXPECT_EQ(t.current(), 0);
        {
            Tracer::Scope inner(t, "inner", 7);
            EXPECT_EQ(t.current(), 1);
        }
        t.add("job", nowSeconds(), nowSeconds(), t.current(), 7);
    }
    EXPECT_EQ(t.current(), -1);
    std::vector<Span> s = t.spans();
    ASSERT_EQ(s.size(), 3u);
    EXPECT_EQ(s[1].parent, 0);
    EXPECT_EQ(s[2].parent, 0);
    EXPECT_EQ(s[0].op, 7);
    EXPECT_GE(s[0].end, s[1].end);
    std::vector<double> self = selfTimes(s);
    EXPECT_LE(self[0], s[0].end - s[0].start);

    Tracer off(false);
    {
        Tracer::Scope x(off, "x", 0);
        EXPECT_EQ(off.add("y", 0.0, 1.0, -1, 0), -1);
    }
    EXPECT_TRUE(off.spans().empty());
}

TEST(DeterminismLedger, FlagsDriftAcrossRunsOfOneBuild)
{
    std::string path = ::testing::TempDir() + "/perfbench_ledger.json";
    std::remove(path.c_str());
    {
        DeterminismLedger first;
        std::string err;
        ASSERT_TRUE(first.load(path, &err)) << err;
        first.record("tailor/mult", "analysis.paths", 12);
        first.record("tailor/mult", "analysis.paths", 12);
        EXPECT_TRUE(first.drifts().empty());
        ASSERT_TRUE(first.save(path));
    }
    DeterminismLedger second;
    std::string err;
    ASSERT_TRUE(second.load(path, &err)) << err;
    second.record("tailor/mult", "analysis.paths", 13);
    second.record("tailor/div", "analysis.paths", 5);
    EXPECT_EQ(second.checked(), 2u);
    ASSERT_EQ(second.drifts().size(), 1u);
    EXPECT_NE(second.drifts()[0].find("12 -> 13"), std::string::npos);
    std::remove(path.c_str());
}

} // namespace
} // namespace perfbench
