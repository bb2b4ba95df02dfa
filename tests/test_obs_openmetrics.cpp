#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace vodbcast::obs {
namespace {

using testing::HasSubstr;

TEST(OpenMetricsTest, EmptyRegistryIsJustEof) {
  Registry reg;
  EXPECT_EQ(reg.to_openmetrics(), "# EOF\n");
}

TEST(OpenMetricsTest, CounterSanitizesNameAndAppendsTotal) {
  Registry reg;
  reg.counter("sim.clients_served").add(42);
  const std::string out = reg.to_openmetrics();
  EXPECT_THAT(out, HasSubstr("# TYPE sim_clients_served counter\n"));
  EXPECT_THAT(out, HasSubstr("(source metric: sim.clients_served)"));
  EXPECT_THAT(out, HasSubstr("sim_clients_served_total 42\n"));
  EXPECT_THAT(out, testing::EndsWith("# EOF\n"));
}

TEST(OpenMetricsTest, LabeledCounterRendersLabelBlock) {
  Registry reg;
  reg.counter_family("net.loss", {"channel"}).with({"3"}).add(5);
  EXPECT_THAT(reg.to_openmetrics(),
              HasSubstr("net_loss_total{channel=\"3\"} 5\n"));
}

TEST(OpenMetricsTest, LabelValuesAreEscaped) {
  Registry reg;
  reg.counter_family("m", {"k"}).with({"a\"b\\c\nd"}).add(1);
  EXPECT_THAT(reg.to_openmetrics(),
              HasSubstr("m_total{k=\"a\\\"b\\\\c\\nd\"} 1\n"));
}

TEST(OpenMetricsTest, LabeledSketchPutsQuantileAfterFamilyLabels) {
  Registry reg;
  reg.sketch_family("w", {"title"}).with({"7"}).observe(0.5);
  const std::string out = reg.to_openmetrics();
  EXPECT_THAT(out, HasSubstr("w{title=\"7\",quantile=\"0.5\"} 0.5\n"));
  EXPECT_THAT(out, HasSubstr("w{title=\"7\",quantile=\"0.999\"} 0.5\n"));
  EXPECT_THAT(out, HasSubstr("w_count{title=\"7\"} 1\n"));
  EXPECT_THAT(out, testing::Not(HasSubstr("_bucket")));
}

TEST(OpenMetricsTest, SketchRendersAsSummaryWithQuantiles) {
  Registry reg;
  auto& s = reg.sketch("sb.client.wait");
  for (int i = 1; i <= 100; ++i) {
    s.observe(static_cast<double>(i));
  }
  const std::string out = reg.to_openmetrics();
  EXPECT_THAT(out, HasSubstr("# TYPE sb_client_wait summary\n"));
  EXPECT_THAT(out, HasSubstr("sb_client_wait{quantile=\"0.5\"}"));
  EXPECT_THAT(out, HasSubstr("sb_client_wait{quantile=\"0.99\"}"));
  EXPECT_THAT(out, HasSubstr("sb_client_wait{quantile=\"0.999\"}"));
  EXPECT_THAT(out, HasSubstr("sb_client_wait_count 100\n"));
  EXPECT_THAT(out, HasSubstr("sb_client_wait_sum 5050\n"));
}

TEST(OpenMetricsTest, FamilySeriesShareOneTypeHeader) {
  Registry reg;
  auto& family = reg.counter_family("m", {"title"});
  family.with({"1"}).add(1);
  family.with({"2"}).add(1);
  const std::string out = reg.to_openmetrics();
  std::size_t count = 0;
  std::size_t pos = 0;
  while ((pos = out.find("# TYPE m counter", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 1U);
}

TEST(OpenMetricsTest, MergedRegistriesExposeIdentically) {
  // The serial-vs-sharded contract at the exposition level: folding shards
  // in a fixed order must render byte-identical output to one registry that
  // saw all samples.
  Registry whole;
  Registry shard1;
  Registry shard2;
  Registry merged;
  for (int i = 0; i < 100; ++i) {
    // Integer-valued samples keep the sums exact, so the comparison is not
    // at the mercy of float addition order across the two groupings.
    const double v = static_cast<double>(i + 1);
    const std::string title = std::to_string(i % 3);
    whole.sketch_family("w", {"title"}).with({title}).observe(v);
    whole.counter_family("c", {"title"}).with({title}).add(1);
    auto& shard = (i % 2 == 0) ? shard1 : shard2;
    shard.sketch_family("w", {"title"}).with({title}).observe(v);
    shard.counter_family("c", {"title"}).with({title}).add(1);
  }
  merged.merge_from(shard1);
  merged.merge_from(shard2);
  EXPECT_EQ(merged.to_openmetrics(), whole.to_openmetrics());
}

}  // namespace
}  // namespace vodbcast::obs
