// Unit tests for the resource governor (DESIGN.md §11): byte accounting,
// the degradation ladder, fault-injection spec parsing, and the RunControl
// stop predicate that folds deadline, cancellation, and memory exhaustion
// into one interrupt callback.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/resource_governor.h"

namespace fastqre {
namespace {

// ---- Accounting -------------------------------------------------------------

TEST(ResourceGovernorTest, UnlimitedBudgetTracksAndPeaks) {
  ResourceGovernor gov(0);
  EXPECT_TRUE(gov.TryCharge(1000, "walk-cache-build"));
  gov.Charge(500, "index-build");
  EXPECT_EQ(gov.tracked_bytes(), 1500u);
  EXPECT_EQ(gov.peak_tracked_bytes(), 1500u);
  gov.Release(1000);
  EXPECT_EQ(gov.tracked_bytes(), 500u);
  EXPECT_EQ(gov.peak_tracked_bytes(), 1500u);  // peak is monotone
  EXPECT_EQ(gov.degradation_level(), 0);
  EXPECT_EQ(gov.degradation_events(), 0u);
  EXPECT_FALSE(gov.memory_exhausted());
  EXPECT_TRUE(gov.materialization_allowed());
}

TEST(ResourceGovernorTest, TryChargeWithinBudgetSucceeds) {
  ResourceGovernor gov(4096);
  EXPECT_TRUE(gov.TryCharge(4096, "walk-cache-build"));
  EXPECT_EQ(gov.tracked_bytes(), 4096u);
  EXPECT_EQ(gov.degradation_level(), 0);
}

TEST(ResourceGovernorTest, TryChargeOverBudgetRefusesAndDegrades) {
  ResourceGovernor gov(4096);
  EXPECT_TRUE(gov.TryCharge(4000, "walk-cache-build"));
  // No pressure hook can free anything, so the optional charge is refused
  // and the ladder climbs to pipelined-only — never to exhaustion.
  EXPECT_FALSE(gov.TryCharge(4000, "walk-cache-build"));
  EXPECT_EQ(gov.tracked_bytes(), 4000u);  // failed charge left nothing behind
  EXPECT_EQ(gov.degradation_level(), 2);
  EXPECT_FALSE(gov.materialization_allowed());
  EXPECT_FALSE(gov.memory_exhausted());
  EXPECT_EQ(gov.degradation_events(), 2u);  // rungs 0->1 and 1->2
  // Once materialization is degraded away, every optional charge refuses
  // up front.
  EXPECT_FALSE(gov.TryCharge(1, "walk-cache-build"));
}

TEST(ResourceGovernorTest, PressureHookThatFreesEnoughStopsTheClimb) {
  ResourceGovernor gov(4096);
  EXPECT_TRUE(gov.TryCharge(4000, "walk-cache-build"));
  // Simulates the walk cache's shrink: evict previously charged bytes.
  gov.SetPressureHook([&gov] { gov.Release(3000); });
  EXPECT_TRUE(gov.TryCharge(2000, "walk-cache-build"));
  EXPECT_EQ(gov.degradation_level(), 1);  // shrink sufficed
  EXPECT_TRUE(gov.materialization_allowed());
  EXPECT_EQ(gov.tracked_bytes(), 3000u);
  EXPECT_EQ(gov.degradation_events(), 1u);
}

TEST(ResourceGovernorTest, RequiredChargeOverBudgetExhausts) {
  ResourceGovernor gov(1024);
  gov.Charge(4096, "index-build");  // required charges never fail...
  EXPECT_EQ(gov.tracked_bytes(), 4096u);
  EXPECT_TRUE(gov.memory_exhausted());  // ...they escalate instead
  EXPECT_EQ(gov.degradation_level(), 3);
  EXPECT_GE(gov.degradation_events(), 3u);
}

TEST(ResourceGovernorTest, ConcurrentChargeReleaseBalancesToZero) {
  ResourceGovernor gov(0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&gov] {
      for (int i = 0; i < 10000; ++i) {
        gov.Charge(64, "mapping-frontier");
        gov.Release(64);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(gov.tracked_bytes(), 0u);
  EXPECT_GE(gov.peak_tracked_bytes(), 64u);
  EXPECT_EQ(gov.degradation_level(), 0);
}

// ---- Fault-injection spec parsing ------------------------------------------

TEST(FaultInjectorTest, ParsesMultiRuleSpec) {
  auto r = FaultInjector::Parse(
      "index-build=alloc-fail,parallel-worker=delay@3,answer-found=cancel@2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->num_rules(), 3u);
  for (std::string_view site : kFaultSites) {
    const std::string spec = std::string(site) + "=cancel";
    EXPECT_TRUE(FaultInjector::Parse(spec).ok()) << spec;
  }
}

TEST(FaultInjectorTest, RejectsMalformedSpecs) {
  for (const char* spec :
       {"nonsense", "index-build=", "index-build=explode", "=cancel",
        "index-build=cancel@0", "index-build=cancel@", "index-build=cancel@x",
        "site=cancel", "subplan-build=cancel", "Index-build=cancel"}) {
    auto r = FaultInjector::Parse(spec);
    EXPECT_FALSE(r.ok()) << "spec should have been rejected: " << spec;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << spec;
  }
}

TEST(FaultInjectorTest, AllocFailFiresFromNthHitOnward) {
  auto injector =
      std::move(FaultInjector::Parse("index-build=alloc-fail@3")).ValueOrDie();
  EXPECT_FALSE(injector->Hit("index-build").alloc_fail);
  // Other sites are unaffected.
  EXPECT_FALSE(injector->Hit("filter-build").alloc_fail);
  EXPECT_FALSE(injector->Hit("index-build").alloc_fail);
  EXPECT_TRUE(injector->Hit("index-build").alloc_fail);  // third hit
  EXPECT_TRUE(injector->Hit("index-build").alloc_fail);  // ...and after
}

TEST(ResourceGovernorTest, InjectedAllocFailRefusesOptionalCharge) {
  auto injector =
      std::move(FaultInjector::Parse("walk-cache-build=alloc-fail")).ValueOrDie();
  ResourceGovernor gov(0, nullptr, std::move(injector));
  EXPECT_FALSE(gov.TryCharge(100, "walk-cache-build"));
  EXPECT_EQ(gov.tracked_bytes(), 0u);
  // An injected *optional* failure degrades nothing: the caller just skips
  // the materialization.
  EXPECT_EQ(gov.degradation_level(), 0);
  // Other sites keep working.
  EXPECT_TRUE(gov.TryCharge(100, "block-buffer"));
}

TEST(ResourceGovernorTest, InjectedAllocFailOnRequiredChargeExhausts) {
  auto injector =
      std::move(FaultInjector::Parse("index-build=alloc-fail")).ValueOrDie();
  ResourceGovernor gov(0, nullptr, std::move(injector));
  gov.Charge(100, "index-build");
  EXPECT_TRUE(gov.memory_exhausted());
  EXPECT_EQ(gov.tracked_bytes(), 0u);  // the failed allocation is not tracked
}

TEST(ResourceGovernorTest, InjectedCancelFiresTheToken) {
  auto token = std::make_shared<CancellationToken>();
  auto injector =
      std::move(FaultInjector::Parse("cgm-discovery=cancel@2")).ValueOrDie();
  ResourceGovernor gov(0, token, std::move(injector));
  gov.FaultPoint("cgm-discovery");
  EXPECT_FALSE(gov.cancelled());
  gov.FaultPoint("cgm-discovery");
  EXPECT_TRUE(gov.cancelled());
  EXPECT_TRUE(token->cancelled());
}

// ---- RunControl -------------------------------------------------------------

TEST(RunControlTest, NoStopSourcesMeansNoStop) {
  RunControl run(0.0, nullptr, nullptr);
  EXPECT_FALSE(run.ShouldStop());
  EXPECT_EQ(run.cause(), StopCause::kNone);
  EXPECT_STREQ(run.reason(), "");
}

TEST(RunControlTest, ExpiredDeadlineRecordsTheLoadBearingString) {
  RunControl run(1e-12, nullptr, nullptr);
  EXPECT_TRUE(run.ShouldStop());
  EXPECT_EQ(run.cause(), StopCause::kDeadline);
  EXPECT_STREQ(run.reason(), "time budget exceeded");
}

TEST(RunControlTest, CancellationWinsOverLaterDeadline) {
  CancellationToken token;
  token.Cancel();
  RunControl run(1e-12, &token, nullptr);
  EXPECT_TRUE(run.ShouldStop());
  // The token is polled before the deadline, and the first recorded cause
  // is sticky.
  EXPECT_EQ(run.cause(), StopCause::kCancelled);
  EXPECT_STREQ(run.reason(), "cancelled");
  EXPECT_TRUE(run.ShouldStop());
  EXPECT_EQ(run.cause(), StopCause::kCancelled);
}

TEST(RunControlTest, MemoryExhaustionStops) {
  ResourceGovernor gov(16);
  RunControl run(0.0, nullptr, &gov);
  EXPECT_FALSE(run.ShouldStop());
  gov.Charge(1024, "index-build");
  EXPECT_TRUE(run.ShouldStop());
  EXPECT_EQ(run.cause(), StopCause::kMemory);
  EXPECT_STREQ(run.reason(), "memory budget exceeded");
}

TEST(RunControlTest, ConcurrentPollersAgreeOnOneCause) {
  CancellationToken token;
  ResourceGovernor gov(16);
  RunControl run(1e-12, &token, &gov);
  token.Cancel();
  gov.Charge(1024, "index-build");
  std::vector<std::thread> threads;
  std::atomic<int> stops{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      if (run.ShouldStop()) ++stops;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(stops.load(), 8);
  // All sources had fired; whichever poll won, exactly one cause stuck.
  EXPECT_NE(run.cause(), StopCause::kNone);
  EXPECT_STRNE(run.reason(), "");
}

}  // namespace
}  // namespace fastqre
