// Direct tests of the Fleet two-phase claim protocol (fleet.h): TryClaim /
// CommitClaim / ReleaseClaim. The platform suites exercise the happy path
// end to end; this file pins down the rollback semantics — claim-then-lose,
// double-release — the FailedPrecondition statuses that replaced the old
// protocol-misuse aborts (a fault can legitimately make a claim vanish), and
// the offline/online lifecycle fault injection drives (docs/ROBUSTNESS.md).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/sim/fleet.h"

namespace watter {
namespace {

// A 4-node path graph with one worker per node.
class ClaimFixture {
 public:
  ClaimFixture() {
    g_.AddNode({0, 0});
    g_.AddNode({1, 0});
    g_.AddNode({2, 0});
    g_.AddNode({3, 0});
    g_.AddBidirectionalEdge(0, 1, 5.0);
    g_.AddBidirectionalEdge(1, 2, 5.0);
    g_.AddBidirectionalEdge(2, 3, 5.0);
    EXPECT_TRUE(g_.Finalize().ok());
    std::vector<Worker> workers = {{1, 0, 4, false, 0.0},
                                   {2, 1, 4, false, 0.0},
                                   {3, 2, 4, false, 0.0},
                                   {4, 3, 4, false, 0.0}};
    fleet_ = std::make_unique<Fleet>(workers, &g_, 4);
  }

  Fleet& fleet() { return *fleet_; }

 private:
  Graph g_;
  std::unique_ptr<Fleet> fleet_;
};

TEST(FleetClaimTest, ClaimExcludesFromIdleSetUntilReleased) {
  ClaimFixture fx;
  ASSERT_TRUE(fx.fleet().TryClaim(2));
  EXPECT_EQ(fx.fleet().claimed_count(), 1);
  EXPECT_EQ(fx.fleet().idle_count(), 3);
  EXPECT_TRUE(fx.fleet().worker(2).busy);
  EXPECT_EQ(fx.fleet().IdleWorkerIds(), (std::vector<WorkerId>{1, 3, 4}));
  // A claimed worker is not claimable again (worker contention).
  EXPECT_FALSE(fx.fleet().TryClaim(2));
  fx.fleet().ReleaseClaim(2);
  EXPECT_EQ(fx.fleet().claimed_count(), 0);
  EXPECT_FALSE(fx.fleet().worker(2).busy);
  EXPECT_EQ(fx.fleet().IdleWorkerIds(), (std::vector<WorkerId>{1, 2, 3, 4}));
}

TEST(FleetClaimTest, ClaimThenLoseReconciliationRollsBackCleanly) {
  // A claim rolled back before commit leaves the worker claimable: a
  // second claimant takes the same worker and finalizes it.
  ClaimFixture fx;
  ASSERT_TRUE(fx.fleet().TryClaim(1));
  fx.fleet().ReleaseClaim(1);
  ASSERT_TRUE(fx.fleet().TryClaim(1));
  fx.fleet().CommitClaim(1, 50.0, 3);
  EXPECT_EQ(fx.fleet().claimed_count(), 0);
  EXPECT_TRUE(fx.fleet().worker(1).busy);
  // A committed worker is not claimable until its route completes.
  EXPECT_FALSE(fx.fleet().TryClaim(1));
  fx.fleet().ReleaseUntil(50.0);
  EXPECT_FALSE(fx.fleet().worker(1).busy);
  EXPECT_EQ(fx.fleet().worker(1).location, 3);
  EXPECT_TRUE(fx.fleet().TryClaim(1));
}

TEST(FleetClaimTest, ReleasedClaimIsImmediatelyReclaimable) {
  // Release must restore the worker at its current location, not the
  // route target.
  ClaimFixture fx;
  ASSERT_TRUE(fx.fleet().TryClaim(3));
  fx.fleet().ReleaseClaim(3);
  EXPECT_EQ(fx.fleet().worker(3).location, 2);
  ASSERT_TRUE(fx.fleet().TryClaim(3));
  fx.fleet().CommitClaim(3, 25.0, 0);
  EXPECT_EQ(fx.fleet().worker(3).location, 0);
}

// Claim-protocol misuse used to abort the process; with fault injection a
// claim can legitimately vanish (TakeOffline discards it between resolution
// and commit), so these paths now report FailedPrecondition and the caller
// treats the offer as lost (docs/ROBUSTNESS.md).
TEST(FleetClaimTest, DoubleReleaseReportsFailedPrecondition) {
  ClaimFixture fx;
  ASSERT_TRUE(fx.fleet().TryClaim(1));
  EXPECT_TRUE(fx.fleet().ReleaseClaim(1).ok());
  Status status = fx.fleet().ReleaseClaim(1);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  // The failed release changed nothing: the worker is still claimable.
  EXPECT_TRUE(fx.fleet().TryClaim(1));
}

TEST(FleetClaimTest, CommitWithoutClaimReportsFailedPrecondition) {
  ClaimFixture fx;
  Status status = fx.fleet().CommitClaim(2, 10.0, 0);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(fx.fleet().worker(2).busy);
}

TEST(FleetClaimTest, CommitAfterReleaseReportsFailedPrecondition) {
  // ReleaseClaim must fully forget the claim: finalizing it afterwards is
  // the commit-of-unclaimed protocol violation.
  ClaimFixture fx;
  ASSERT_TRUE(fx.fleet().TryClaim(2));
  EXPECT_TRUE(fx.fleet().ReleaseClaim(2).ok());
  EXPECT_EQ(fx.fleet().CommitClaim(2, 10.0, 0).code(),
            StatusCode::kFailedPrecondition);
}

TEST(FleetClaimTest, TakeOfflineIdleWorkerLeavesIdleSet) {
  ClaimFixture fx;
  EXPECT_EQ(fx.fleet().TakeOffline(2), WorkerTake::kIdle);
  EXPECT_EQ(fx.fleet().offline_count(), 1);
  EXPECT_EQ(fx.fleet().idle_count(), 3);
  EXPECT_TRUE(fx.fleet().worker(2).offline);
  // Offline workers are not claimable and a second takedown is a no-op.
  EXPECT_FALSE(fx.fleet().TryClaim(2));
  EXPECT_EQ(fx.fleet().TakeOffline(2), WorkerTake::kOffline);
  EXPECT_EQ(fx.fleet().offline_count(), 1);
  // BringOnline restores the worker, idle at its recorded location.
  EXPECT_TRUE(fx.fleet().BringOnline(2, 30.0).ok());
  EXPECT_EQ(fx.fleet().offline_count(), 0);
  EXPECT_EQ(fx.fleet().worker(2).location, 1);
  EXPECT_EQ(fx.fleet().IdleWorkerIds(), (std::vector<WorkerId>{1, 2, 3, 4}));
  EXPECT_TRUE(fx.fleet().TryClaim(2));
}

TEST(FleetClaimTest, TakeOfflineClaimedWorkerDiscardsTheClaim) {
  // The late-dropout path: resolution staged a claim, the fault discards
  // it, and the holder's CommitClaim surfaces FailedPrecondition.
  ClaimFixture fx;
  ASSERT_TRUE(fx.fleet().TryClaim(3));
  EXPECT_EQ(fx.fleet().TakeOffline(3), WorkerTake::kClaimed);
  EXPECT_EQ(fx.fleet().claimed_count(), 0);
  EXPECT_EQ(fx.fleet().CommitClaim(3, 10.0, 0).code(),
            StatusCode::kFailedPrecondition);
}

TEST(FleetClaimTest, TakeOfflineBusyWorkerCancelsTheTrip) {
  // Mid-route takedown: the busy-heap entry goes stale via the trip epoch,
  // so the worker must NOT pop back to idle when its route would have
  // completed — it stays offline until explicitly brought back.
  ClaimFixture fx;
  ASSERT_TRUE(fx.fleet().TryClaim(4));
  ASSERT_TRUE(fx.fleet().CommitClaim(4, 40.0, 0).ok());
  EXPECT_EQ(fx.fleet().TakeOffline(4), WorkerTake::kBusy);
  fx.fleet().ReleaseUntil(100.0);  // Past the cancelled trip's end.
  EXPECT_TRUE(fx.fleet().worker(4).offline);
  EXPECT_EQ(fx.fleet().idle_count(), 3);
  EXPECT_FALSE(fx.fleet().TryClaim(4));
  EXPECT_TRUE(fx.fleet().BringOnline(4, 120.0).ok());
  EXPECT_FALSE(fx.fleet().worker(4).busy);
  EXPECT_EQ(fx.fleet().idle_count(), 4);
  // A fresh dispatch after the comeback completes normally.
  ASSERT_TRUE(fx.fleet().TryClaim(4));
  ASSERT_TRUE(fx.fleet().CommitClaim(4, 150.0, 1).ok());
  fx.fleet().ReleaseUntil(150.0);
  EXPECT_FALSE(fx.fleet().worker(4).busy);
  EXPECT_EQ(fx.fleet().worker(4).location, 1);
}

TEST(FleetClaimTest, BringOnlineRequiresOffline) {
  ClaimFixture fx;
  EXPECT_EQ(fx.fleet().BringOnline(1, 5.0).code(),
            StatusCode::kFailedPrecondition);
}

TEST(FleetClaimTest, DispatchIsClaimPlusCommit) {
  ClaimFixture fx;
  EXPECT_TRUE(fx.fleet().Dispatch(1, 20.0, 2).ok());
  EXPECT_TRUE(fx.fleet().worker(1).busy);
  // Busy and offline workers are not dispatchable.
  EXPECT_EQ(fx.fleet().Dispatch(1, 30.0, 3).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(fx.fleet().TakeOffline(2), WorkerTake::kIdle);
  EXPECT_EQ(fx.fleet().Dispatch(2, 30.0, 3).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace watter
