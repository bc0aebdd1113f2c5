// Tests of the v2 session-based access layer: OsnClient pagination, batch
// fetches, fault injection, budget enforcement — and the acceptance
// criterion that with pagination and faults off the client is
// accounting-identical to the v1 LocalGraphApi on all ten algorithms.

#include "osn/client.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "estimators/estimator.h"
#include "osn/local_api.h"
#include "tests/test_util.h"

namespace labelrw::osn {
namespace {

using ::labelrw::testing::MakeGraph;
using ::labelrw::testing::RandomConnectedGraph;
using ::labelrw::testing::RandomLabels;

class OsnClientTest : public ::testing::Test {
 protected:
  // Node 0 has degree 5 so pagination kicks in at page_size 2.
  OsnClientTest()
      : graph_(MakeGraph(
            6, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {1, 2}})),
        labels_(graph::LabelStore::FromSingleLabels({1, 2, 1, 2, 1, 2})),
        transport_(graph_, labels_) {}

  graph::Graph graph_;
  graph::LabelStore labels_;
  LocalGraphApi transport_;  // used through its Transport face only
};

TEST_F(OsnClientTest, DefaultsBehaveLikeV1) {
  OsnClient client(transport_);
  EXPECT_EQ(client.api_calls(), 0);
  ASSERT_OK_AND_ASSIGN(auto nbrs, client.GetNeighbors(0));
  EXPECT_EQ(nbrs.size(), 5u);
  EXPECT_EQ(client.api_calls(), 1);
  // The page covers labels and degree too.
  ASSERT_TRUE(client.GetLabels(0).ok());
  ASSERT_TRUE(client.GetDegree(0).ok());
  EXPECT_EQ(client.api_calls(), 1);
  EXPECT_EQ(client.distinct_users_fetched(), 1);
  // Unknown users are NotFound, uncharged.
  EXPECT_EQ(client.GetNeighbors(99).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(client.api_calls(), 1);
}

TEST_F(OsnClientTest, PaginationChargesPerPage) {
  CostModel model;
  model.page_size = 2;
  OsnClient client(transport_, model);
  // degree 5 -> ceil(5/2) = 3 pages.
  ASSERT_TRUE(client.GetNeighbors(0).ok());
  EXPECT_EQ(client.api_calls(), 3);
  EXPECT_EQ(client.distinct_users_fetched(), 1);
  // Fully cached now: everything on user 0 is free.
  ASSERT_TRUE(client.GetNeighbors(0).ok());
  ASSERT_TRUE(client.GetLabels(0).ok());
  EXPECT_EQ(client.api_calls(), 3);

  // Profile-only ops fetch just the first page...
  ASSERT_TRUE(client.GetDegree(1).ok());
  EXPECT_EQ(client.api_calls(), 4);
  // ...and a later full friend-list fetch only pays the tail (degree 2 fits
  // on the already-fetched first page -> free).
  ASSERT_TRUE(client.GetNeighbors(1).ok());
  EXPECT_EQ(client.api_calls(), 4);
}

TEST_F(OsnClientTest, ProfileThenFullListChargesOnlyTail) {
  CostModel model;
  model.page_size = 2;
  OsnClient client(transport_, model);
  ASSERT_TRUE(client.GetLabels(0).ok());  // first page
  EXPECT_EQ(client.api_calls(), 1);
  ASSERT_TRUE(client.GetNeighbors(0).ok());  // pages 2..3
  EXPECT_EQ(client.api_calls(), 3);
}

TEST_F(OsnClientTest, CursorIterationWalksAllPages) {
  CostModel model;
  model.page_size = 2;
  OsnClient client(transport_, model);
  std::vector<graph::NodeId> collected;
  int64_t cursor = 0;
  int pages = 0;
  while (true) {
    ASSERT_OK_AND_ASSIGN(const OsnClient::NeighborPage page,
                         client.FetchNeighborsPage(0, cursor));
    EXPECT_EQ(page.degree, 5);
    collected.insert(collected.end(), page.friends.begin(),
                     page.friends.end());
    ++pages;
    if (page.next_cursor < 0) break;
    cursor = page.next_cursor;
  }
  EXPECT_EQ(pages, 3);
  EXPECT_EQ(client.api_calls(), 3);
  ASSERT_OK_AND_ASSIGN(auto full, client.GetNeighbors(0));
  EXPECT_EQ(client.api_calls(), 3);  // cursor iteration filled the cache
  ASSERT_EQ(collected.size(), full.size());
  for (size_t i = 0; i < full.size(); ++i) EXPECT_EQ(collected[i], full[i]);

  // Re-iterating cached pages is free.
  ASSERT_TRUE(client.FetchNeighborsPage(0, 2).ok());
  EXPECT_EQ(client.api_calls(), 3);
  // Bad cursors are rejected.
  EXPECT_EQ(client.FetchNeighborsPage(0, 3).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(client.FetchNeighborsPage(0, 6).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(OsnClientTest, UnpaginatedCursorIsSinglePage) {
  OsnClient client(transport_);
  ASSERT_OK_AND_ASSIGN(const OsnClient::NeighborPage page,
                       client.FetchNeighborsPage(0));
  EXPECT_EQ(page.friends.size(), 5u);
  EXPECT_EQ(page.next_cursor, -1);
  EXPECT_EQ(client.api_calls(), 1);
  EXPECT_EQ(client.FetchNeighborsPage(0, 2).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(OsnClientTest, BudgetEnforcedAcrossPages) {
  CostModel model;
  model.page_size = 2;
  OsnClient client(transport_, model, FaultPolicy(), /*budget=*/2);
  // Full fetch needs 3 pages but only 2 fit the budget: denied, uncharged.
  auto denied = client.GetNeighbors(0);
  EXPECT_EQ(denied.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(client.api_calls(), 0);
  // Profile fetches (1 page each) still fit.
  ASSERT_TRUE(client.GetDegree(0).ok());
  ASSERT_TRUE(client.GetLabels(1).ok());
  EXPECT_EQ(client.remaining_budget(), 0);
  // Cached data stays free at zero budget.
  ASSERT_TRUE(client.GetDegree(0).ok());
}

TEST_F(OsnClientTest, BatchFetchCoalescesFirstPages) {
  CostModel model;
  model.batch_size = 3;
  OsnClient client(transport_, model);
  const graph::NodeId ids[] = {0, 1, 2, 3, 4, 5};
  ASSERT_OK_AND_ASSIGN(const auto views, client.FetchUsers(ids));
  ASSERT_EQ(views.size(), 6u);
  // 6 uncached users / batch of 3 = 2 round-trips, no tail pages.
  EXPECT_EQ(client.api_calls(), 2);
  EXPECT_EQ(client.stats().batch_round_trips, 2);
  EXPECT_EQ(client.distinct_users_fetched(), 6);
  for (const auto& view : views) {
    EXPECT_TRUE(view.available);
    EXPECT_EQ(view.degree,
              static_cast<int64_t>(view.neighbors.size()));
  }
  // Everything is cached now.
  ASSERT_TRUE(client.GetNeighbors(4).ok());
  EXPECT_EQ(client.api_calls(), 2);
}

TEST_F(OsnClientTest, BatchSizeOneChargesLikeIndividualFetches) {
  OsnClient batched(transport_);
  OsnClient individual(transport_);
  const graph::NodeId ids[] = {0, 3, 5};
  ASSERT_TRUE(batched.FetchUsers(ids).ok());
  for (const graph::NodeId id : ids) {
    ASSERT_TRUE(individual.GetNeighbors(id).ok());
  }
  EXPECT_EQ(batched.api_calls(), individual.api_calls());
  EXPECT_EQ(batched.distinct_users_fetched(),
            individual.distinct_users_fetched());
}

TEST_F(OsnClientTest, BatchWithPaginationChargesTails) {
  CostModel model;
  model.page_size = 2;
  model.batch_size = 6;
  OsnClient client(transport_, model);
  const graph::NodeId ids[] = {0, 1};
  ASSERT_TRUE(client.FetchUsers(ids).ok());
  // 1 round-trip (both first pages) + 2 tail pages of user 0 (degree 5).
  EXPECT_EQ(client.api_calls(), 3);
}

TEST_F(OsnClientTest, BatchDeduplicatesRepeatedIds) {
  // A duplicate id is a cache hit within the batch, exactly like the
  // per-user sequence GetNeighbors(u); GetNeighbors(u) it mirrors.
  OsnClient client(transport_);
  const graph::NodeId ids[] = {3, 3, 3};
  ASSERT_OK_AND_ASSIGN(const auto views, client.FetchUsers(ids));
  EXPECT_EQ(views.size(), 3u);
  EXPECT_EQ(client.api_calls(), 1);
  EXPECT_EQ(client.distinct_users_fetched(), 1);

  // With caching off every occurrence charges, like repeated GetNeighbors.
  CostModel uncached;
  uncached.cache_fetches = false;
  OsnClient nocache(transport_, uncached);
  ASSERT_TRUE(nocache.FetchUsers(ids).ok());
  EXPECT_EQ(nocache.api_calls(), 3);
}

TEST_F(OsnClientTest, BatchRejectsUnknownIdsAtomically) {
  OsnClient client(transport_);
  const graph::NodeId ids[] = {0, 99};
  EXPECT_EQ(client.FetchUsers(ids).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(client.api_calls(), 0);
}

TEST_F(OsnClientTest, InvalidFaultPolicySurfacesOnEveryCall) {
  FaultPolicy faults;
  faults.transient_error_rate = 1.5;
  OsnClient client(transport_, CostModel(), faults);
  EXPECT_EQ(client.GetNeighbors(0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(OsnClientFaultTest, TransientErrorsAreRetriedAndCharged) {
  const graph::Graph graph = RandomConnectedGraph(80, 200, 21);
  const graph::LabelStore labels = RandomLabels(80, 2, 22);
  const LocalGraphApi transport(graph, labels);

  FaultPolicy faults;
  faults.transient_error_rate = 0.4;
  faults.retry_budget = 64;  // practically always recovers
  faults.seed = 7;
  OsnClient client(transport, CostModel(), faults);
  for (graph::NodeId u = 0; u < 40; ++u) {
    ASSERT_TRUE(client.GetNeighbors(u).ok());
  }
  EXPECT_EQ(client.distinct_users_fetched(), 40);
  // Failed attempts were charged on top of the 40 successful pages.
  EXPECT_GT(client.api_calls(), 40);
  EXPECT_GT(client.stats().transient_failures, 0);
  EXPECT_EQ(client.stats().retries, client.stats().transient_failures);
  EXPECT_EQ(client.stats().pages_fetched, 40);
}

TEST(OsnClientFaultTest, RetryBudgetExhaustionIsUnavailable) {
  const graph::Graph graph = RandomConnectedGraph(80, 200, 23);
  const graph::LabelStore labels = RandomLabels(80, 2, 24);
  const LocalGraphApi transport(graph, labels);

  FaultPolicy faults;
  faults.transient_error_rate = 0.9;
  faults.retry_budget = 0;
  faults.seed = 11;
  OsnClient client(transport, CostModel(), faults);
  bool saw_unavailable = false;
  for (graph::NodeId u = 0; u < 40 && !saw_unavailable; ++u) {
    const auto result = client.GetNeighbors(u);
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
      saw_unavailable = true;
    }
  }
  EXPECT_TRUE(saw_unavailable);
}

TEST(OsnClientFaultTest, UnchargedFailuresKeepAccountingClean) {
  const graph::Graph graph = RandomConnectedGraph(80, 200, 25);
  const graph::LabelStore labels = RandomLabels(80, 2, 26);
  const LocalGraphApi transport(graph, labels);

  FaultPolicy faults;
  faults.transient_error_rate = 0.4;
  faults.retry_budget = 64;
  faults.charge_failed_attempts = false;
  faults.seed = 13;
  OsnClient client(transport, CostModel(), faults);
  for (graph::NodeId u = 0; u < 40; ++u) {
    ASSERT_TRUE(client.GetNeighbors(u).ok());
  }
  EXPECT_EQ(client.api_calls(), 40);  // only successes charge
  EXPECT_GT(client.stats().transient_failures, 0);
}

TEST(OsnClientFaultTest, PrivateUsersAreDeniedDeterministically) {
  const graph::Graph graph = RandomConnectedGraph(200, 400, 27);
  const graph::LabelStore labels = RandomLabels(200, 2, 28);
  const LocalGraphApi transport(graph, labels);

  FaultPolicy faults;
  faults.unavailable_user_rate = 0.3;
  faults.seed = 99;
  OsnClient client(transport, CostModel(), faults);

  graph::NodeId denied_user = -1;
  int64_t denied = 0;
  for (graph::NodeId u = 0; u < 200; ++u) {
    const auto result = client.GetDegree(u);
    if (!result.ok()) {
      ASSERT_EQ(result.status().code(), StatusCode::kPermissionDenied);
      if (denied_user < 0) denied_user = u;
      ++denied;
    }
  }
  // ~30% of 200 users; generous bounds keep this robust to the hash.
  EXPECT_GT(denied, 20);
  EXPECT_LT(denied, 120);
  ASSERT_GE(denied_user, 0);

  // The verdict is stable and the discovery probe charged exactly once.
  const int64_t calls = client.api_calls();
  EXPECT_EQ(client.GetNeighbors(denied_user).status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(client.api_calls(), calls);

  // Seed users always point at accessible accounts.
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    ASSERT_OK_AND_ASSIGN(const graph::NodeId seed, client.RandomNode(rng));
    EXPECT_TRUE(client.GetDegree(seed).ok());
  }
}

TEST(OsnClientFaultTest, EstimatorsSurviveTransientFaults) {
  const graph::Graph graph = RandomConnectedGraph(150, 500, 31);
  const graph::LabelStore labels = RandomLabels(150, 2, 32);
  const LocalGraphApi transport(graph, labels);

  FaultPolicy faults;
  faults.transient_error_rate = 0.2;
  faults.retry_budget = 64;
  faults.seed = 17;
  OsnClient client(transport, CostModel(), faults);

  estimators::EstimateOptions options;
  options.sample_size = 200;
  options.burn_in = 30;
  options.seed = 3;
  ASSERT_OK_AND_ASSIGN(
      const estimators::EstimateResult result,
      estimators::Estimate(estimators::AlgorithmId::kNeighborSampleHH, client,
                           graph::TargetLabel{0, 1}, client.Priors(),
                           options));
  EXPECT_GT(result.estimate, 0.0);
  EXPECT_GT(client.stats().transient_failures, 0);
}

// ---------------------------------------------------------------------------
// Acceptance criterion: with page_size <= 0 and faults off, the v2 path is
// accounting-identical to v1 — api_calls, distinct_users_fetched, and the
// estimates match bit-for-bit on every algorithm, in both budget and
// sample-size mode.

class V1V2EquivalenceTest
    : public ::testing::TestWithParam<estimators::AlgorithmId> {};

TEST_P(V1V2EquivalenceTest, AccountingAndEstimatesIdentical) {
  const estimators::AlgorithmId id = GetParam();
  const graph::Graph graph = RandomConnectedGraph(200, 600, 41);
  const graph::LabelStore labels = RandomLabels(200, 2, 42);
  const graph::TargetLabel target{0, 1};

  for (const bool budget_mode : {true, false}) {
    estimators::EstimateOptions options;
    if (budget_mode) {
      options.api_budget = 150;
    } else {
      options.sample_size = 120;
    }
    options.burn_in = 40;
    options.seed = 77;

    LocalGraphApi v1(graph, labels);
    LocalGraphApi transport(graph, labels);
    OsnClient v2(transport);

    ASSERT_OK_AND_ASSIGN(
        const estimators::EstimateResult r1,
        estimators::Estimate(id, v1, target, v1.Priors(), options));
    ASSERT_OK_AND_ASSIGN(
        const estimators::EstimateResult r2,
        estimators::Estimate(id, v2, target, v2.Priors(), options));

    EXPECT_EQ(v1.api_calls(), v2.api_calls()) << estimators::AlgorithmName(id);
    EXPECT_EQ(v1.distinct_users_fetched(), v2.distinct_users_fetched())
        << estimators::AlgorithmName(id);
    EXPECT_EQ(r1.estimate, r2.estimate) << estimators::AlgorithmName(id);
    EXPECT_EQ(r1.api_calls, r2.api_calls) << estimators::AlgorithmName(id);
    EXPECT_EQ(r1.iterations, r2.iterations) << estimators::AlgorithmName(id);
    EXPECT_EQ(r1.samples_used, r2.samples_used) << estimators::AlgorithmName(id);
    EXPECT_EQ(r1.explored_nodes, r2.explored_nodes) << estimators::AlgorithmName(id);
    EXPECT_EQ(r1.std_error, r2.std_error) << estimators::AlgorithmName(id);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, V1V2EquivalenceTest,
    ::testing::ValuesIn(estimators::AllAlgorithms()),
    [](const ::testing::TestParamInfo<estimators::AlgorithmId>& info) {
      std::string name = estimators::AlgorithmName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST_F(OsnClientTest, PriorsMatchTransport) {
  OsnClient client(transport_);
  const GraphPriors priors = client.Priors();
  EXPECT_EQ(priors.num_nodes, 6);
  EXPECT_EQ(priors.num_edges, 6);
  EXPECT_EQ(priors.max_degree, 5);
}

// ---------------------------------------------------------------------------
// The crawler cache (which pages of which users a session already paid
// for), exercised through the public surface only: charges, distinct-user
// counts, and the checkpoint bytes it serializes into.

/// A Transport over LocalGraphApi whose advertised page size the test can
/// change mid-crawl (0 = no override), to drive ApiShape drift.
class ShapeShiftingTransport final : public Transport {
 public:
  explicit ShapeShiftingTransport(const LocalGraphApi& inner)
      : inner_(inner) {}
  Result<UserRecord> FetchRecord(graph::NodeId user) const override {
    return inner_.FetchRecord(user);
  }
  Result<graph::NodeId> SampleSeed(Rng& rng) const override {
    return inner_.SampleSeed(rng);
  }
  int64_t num_users() const override { return inner_.num_users(); }
  GraphPriors TransportPriors() const override {
    return inner_.TransportPriors();
  }
  ApiShape CurrentShape() const override { return {page_size, 0}; }

  int64_t page_size = 0;

 private:
  const LocalGraphApi& inner_;
};

std::string SavedState(const OsnClient& client) {
  util::ByteWriter w;
  client.SaveState(w);
  return w.TakeBuffer();
}

/// Restores `bytes` into `fresh` and returns what it serializes back to.
std::string RoundTrip(const std::string& bytes, OsnClient& fresh) {
  util::ByteReader r(bytes);
  EXPECT_OK(fresh.RestoreState(r));
  return SavedState(fresh);
}

TEST_F(OsnClientTest, PaginatedListGoesPartialThenFull) {
  CostModel model;
  model.page_size = 2;
  OsnClient client(transport_, model);
  // Node 0: degree 5 -> 3 pages. Page 0, then page 1: partial at 2 pages.
  ASSERT_TRUE(client.FetchNeighborsPage(0, 0).ok());
  ASSERT_TRUE(client.FetchNeighborsPage(0, 2).ok());
  EXPECT_EQ(client.api_calls(), 2);
  // Cached pages and the profile are free.
  ASSERT_TRUE(client.FetchNeighborsPage(0, 0).ok());
  ASSERT_TRUE(client.FetchNeighborsPage(0, 2).ok());
  ASSERT_TRUE(client.GetDegree(0).ok());
  EXPECT_EQ(client.api_calls(), 2);

  // A checkpoint taken mid-pagination resumes at the same page.
  OsnClient resumed(transport_, model);
  const std::string partial = SavedState(client);
  EXPECT_EQ(RoundTrip(partial, resumed), partial);

  // The full list pays only the last page; after that the user is free.
  for (OsnClient* c : {&client, &resumed}) {
    ASSERT_TRUE(c->GetNeighbors(0).ok());
    EXPECT_EQ(c->api_calls(), 3);
    ASSERT_TRUE(c->FetchNeighborsPage(0, 4).ok());
    ASSERT_TRUE(c->GetNeighbors(0).ok());
    EXPECT_EQ(c->api_calls(), 3);
    EXPECT_EQ(c->distinct_users_fetched(), 1);
  }
  EXPECT_EQ(SavedState(client), SavedState(resumed));
}

TEST_F(OsnClientTest, OutOfOrderPageIsChargedButNotCached) {
  CostModel model;
  model.page_size = 2;
  OsnClient client(transport_, model);
  ASSERT_TRUE(client.FetchNeighborsPage(0, 4).ok());  // last page first
  ASSERT_TRUE(client.FetchNeighborsPage(0, 4).ok());
  EXPECT_EQ(client.api_calls(), 2);
  EXPECT_EQ(client.distinct_users_fetched(), 0);
  ASSERT_TRUE(client.GetNeighbors(0).ok());  // all three pages
  EXPECT_EQ(client.api_calls(), 5);
}

TEST_F(OsnClientTest, PageSizeDriftForgetsPartialListsOnly) {
  ShapeShiftingTransport shifting(transport_);
  CostModel model;
  model.page_size = 2;
  OsnClient client(shifting, model);
  ASSERT_TRUE(client.FetchNeighborsPage(0, 0).ok());
  ASSERT_TRUE(client.FetchNeighborsPage(0, 2).ok());  // 0: 2 of 3 pages
  ASSERT_TRUE(client.GetNeighbors(1).ok());           // 1: full (1 page)
  EXPECT_EQ(client.api_calls(), 3);

  // Page size 1: user 0's progress was in old-page units and is dropped
  // back to its profile page; user 1's full list stays cached.
  shifting.page_size = 1;
  ASSERT_TRUE(client.GetNeighbors(1).ok());
  EXPECT_EQ(client.api_calls(), 3);
  EXPECT_EQ(client.stats().shape_drifts, 1);
  ASSERT_TRUE(client.GetNeighbors(0).ok());  // pages 2..5 of 5
  EXPECT_EQ(client.api_calls(), 7);
  EXPECT_EQ(client.distinct_users_fetched(), 2);
}

/// A backend of INT32_MAX users, each with one friend (user 0). Nothing is
/// stored per user, so only a client that sizes its cache to the users it
/// touched can be built over it.
class HugeTransport final : public Transport {
 public:
  static constexpr int64_t kUsers = std::numeric_limits<int32_t>::max();
  Result<UserRecord> FetchRecord(graph::NodeId user) const override {
    if (user < 0 || user >= kUsers) return NotFoundError("no such user");
    return UserRecord{1, kFriends, kLabels};
  }
  Result<graph::NodeId> SampleSeed(Rng&) const override { return 0; }
  int64_t num_users() const override { return kUsers; }
  GraphPriors TransportPriors() const override {
    return {kUsers, kUsers, kUsers, kUsers};
  }

 private:
  static constexpr graph::NodeId kFriends[] = {0};
  static constexpr graph::Label kLabels[] = {1};
};

TEST(OsnClientCacheTest, ConstructionIsIndependentOfUserCount) {
  const HugeTransport transport;
  OsnClient client(transport);
  const auto last = static_cast<graph::NodeId>(HugeTransport::kUsers - 1);
  ASSERT_TRUE(client.GetNeighbors(last).ok());
  ASSERT_TRUE(client.GetNeighbors(0).ok());
  ASSERT_TRUE(client.GetDegree(last).ok());
  EXPECT_EQ(client.api_calls(), 2);
  EXPECT_EQ(client.distinct_users_fetched(), 2);

  OsnClient resumed(transport);
  const std::string bytes = SavedState(client);
  EXPECT_EQ(RoundTrip(bytes, resumed), bytes);
  ASSERT_TRUE(resumed.GetLabels(last).ok());
  EXPECT_EQ(resumed.api_calls(), 2);
}

TEST(OsnClientCacheTest, DeniedUsersAreCachedOnce) {
  const graph::Graph graph = RandomConnectedGraph(200, 400, 27);
  const graph::LabelStore labels = RandomLabels(200, 2, 28);
  const LocalGraphApi transport(graph, labels);
  FaultPolicy faults;
  faults.unavailable_user_rate = 0.3;
  faults.seed = 99;
  CostModel model;
  model.batch_size = 8;
  OsnClient client(transport, model, faults);

  std::vector<graph::NodeId> denied;
  for (graph::NodeId u = 0; u < 200; ++u) {
    const auto result = client.GetNeighbors(u);
    if (!result.ok()) {
      ASSERT_EQ(result.status().code(), StatusCode::kPermissionDenied);
      denied.push_back(u);
    }
  }
  ASSERT_FALSE(denied.empty());
  // Every user cost one call: a served page or the probe that found it
  // private. Denied users are not served profiles.
  EXPECT_EQ(client.api_calls(), 200);
  EXPECT_EQ(client.distinct_users_fetched(),
            200 - static_cast<int64_t>(denied.size()));

  // Asking again, singly or in a batch, charges nothing.
  for (const graph::NodeId u : denied) {
    EXPECT_EQ(client.GetDegree(u).status().code(),
              StatusCode::kPermissionDenied);
  }
  ASSERT_OK_AND_ASSIGN(const auto views, client.FetchUsers(denied));
  for (const auto& view : views) EXPECT_FALSE(view.available);
  EXPECT_EQ(client.api_calls(), 200);
  EXPECT_EQ(client.stats().batch_round_trips, 0);

  // A batch discovers a denied verdict once too.
  OsnClient batched(transport, model, faults);
  ASSERT_TRUE(batched.FetchUsers(denied).ok());
  const int64_t calls = batched.api_calls();
  EXPECT_EQ(calls, (static_cast<int64_t>(denied.size()) + 7) / 8);
  for (const graph::NodeId u : denied) {
    EXPECT_EQ(batched.GetNeighbors(u).status().code(),
              StatusCode::kPermissionDenied);
  }
  EXPECT_EQ(batched.api_calls(), calls);
  EXPECT_EQ(batched.distinct_users_fetched(), 0);
}

TEST_F(OsnClientTest, BatchCoalescesDuplicatesAndCachedIds) {
  CostModel model;
  model.page_size = 2;
  model.batch_size = 2;
  OsnClient client(transport_, model);
  ASSERT_TRUE(client.GetDegree(1).ok());  // 1's profile is cached
  EXPECT_EQ(client.api_calls(), 1);
  // Uncached first pages: {0, 2, 5} -> 2 round trips of 2; then user 0's
  // two tail pages. Duplicates and user 1 add nothing.
  const graph::NodeId ids[] = {0, 1, 0, 2, 5, 2, 1, 5, 0};
  ASSERT_OK_AND_ASSIGN(const auto views, client.FetchUsers(ids));
  ASSERT_EQ(views.size(), 9u);
  EXPECT_EQ(client.stats().batch_round_trips, 2);
  EXPECT_EQ(client.api_calls(), 1 + 2 + 2);
  EXPECT_EQ(client.distinct_users_fetched(), 4);
  for (size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(views[i].id, ids[i]);
    EXPECT_TRUE(views[i].available);
  }
  // Everything the batch returned is now cached in full.
  for (const graph::NodeId u : ids) ASSERT_TRUE(client.GetNeighbors(u).ok());
  EXPECT_EQ(client.api_calls(), 5);
}

TEST(OsnClientCacheTest, CacheSurvivesManyRehashes) {
  // Thousands of distinct users grow the cache through many doublings;
  // the extreme ids 0 and n-1 and a scrambled order must all survive.
  constexpr int64_t kUsers = 5000;
  const graph::Graph graph = RandomConnectedGraph(kUsers, 3 * kUsers, 51);
  const graph::LabelStore labels = RandomLabels(kUsers, 2, 52);
  const LocalGraphApi transport(graph, labels);
  CostModel model;
  model.page_size = 2;
  OsnClient client(transport, model);

  std::vector<graph::NodeId> order = {0, kUsers - 1};
  for (int64_t i = 0; i < kUsers; ++i) {
    const auto u = static_cast<graph::NodeId>((i * 2713) % kUsers);
    if (u != 0 && u != kUsers - 1) order.push_back(u);
  }
  ASSERT_EQ(order.size(), static_cast<size_t>(kUsers));
  int64_t expected_calls = 0;
  for (const graph::NodeId u : order) {
    ASSERT_TRUE(client.GetDegree(u).ok());
    ++expected_calls;
    if (u % 3 == 0) {
      ASSERT_TRUE(client.GetNeighbors(u).ok());
      expected_calls += client.PagesForFull(graph.degree(u)) - 1;
    }
  }
  EXPECT_EQ(client.api_calls(), expected_calls);
  EXPECT_EQ(client.distinct_users_fetched(), kUsers);

  // Profiles are all cached; full lists of every third user too.
  for (const graph::NodeId u : order) {
    ASSERT_TRUE(client.GetLabels(u).ok());
    if (u % 3 == 0) ASSERT_TRUE(client.GetNeighbors(u).ok());
  }
  EXPECT_EQ(client.api_calls(), expected_calls);

  OsnClient resumed(transport, model);
  const std::string bytes = SavedState(client);
  EXPECT_EQ(RoundTrip(bytes, resumed), bytes);
  ASSERT_TRUE(resumed.GetNeighbors(kUsers - 1).ok());
  ASSERT_TRUE(resumed.GetNeighbors(0).ok());
  EXPECT_EQ(resumed.api_calls(),
            expected_calls +
                ((kUsers - 1) % 3 == 0
                     ? 0
                     : client.PagesForFull(graph.degree(kUsers - 1)) - 1));
}

/// A fixed crawl that leaves every kind of cache entry behind: profiles,
/// full lists, lists mid-pagination, denied verdicts, partial lists dropped
/// by a page-size drift, and batch-fetched users.
std::string GoldenCrawlState() {
  const graph::Graph graph = RandomConnectedGraph(400, 1600, 61);
  const graph::LabelStore labels = RandomLabels(400, 2, 62);
  const LocalGraphApi inner(graph, labels);
  ShapeShiftingTransport transport(inner);
  CostModel model;
  model.page_size = 3;
  model.batch_size = 4;
  FaultPolicy faults;
  faults.unavailable_user_rate = 0.15;
  faults.transient_error_rate = 0.2;
  faults.retry_budget = 64;
  faults.seed = 5;
  OsnClient client(transport, model, faults);
  for (graph::NodeId u = 0; u < 400; u += 7) (void)client.GetDegree(u);
  for (graph::NodeId u = 1; u < 400; u += 11) {
    const auto page = client.FetchNeighborsPage(u, 0);
    if (page.ok() && page->next_cursor >= 0) {
      (void)client.FetchNeighborsPage(u, page->next_cursor);
    }
  }
  for (graph::NodeId u = 2; u < 400; u += 13) (void)client.GetNeighbors(u);
  const graph::NodeId batch[] = {5, 5, 17, 399, 0, 250, 17, 12, 34};
  (void)client.FetchUsers(batch);
  transport.page_size = 2;
  for (graph::NodeId u = 3; u < 400; u += 17) (void)client.GetNeighbors(u);
  for (graph::NodeId u = 4; u < 400; u += 19) {
    const auto page = client.FetchNeighborsPage(u, 0);
    if (page.ok() && page->next_cursor >= 0) {
      (void)client.FetchNeighborsPage(u, page->next_cursor);
    }
  }
  std::string bytes = SavedState(client);
  OsnClient fresh(transport, model, faults);
  EXPECT_EQ(RoundTrip(bytes, fresh), bytes);
  return bytes;
}

TEST(OsnClientCacheTest, GoldenCheckpointBytes) {
  // The hash pins the checkpoint format: a change here breaks resuming
  // crawls checkpointed by earlier builds.
  const std::string bytes = GoldenCrawlState();
  EXPECT_EQ(util::Fnv1a64(bytes.data(), bytes.size()),
            0x16f65e56f846a040ULL)
      << bytes.size() << " bytes";
}

TEST(OsnClientCacheTest, GoldenCheckpointAfterUncachedAbort) {
  // With caching off, a full list re-fetched page by page and cut short by
  // the budget leaves a partial-pagination entry beside the full one; the
  // checkpoint carries both.
  const graph::Graph graph = RandomConnectedGraph(100, 400, 71);
  const graph::LabelStore labels = RandomLabels(100, 2, 72);
  const LocalGraphApi transport(graph, labels);
  graph::NodeId hub = 0;
  for (graph::NodeId u = 0; u < 100; ++u) {
    if (graph.degree(u) > graph.degree(hub)) hub = u;
  }
  ASSERT_GE(graph.degree(hub), 7);
  CostModel model;
  model.page_size = 2;
  model.cache_fetches = false;
  FaultPolicy faults;
  faults.transient_error_rate = 0.1;
  faults.retry_budget = 64;
  faults.seed = 9;
  int64_t first_call_cost = 0;
  {
    OsnClient probe(transport, model, faults);
    ASSERT_TRUE(probe.GetNeighbors(hub).ok());
    first_call_cost = probe.api_calls();
  }
  OsnClient client(transport, model, faults, first_call_cost + 2);
  ASSERT_TRUE(client.GetNeighbors(hub).ok());
  EXPECT_EQ(client.GetNeighbors(hub).status().code(),
            StatusCode::kResourceExhausted);
  const std::string bytes = SavedState(client);
  OsnClient fresh(transport, model, faults, first_call_cost + 2);
  EXPECT_EQ(RoundTrip(bytes, fresh), bytes);
  EXPECT_EQ(util::Fnv1a64(bytes.data(), bytes.size()),
            0x74e0a16f1978738cULL)
      << bytes.size() << " bytes";
}

}  // namespace
}  // namespace labelrw::osn
