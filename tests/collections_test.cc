#include <gtest/gtest.h>

#include "collections/data_model.h"
#include "collections/tx_id.h"
#include "common/serde.h"

namespace qanaat {
namespace {

CollectionId Coll(std::initializer_list<EnterpriseId> ids) {
  return CollectionId(EnterpriseSet(ids));
}

// ----------------------------------------------------------- CollectionId

TEST(CollectionIdTest, LocalAndRoot) {
  EXPECT_TRUE(Coll({2}).IsLocal());
  EXPECT_FALSE(Coll({1, 2}).IsLocal());
  EXPECT_TRUE(Coll({0, 1, 2, 3}).IsRootOf(4));
  EXPECT_FALSE(Coll({0, 1, 2}).IsRootOf(4));
}

TEST(CollectionIdTest, OrderDependencyIsSubsetRelation) {
  // d_AB is order-dependent on d_ABC and d_ABCD, not vice versa (§3.2).
  auto ab = Coll({0, 1});
  auto abc = Coll({0, 1, 2});
  auto abcd = Coll({0, 1, 2, 3});
  auto cd = Coll({2, 3});
  EXPECT_TRUE(ab.OrderDependentOn(abc));
  EXPECT_TRUE(ab.OrderDependentOn(abcd));
  EXPECT_TRUE(abc.OrderDependentOn(abcd));
  EXPECT_FALSE(abc.OrderDependentOn(ab));
  EXPECT_FALSE(cd.OrderDependentOn(ab));
}

TEST(CollectionIdTest, ReadRuleMatchesPaperExamples) {
  // §3.5 rule 2: d_AB reads d_ABC: allowed; d_ABC reads d_AB: denied.
  EXPECT_TRUE(Coll({0, 1}).CanRead(Coll({0, 1, 2})));
  EXPECT_FALSE(Coll({0, 1, 2}).CanRead(Coll({0, 1})));
  // A collection can always read itself.
  EXPECT_TRUE(Coll({0, 1}).CanRead(Coll({0, 1})));
}

TEST(CollectionIdTest, VerifyRuleIsStrictSuperset) {
  // §3.2: d_AB may *verify* (privacy-preserving) records of d_A.
  EXPECT_TRUE(Coll({0, 1}).CanVerify(Coll({0})));
  EXPECT_FALSE(Coll({0}).CanVerify(Coll({0, 1})));
  EXPECT_FALSE(Coll({0, 1}).CanVerify(Coll({0, 1})));
}

TEST(CollectionIdTest, LabelNotation) {
  EXPECT_EQ(Coll({0, 2, 3}).Label(), "d_ACD");
  EXPECT_EQ((ShardRef{Coll({1}), 3}).Label(), "d_B/3");
}

TEST(CollectionIdTest, SerializationRoundTrip) {
  Encoder enc;
  Encode(Coll({0, 3}), &enc);
  Decoder dec(enc.buffer());
  CollectionId out;
  ASSERT_TRUE(Decode(&dec, &out));
  EXPECT_EQ(out, Coll({0, 3}));
}

// ------------------------------------------------------------------ TxId

TxId MakeId(CollectionId c, ShardId shard, SeqNo n,
            std::vector<GammaEntry> gamma = {}) {
  TxId id;
  id.alpha = {c, shard, n};
  id.gamma = std::move(gamma);
  return id;
}

TEST(TxIdTest, ToStringMatchesPaperNotation) {
  // ⟨[ABCD:1], 0⟩ and ⟨[BC:1], [ABC:1, BCD:1]⟩ from Fig 3.
  auto t1 = MakeId(Coll({0, 1, 2, 3}), 0, 1);
  EXPECT_EQ(t1.ToString(), "<[ABCD:1], 0>");
  auto t2 = MakeId(Coll({1, 2}), 0, 1,
                   {{Coll({0, 1, 2}), 1}, {Coll({1, 2, 3}), 1}});
  EXPECT_EQ(t2.ToString(), "<[BC:1], [ABC:1, BCD:1]>");
}

TEST(TxIdTest, GammaLookup) {
  auto t = MakeId(Coll({1, 2}), 0, 1,
                  {{Coll({0, 1, 2}), 5}, {Coll({1, 2, 3}), 7}});
  EXPECT_EQ(t.GammaFor(Coll({0, 1, 2})).value(), 5u);
  EXPECT_EQ(t.GammaFor(Coll({1, 2, 3})).value(), 7u);
  EXPECT_FALSE(t.GammaFor(Coll({0, 1, 2, 3})).has_value());
}

TEST(TxIdTest, LocalConsistencyHolds) {
  auto a = MakeId(Coll({0}), 0, 1);
  auto b = MakeId(Coll({0}), 0, 2);
  EXPECT_TRUE(CheckLocalConsistency(a, b).ok());
  // n must strictly increase.
  EXPECT_EQ(CheckLocalConsistency(b, a).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(CheckLocalConsistency(a, a).code(),
            StatusCode::kFailedPrecondition);
}

TEST(TxIdTest, LocalConsistencyRequiresSameChain) {
  auto a = MakeId(Coll({0}), 0, 1);
  auto b = MakeId(Coll({1}), 0, 2);
  EXPECT_EQ(CheckLocalConsistency(a, b).code(),
            StatusCode::kInvalidArgument);
  auto c = MakeId(Coll({0}), 1, 2);  // different shard
  EXPECT_EQ(CheckLocalConsistency(a, c).code(),
            StatusCode::kInvalidArgument);
}

TEST(TxIdTest, GlobalConsistencyMonotoneGamma) {
  // §3.3: ∀ d_Y ∈ γ∩γ': m <= m'.
  auto root = Coll({0, 1, 2, 3});
  auto a = MakeId(Coll({0, 1}), 0, 1, {{root, 3}});
  auto b = MakeId(Coll({0, 1}), 0, 2, {{root, 3}});
  auto c = MakeId(Coll({0, 1}), 0, 3, {{root, 5}});
  auto bad = MakeId(Coll({0, 1}), 0, 4, {{root, 4}});
  EXPECT_TRUE(CheckGlobalConsistency(a, b).ok());
  EXPECT_TRUE(CheckGlobalConsistency(b, c).ok());
  EXPECT_FALSE(CheckGlobalConsistency(c, bad).ok());
}

TEST(TxIdTest, GlobalConsistencyIgnoresDisjointGamma) {
  // Entries outside γ∩γ' impose no constraint.
  auto a = MakeId(Coll({0, 1}), 0, 1, {{Coll({0, 1, 2}), 9}});
  auto b = MakeId(Coll({0, 1}), 0, 2, {{Coll({0, 1, 3}), 1}});
  EXPECT_TRUE(CheckGlobalConsistency(a, b).ok());
}

TEST(TxIdTest, SerializationRoundTrip) {
  auto t = MakeId(Coll({1, 2}), 3, 42,
                  {{Coll({0, 1, 2}), 5}, {Coll({1, 2, 3}), 7}});
  t.extra_alphas.push_back({Coll({1, 2}), 1, 17});
  Encoder enc;
  Encode(t, &enc);
  Decoder dec(enc.buffer());
  TxId out;
  ASSERT_TRUE(Decode(&dec, &out));
  EXPECT_EQ(out, t);
}

// -------------------------------------------------------------- DataModel

TEST(DataModelTest, WorkflowCreatesRootAndLocals) {
  DataModel m(4);
  ASSERT_TRUE(m.AddWorkflow(EnterpriseSet::All(4)).ok());
  EXPECT_TRUE(m.HasCollection(Coll({0, 1, 2, 3})));
  for (EnterpriseId e = 0; e < 4; ++e) {
    EXPECT_TRUE(m.HasCollection(Coll({e})));
  }
  // Intermediates are optional and absent by default (§3.2).
  EXPECT_FALSE(m.HasCollection(Coll({0, 1})));
}

TEST(DataModelTest, WorkflowValidation) {
  DataModel m(4);
  EXPECT_FALSE(m.AddWorkflow(EnterpriseSet{0}).ok());
  EXPECT_FALSE(m.AddWorkflow(EnterpriseSet{0, 5}).ok());
}

TEST(DataModelTest, IntermediateMustBeInsideAWorkflow) {
  DataModel m(6);
  ASSERT_TRUE(m.AddWorkflow(EnterpriseSet{0, 1, 2, 3}).ok());
  EXPECT_TRUE(m.AddIntermediateCollection(EnterpriseSet{0, 1}).ok());
  // {0, 4} spans no registered workflow.
  EXPECT_EQ(m.AddIntermediateCollection(EnterpriseSet{0, 4}).code(),
            StatusCode::kFailedPrecondition);
}

TEST(DataModelTest, MultiWorkflowSharesCollections) {
  // Fig 2(c): workflows KLM and LMN share d_L, d_M and d_LM.
  DataModel m(4);  // K=0, L=1, M=2, N=3
  ASSERT_TRUE(m.AddWorkflow(EnterpriseSet{0, 1, 2}).ok());
  ASSERT_TRUE(m.AddWorkflow(EnterpriseSet{1, 2, 3}).ok());
  ASSERT_TRUE(m.AddIntermediateCollection(EnterpriseSet{1, 2}).ok());
  auto before = m.Collections().size();
  // Re-registering the shared intermediate (second workflow) reuses it.
  ASSERT_TRUE(m.AddIntermediateCollection(EnterpriseSet{1, 2}).ok());
  EXPECT_EQ(m.Collections().size(), before);
  // L maintains: d_L, d_LM, both roots.
  auto maintained = m.MaintainedBy(1);
  EXPECT_EQ(maintained.size(), 4u);
}

TEST(DataModelTest, OrderDependenciesOf) {
  DataModel m(4);
  ASSERT_TRUE(m.AddWorkflow(EnterpriseSet::All(4)).ok());
  ASSERT_TRUE(m.AddIntermediateCollection(EnterpriseSet{0, 1}).ok());
  ASSERT_TRUE(m.AddIntermediateCollection(EnterpriseSet{0, 1, 2}).ok());
  auto deps = m.OrderDependenciesOf(Coll({0, 1}));
  // d_AB depends on d_ABC and the root (both exist), not on itself.
  EXPECT_EQ(deps.size(), 2u);
  auto deps_local = m.OrderDependenciesOf(Coll({0}));
  // d_A depends on d_AB, d_ABC, root.
  EXPECT_EQ(deps_local.size(), 3u);
}

TEST(DataModelTest, WriteRule) {
  DataModel m(4);
  ASSERT_TRUE(m.AddWorkflow(EnterpriseSet::All(4)).ok());
  ASSERT_TRUE(m.AddIntermediateCollection(EnterpriseSet{0, 1}).ok());
  EXPECT_TRUE(m.ValidateWrite(Coll({0, 1}), 0).ok());
  EXPECT_TRUE(m.ValidateWrite(Coll({0, 1}), 1).ok());
  // Enterprise C is not involved in d_AB.
  EXPECT_EQ(m.ValidateWrite(Coll({0, 1}), 2).code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(m.ValidateWrite(Coll({0, 2}), 0).code(), StatusCode::kNotFound);
}

TEST(DataModelTest, ReadRule) {
  DataModel m(4);
  ASSERT_TRUE(m.AddWorkflow(EnterpriseSet::All(4)).ok());
  ASSERT_TRUE(m.AddIntermediateCollection(EnterpriseSet{0, 1}).ok());
  ASSERT_TRUE(m.AddIntermediateCollection(EnterpriseSet{0, 1, 2}).ok());
  EXPECT_TRUE(m.ValidateRead(Coll({0, 1}), Coll({0, 1, 2})).ok());
  EXPECT_EQ(m.ValidateRead(Coll({0, 1, 2}), Coll({0, 1})).code(),
            StatusCode::kPermissionDenied);
}

TEST(DataModelTest, AccessRule) {
  DataModel m(4);
  ASSERT_TRUE(m.AddWorkflow(EnterpriseSet::All(4)).ok());
  ASSERT_TRUE(m.AddIntermediateCollection(EnterpriseSet{0, 2}).ok());
  EXPECT_TRUE(m.CanAccess(0, Coll({0, 2})));
  EXPECT_TRUE(m.CanAccess(2, Coll({0, 2})));
  EXPECT_FALSE(m.CanAccess(1, Coll({0, 2})));
}

TEST(DataModelTest, ShardingSchema) {
  DataModel m(4);
  m.set_default_shard_count(4);
  ASSERT_TRUE(m.AddWorkflow(EnterpriseSet::All(4)).ok());
  ASSERT_TRUE(m.AddIntermediateCollection(EnterpriseSet{0, 1}, 2).ok());
  EXPECT_EQ(m.ShardCountOf(Coll({0})), 4);
  // Per-collection schema agreed at creation (§3.6).
  EXPECT_EQ(m.ShardCountOf(Coll({0, 1})), 2);
}

}  // namespace
}  // namespace qanaat
