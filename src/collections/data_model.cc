#include "collections/data_model.h"

namespace qanaat {

DataModel::DataModel(int enterprise_count)
    : enterprise_count_(enterprise_count) {}

Status DataModel::AddWorkflow(EnterpriseSet members) {
  if (members.size() < 2) {
    return Status::InvalidArgument("a workflow needs at least 2 enterprises");
  }
  if (!members.IsSubsetOf(EnterpriseSet::All(enterprise_count_))) {
    return Status::InvalidArgument("workflow references unknown enterprise");
  }
  workflows_.insert(members);
  // Root collection, shared by all members. Reused if it already exists
  // (same group collaborating in another workflow).
  collections_.emplace(CollectionId(members), 0);
  // Local collections. §3.2: one local collection per enterprise, shared
  // across every workflow it participates in.
  for (EnterpriseId e : members.Members()) {
    collections_.emplace(CollectionId(EnterpriseSet::Single(e)), 0);
  }
  return Status::Ok();
}

Status DataModel::AddIntermediateCollection(EnterpriseSet members,
                                            int shard_count) {
  if (members.size() < 2) {
    return Status::InvalidArgument(
        "an intermediate collection needs >= 2 enterprises");
  }
  bool inside_some_workflow = false;
  for (const auto& wf : workflows_) {
    if (members.IsSubsetOf(wf)) {
      inside_some_workflow = true;
      break;
    }
  }
  if (!inside_some_workflow) {
    return Status::FailedPrecondition(
        "collection " + members.Label() +
        " is not a subset of any registered workflow");
  }
  collections_.emplace(CollectionId(members), shard_count);
  return Status::Ok();
}

int DataModel::ShardCountOf(const CollectionId& c) const {
  auto it = collections_.find(c);
  if (it == collections_.end() || it->second == 0) return default_shards_;
  return it->second;
}

bool DataModel::HasCollection(const CollectionId& c) const {
  return collections_.count(c) > 0;
}

std::vector<CollectionId> DataModel::Collections() const {
  std::vector<CollectionId> out;
  out.reserve(collections_.size());
  for (const auto& [c, _] : collections_) out.push_back(c);
  return out;
}

std::vector<CollectionId> DataModel::MaintainedBy(EnterpriseId e) const {
  std::vector<CollectionId> out;
  for (const auto& [c, _] : collections_) {
    if (c.members.Contains(e)) out.push_back(c);
  }
  return out;
}

std::vector<CollectionId> DataModel::OrderDependenciesOf(
    const CollectionId& x) const {
  std::vector<CollectionId> out;
  for (const auto& [c, _] : collections_) {
    if (c != x && x.members.IsProperSubsetOf(c.members)) out.push_back(c);
  }
  return out;
}

Status DataModel::ValidateWrite(const CollectionId& target,
                                EnterpriseId initiator) const {
  if (!HasCollection(target)) {
    return Status::NotFound("collection " + target.Label() +
                            " does not exist");
  }
  if (!target.members.Contains(initiator)) {
    return Status::PermissionDenied(
        "enterprise " + EnterpriseSet::Single(initiator).Label() +
        " is not involved in " + target.Label());
  }
  return Status::Ok();
}

Status DataModel::ValidateRead(const CollectionId& on,
                               const CollectionId& from) const {
  if (!HasCollection(on) || !HasCollection(from)) {
    return Status::NotFound("unknown collection");
  }
  if (!on.CanRead(from)) {
    return Status::PermissionDenied(
        "transactions on " + on.Label() + " may not read " + from.Label() +
        " (X ⊆ Y violated)");
  }
  return Status::Ok();
}

}  // namespace qanaat
