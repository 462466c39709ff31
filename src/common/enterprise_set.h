#ifndef QANAAT_COMMON_ENTERPRISE_SET_H_
#define QANAAT_COMMON_ENTERPRISE_SET_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/types.h"

namespace qanaat {

/// A subset of the enterprises participating in a collaboration workflow.
///
/// Data collections are identified by the set of enterprises that share
/// them (paper §3.2): the root collection is the full set, local collections
/// are singletons, and intermediate collections are any other subset. The
/// order-dependency relation between collections d_X and d_Y is exactly
/// `X ⊆ Y` — `IsSubsetOf` below.
///
/// Implemented as a 16-bit mask; deployments in the paper use 2-8
/// enterprises.
class EnterpriseSet {
 public:
  static constexpr int kMaxEnterprises = 16;

  constexpr EnterpriseSet() : mask_(0) {}
  constexpr explicit EnterpriseSet(uint16_t mask) : mask_(mask) {}
  EnterpriseSet(std::initializer_list<EnterpriseId> ids) : mask_(0) {
    for (EnterpriseId id : ids) Add(id);
  }

  /// The singleton set {e}.
  static EnterpriseSet Single(EnterpriseId e) {
    return EnterpriseSet(static_cast<uint16_t>(1u << e));
  }
  /// The full set {0, 1, ..., n-1}.
  static EnterpriseSet All(int n) {
    return EnterpriseSet(static_cast<uint16_t>((1u << n) - 1));
  }

  void Add(EnterpriseId e) { mask_ |= static_cast<uint16_t>(1u << e); }
  void Remove(EnterpriseId e) { mask_ &= static_cast<uint16_t>(~(1u << e)); }

  bool Contains(EnterpriseId e) const { return (mask_ >> e) & 1u; }
  bool empty() const { return mask_ == 0; }
  int size() const { return __builtin_popcount(mask_); }
  uint16_t mask() const { return mask_; }

  /// True iff this ⊆ other. d_this is order-dependent on d_other and its
  /// transactions may read d_other's records (paper §3.2, Read rule).
  bool IsSubsetOf(const EnterpriseSet& other) const {
    return (mask_ & other.mask_) == mask_;
  }
  /// True iff this ⊂ other (strict).
  bool IsProperSubsetOf(const EnterpriseSet& other) const {
    return IsSubsetOf(other) && mask_ != other.mask_;
  }
  bool Intersects(const EnterpriseSet& other) const {
    return (mask_ & other.mask_) != 0;
  }

  EnterpriseSet Union(const EnterpriseSet& other) const {
    return EnterpriseSet(static_cast<uint16_t>(mask_ | other.mask_));
  }
  EnterpriseSet Intersect(const EnterpriseSet& other) const {
    return EnterpriseSet(static_cast<uint16_t>(mask_ & other.mask_));
  }

  /// Members in increasing id order.
  std::vector<EnterpriseId> Members() const {
    std::vector<EnterpriseId> out;
    out.reserve(size());
    for (int e = 0; e < kMaxEnterprises; ++e) {
      if (Contains(static_cast<EnterpriseId>(e))) {
        out.push_back(static_cast<EnterpriseId>(e));
      }
    }
    return out;
  }

  /// The lowest-numbered member (undefined on empty set).
  EnterpriseId First() const {
    return static_cast<EnterpriseId>(__builtin_ctz(mask_));
  }

  /// Label in the paper's notation: enterprise 0 -> 'A', e.g. "ABD".
  std::string Label() const;

  friend bool operator==(const EnterpriseSet& a, const EnterpriseSet& b) {
    return a.mask_ == b.mask_;
  }
  friend bool operator!=(const EnterpriseSet& a, const EnterpriseSet& b) {
    return a.mask_ != b.mask_;
  }
  friend bool operator<(const EnterpriseSet& a, const EnterpriseSet& b) {
    return a.mask_ < b.mask_;
  }

  /// Wire layout (common/serde.h): the u16 mask.
  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.mask_);
  }

 private:
  uint16_t mask_;
};

}  // namespace qanaat

#endif  // QANAAT_COMMON_ENTERPRISE_SET_H_
