#include "policy/composite.h"

#include <algorithm>

#include "common/byte_serde.h"
#include "common/check.h"

namespace coldstart::policy {

CompositePolicy& CompositePolicy::Add(std::unique_ptr<platform::PlatformPolicy> policy) {
  policies_.push_back(std::move(policy));
  return *this;
}

bool CompositePolicy::is_region_local() const {
  return std::all_of(policies_.begin(), policies_.end(),
                     [](const auto& p) { return p->is_region_local(); });
}

bool CompositePolicy::is_function_local() const {
  return std::all_of(policies_.begin(), policies_.end(),
                     [](const auto& p) { return p->is_function_local(); });
}

std::unique_ptr<platform::PlatformPolicy> CompositePolicy::CloneForShard() const {
  auto clone = std::make_unique<CompositePolicy>();
  for (const auto& p : policies_) {
    auto sub = p->CloneForShard();
    if (sub == nullptr) {
      return nullptr;
    }
    clone->Add(std::move(sub));
  }
  return clone;
}

void CompositePolicy::AbsorbShardStats(const platform::PlatformPolicy& shard) {
  // CloneForShard produced the shard, so its sub-policy list mirrors ours.
  const auto& other = static_cast<const CompositePolicy&>(shard);
  for (size_t i = 0; i < policies_.size(); ++i) {
    policies_[i]->AbsorbShardStats(*other.policies_[i]);
  }
}

void CompositePolicy::OnAttach(platform::Platform& platform) {
  for (auto& p : policies_) {
    p->OnAttach(platform);
  }
}

SimDuration CompositePolicy::AdmissionDelay(const workload::FunctionSpec& spec,
                                            SimTime now,
                                            const platform::RegionLoadState& load) {
  SimDuration delay = 0;
  for (auto& p : policies_) {
    delay = std::max(delay, p->AdmissionDelay(spec, now, load));
  }
  return delay;
}

SimDuration CompositePolicy::KeepAliveFor(const workload::FunctionSpec& spec,
                                          SimTime now) {
  for (auto& p : policies_) {
    const SimDuration ka = p->KeepAliveFor(spec, now);
    if (ka != kDefaultKeepAlive) {
      return ka;
    }
  }
  return kDefaultKeepAlive;
}

trace::RegionId CompositePolicy::RouteColdStart(const workload::FunctionSpec& spec,
                                                SimTime now) {
  for (auto& p : policies_) {
    const trace::RegionId r = p->RouteColdStart(spec, now);
    if (r != spec.region) {
      return r;
    }
  }
  return spec.region;
}

void CompositePolicy::OnArrival(const workload::FunctionSpec& spec, SimTime now) {
  for (auto& p : policies_) {
    p->OnArrival(spec, now);
  }
}

void CompositePolicy::OnColdStart(const workload::FunctionSpec& spec, SimTime now,
                                  SimDuration total) {
  for (auto& p : policies_) {
    p->OnColdStart(spec, now, total);
  }
}

void CompositePolicy::OnParentRequestStart(const workload::FunctionSpec& parent,
                                           SimTime now) {
  for (auto& p : policies_) {
    p->OnParentRequestStart(parent, now);
  }
}

void CompositePolicy::OnMinuteTick(SimTime now) {
  for (auto& p : policies_) {
    p->OnMinuteTick(now);
  }
}

bool CompositePolicy::SavePolicyState(std::string* out) const {
  ByteWriter w;
  w.U64(policies_.size());
  for (const auto& p : policies_) {
    std::string sub;
    if (!p->SavePolicyState(&sub)) {
      return false;
    }
    w.Str(sub);
  }
  *out = w.Take();
  return true;
}

bool CompositePolicy::RestorePolicyState(std::string_view blob) {
  ByteReader r(blob);
  COLDSTART_CHECK_EQ(r.U64(), policies_.size());
  for (auto& p : policies_) {
    const std::string sub = r.Str();
    if (!p->RestorePolicyState(sub)) {
      return false;
    }
  }
  COLDSTART_CHECK(r.AtEnd());
  return true;
}

}  // namespace coldstart::policy
