#include "engine/audit_context.h"

#include <cstdio>
#include <stdexcept>

#include "worlds/finite_set.h"

namespace epi {
namespace {

/// `engine.stage.<idx>.<name>.<kind>` — the naming scheme AuditReport's
/// stage_stats() view reverses (see docs/observability.md). The zero-padded
/// index keeps snapshot ordering equal to cascade ordering.
std::string stage_metric_name(std::size_t index, const std::string& stage,
                              const char* kind) {
  char prefix[32];
  std::snprintf(prefix, sizeof(prefix), "engine.stage.%02zu.", index);
  return std::string(prefix) + stage + "." + kind;
}

}  // namespace

void AuditContext::set_interval_oracle(std::shared_ptr<IntervalOracle> oracle) {
  oracle_ = std::move(oracle);
}

void AuditContext::prepare_subcube(const WorldSet& a) {
  if (!oracle_) {
    throw std::logic_error("AuditContext::prepare_subcube: no interval oracle");
  }
  prepared_a_ = a;
  prepared_ = std::make_shared<const IntervalOracle::PreparedAudit>(
      oracle_->prepare(to_finite(a)));
}

const IntervalOracle::PreparedAudit* AuditContext::prepared_for(
    const WorldSet& a) const {
  if (!prepared_ || !prepared_a_ || *prepared_a_ != a) return nullptr;
  return prepared_.get();
}

std::shared_ptr<const IntervalOracle::PreparedAudit>
AuditContext::shared_prepared_for(const WorldSet& a) const {
  if (!prepared_ || !prepared_a_ || *prepared_a_ != a) return nullptr;
  return prepared_;
}

void AuditContext::reset_stages(const std::vector<std::string>& names) {
  stage_names_ = names;
  stage_slots_.clear();
  stage_slots_.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    StageSlot slot;
    slot.invocations =
        &metrics_.counter(stage_metric_name(i, names[i], "invocations"));
    slot.decisions =
        &metrics_.counter(stage_metric_name(i, names[i], "decisions"));
    slot.nanos = &metrics_.counter(stage_metric_name(i, names[i], "nanos"));
    stage_slots_.push_back(slot);
  }
}

void AuditContext::record_stage(std::size_t index, bool decided,
                                std::int64_t nanos) {
  if (index >= stage_slots_.size()) return;  // unconfigured context: no stats
  const StageSlot& slot = stage_slots_[index];
  slot.invocations->add(1);
  if (decided) slot.decisions->add(1);
  slot.nanos->add(nanos);
}

std::vector<StageStats> AuditContext::stage_stats() const {
  std::vector<StageStats> out;
  out.reserve(stage_names_.size());
  for (std::size_t i = 0; i < stage_names_.size(); ++i) {
    StageStats s;
    s.name = stage_names_[i];
    s.invocations = static_cast<std::size_t>(stage_slots_[i].invocations->value());
    s.decisions = static_cast<std::size_t>(stage_slots_[i].decisions->value());
    s.wall_seconds = static_cast<double>(stage_slots_[i].nanos->value()) * 1e-9;
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace epi
