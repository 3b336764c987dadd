#include "serve/model_registry.h"

#include <algorithm>
#include <utility>

#include "serve/model_io.h"

namespace spca::serve {

double ModelRegistry::NowSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

Status ModelRegistry::Load(const std::string& name, const std::string& path) {
  auto model = LoadModel(path);
  if (!model.ok()) return model.status();
  auto projector = Projector::Create(std::move(model).value());
  if (!projector.ok()) return projector.status();
  Swap(name, std::make_shared<const Projector>(std::move(projector).value()));
  if (metrics_ != nullptr) metrics_->counter("serve.model_loads")->Add(1);
  return Status::Ok();
}

Status ModelRegistry::Install(const std::string& name, core::PcaModel model) {
  auto projector = Projector::Create(std::move(model));
  if (!projector.ok()) return projector.status();
  Swap(name, std::make_shared<const Projector>(std::move(projector).value()));
  return Status::Ok();
}

void ModelRegistry::Swap(const std::string& name,
                         std::shared_ptr<const Projector> projector) {
  std::shared_ptr<const Projector> replaced;  // destroyed outside the lock
  bool swapped = false;
  uint64_t generation = 0;
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    Entry& slot = models_[name];
    swapped = slot.projector != nullptr;
    replaced = std::exchange(slot.projector, std::move(projector));
    slot.generation += 1;
    slot.installed_sec = NowSeconds();
    generation = slot.generation;
  }
  if (metrics_ != nullptr) {
    if (swapped) metrics_->counter("serve.model_swaps")->Add(1);
    metrics_->gauge("serve.model_generation." + name)
        ->Set(static_cast<double>(generation));
    metrics_->gauge("serve.model_age_seconds." + name)->Set(0.0);
  }
}

std::shared_ptr<const Projector> ModelRegistry::Get(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = models_.find(name);
  if (it == models_.end()) return nullptr;
  return it->second.projector;
}

std::optional<ModelInfo> ModelRegistry::GetInfo(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = models_.find(name);
  if (it == models_.end()) return std::nullopt;
  ModelInfo info;
  info.generation = it->second.generation;
  info.age_seconds = std::max(0.0, NowSeconds() - it->second.installed_sec);
  return info;
}

void ModelRegistry::RefreshAgeMetrics() const {
  if (metrics_ == nullptr) return;
  const double now = NowSeconds();
  std::shared_lock<std::shared_mutex> lock(mutex_);
  for (const auto& [name, entry] : models_) {
    metrics_->gauge("serve.model_age_seconds." + name)
        ->Set(std::max(0.0, now - entry.installed_sec));
  }
}

size_t ModelRegistry::size() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return models_.size();
}

}  // namespace spca::serve
