#ifndef SPCA_SERVE_MODEL_REGISTRY_H_
#define SPCA_SERVE_MODEL_REGISTRY_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "core/pca_model.h"
#include "obs/registry.h"
#include "serve/projector.h"

namespace spca::serve {

/// Freshness metadata for one installed model.
struct ModelInfo {
  /// Per-name install count: 1 for the first install, bumped by every
  /// subsequent swap under the same name. Restarts reset it (the registry
  /// is in-memory); the streaming publisher reports it as the published
  /// model generation.
  uint64_t generation = 0;
  /// Seconds since this generation was installed.
  double age_seconds = 0.0;
};

/// Named, hot-swappable collection of servable models. Readers take an
/// atomic snapshot — a shared_ptr<const Projector> — and keep using it for
/// the duration of a batch even if the name is swapped concurrently; the
/// old projector is freed when the last in-flight batch drops its
/// reference. Writers (Load/Install) exclude each other and readers only
/// for the duration of the map update, never while the replacement
/// projector's factor is being computed.
class ModelRegistry {
 public:
  /// `metrics` may be null; when set, serve.model_loads / serve.model_swaps
  /// counters and per-model serve.model_generation.<name> /
  /// serve.model_age_seconds.<name> gauges are recorded (age gauges are
  /// refreshed by RefreshAgeMetrics, typically right before a --metrics
  /// dump).
  explicit ModelRegistry(obs::Registry* metrics = nullptr)
      : metrics_(metrics),
        epoch_(std::chrono::steady_clock::now()) {}

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Reads a model file (serve/model_io.h) and installs it under `name`,
  /// replacing any previous model with that name. The swap is atomic:
  /// concurrent Get() sees either the old or the new projector, never a
  /// partial state. On error the previous model (if any) is left serving.
  Status Load(const std::string& name, const std::string& path);

  /// Installs an in-memory model under `name` (same swap semantics).
  Status Install(const std::string& name, core::PcaModel model);

  /// Snapshot of the projector for `name`, or nullptr when absent.
  std::shared_ptr<const Projector> Get(const std::string& name) const;

  /// Generation and staleness of `name`, or nullopt when absent.
  std::optional<ModelInfo> GetInfo(const std::string& name) const;

  /// Re-publishes serve.model_age_seconds.<name> gauges from the current
  /// clock; a no-op without a metrics registry.
  void RefreshAgeMetrics() const;

  size_t size() const;

 private:
  struct Entry {
    std::shared_ptr<const Projector> projector;
    uint64_t generation = 0;
    double installed_sec = 0.0;
  };

  void Swap(const std::string& name,
            std::shared_ptr<const Projector> projector);
  double NowSeconds() const;

  obs::Registry* metrics_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string, Entry> models_;
};

}  // namespace spca::serve

#endif  // SPCA_SERVE_MODEL_REGISTRY_H_
